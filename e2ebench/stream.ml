(* Seeded request streams for the two serve workloads.  Request [i] of
   a stream is a pure function of (seed, i), so every connection can
   draw indices from one counter and a seed always yields the same
   requests, byte for byte. *)

module P = Gc_serve.Protocol

type kind = Small | Sweep

(* Item policies of similar per-access cost: a request's latency then
   depends on the layers under test, not on which policy it drew. *)
let policies = [| "lru"; "fifo"; "clock"; "arc"; "s3-fifo"; "lfu" |]

(* serve-small: every standard workload, fresh trace seeds, n = 2048. *)
let small_universe = 65_536
let small_n = 512
let small_ks = [| 64; 256; 1024 |]

(* serve-sweep: three (workload, seed) pairs requested over and over. *)
let sweep_workloads = [| "zipf"; "spatial-mix"; "phases" |]
let sweep_universe = 16_384
let sweep_n = 20_000
let sweep_ks = [| 128; 512; 2048 |]

(* Per block of ten: six unaudited sims, two audited sims, two miss
   curves, so that p50 falls inside the unaudited class and p90 inside
   the curve class, not on a seam between them. *)
type slot = Plain | Audited | Curve

let pattern =
  [| Plain; Plain; Curve; Plain; Audited; Plain; Plain; Curve; Audited; Plain |]

let sizes = function
  | Small ->
      Printf.sprintf "n=%d universe=%d block_size=16 ks=%s workloads=all-8"
        small_n small_universe
        (String.concat "," (Array.to_list (Array.map string_of_int small_ks)))
  | Sweep ->
      Printf.sprintf "n=%d universe=%d block_size=16 ks=%s workloads=%s"
        sweep_n sweep_universe
        (String.concat "," (Array.to_list (Array.map string_of_int sweep_ks)))
        (String.concat "," (Array.to_list sweep_workloads))

let rng_for ~seed i = Gc_trace.Rng.create ((seed * 1_000_003) + i)

let load ~workload ~n ~universe = { P.workload; n; universe; block_size = 16 }

let sweep_pair_seed ~seed j = (seed * 101) + j

let op kind ~seed i =
  let r = rng_for ~seed i in
  let policy = Gc_trace.Rng.choose r policies in
  match kind with
  | Small ->
      let names = Array.of_list Gc_trace.Workload_suite.standard_names in
      let workload = Gc_trace.Rng.choose r names in
      let k = Gc_trace.Rng.choose r small_ks in
      (* A seed no other request of this run uses: no trace repeats. *)
      let trace_seed = (seed * 16_777_216) + i in
      P.Sim
        {
          policy;
          k;
          seed = trace_seed;
          load = load ~workload ~n:small_n ~universe:small_universe;
          check = i mod 4 = 3;
        }
  | Sweep -> (
      let j = Gc_trace.Rng.int r (Array.length sweep_workloads) in
      let load =
        load ~workload:sweep_workloads.(j) ~n:sweep_n ~universe:sweep_universe
      in
      let pair_seed = sweep_pair_seed ~seed j in
      match pattern.(i mod Array.length pattern) with
      | Curve ->
          P.Miss_curve
            {
              curve_policy = policy;
              ks = Array.to_list sweep_ks;
              curve_seed = pair_seed;
              curve_load = load;
            }
      | (Plain | Audited) as slot ->
          P.Sim
            {
              policy;
              k = Gc_trace.Rng.choose r sweep_ks;
              seed = pair_seed;
              load;
              check = slot = Audited;
            })

let request kind ~seed i =
  {
    P.id = Some (Gc_obs.Json.String (Printf.sprintf "r%d" i));
    op = op kind ~seed i;
    budget_ms = None;
  }

(* The trace a request makes the server build, as a memo key. *)
let trace_key = function
  | P.Sim s -> Some (s.load, s.seed)
  | P.Miss_curve c -> Some (c.curve_load, c.curve_seed)
  | P.Health | P.Stats -> None

let accesses = function
  | P.Sim s -> s.load.n
  | P.Miss_curve c -> c.curve_load.n * List.length c.ks
  | P.Health | P.Stats -> 0

let audited = function P.Sim { check; _ } -> Some check | _ -> None

(* Builds of a trace already built earlier in the same list, over all
   builds. *)
let rebuilds ops =
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun (builds, again) op ->
      match trace_key op with
      | None -> (builds, again)
      | Some key ->
          let again = if Hashtbl.mem seen key then again + 1 else again in
          Hashtbl.replace seen key ();
          (builds + 1, again))
    (0, 0) ops
