(* Per-access cost of the three layers of one simulation, split by
   differencing three runs of the same cell:
   - core:   a bare [Policy.access] loop over the trace;
   - driver: [Simulator.run ~check:false] minus core (metrics, shadow
             bookkeeping of outcomes);
   - audit:  [Simulator.run ~check:true] minus [~check:false].
   Time is the median over repetitions; allocation (minor words) is
   exact and taken from the last repetition, after any lazy set-up. *)

module Trace = Gc_trace.Trace

(* Policies with a per-layer row: the [Lru_core] users, then three that
   keep their own structures. *)
let policies =
  [
    "lru"; "fifo"; "lfu"; "s3-fifo"; "arc"; "iblp"; "block-lru"; "lru-k";
    "clock"; "fwf"; "gcm";
  ]

type cell = { trace : Trace.t; k : int; seed : int }
type mode = Core | Unchecked | Checked

let mode_name = function
  | Core -> "Policy.access"
  | Unchecked -> "Simulator.run.unchecked"
  | Checked -> "Simulator.run.checked"

let run mode policy c =
  let p =
    Gc_cache.Registry.make policy ~k:c.k ~blocks:c.trace.Trace.blocks
      ~seed:c.seed
  in
  match mode with
  | Core ->
      let reqs = c.trace.Trace.requests in
      for i = 0 to Array.length reqs - 1 do
        ignore (Gc_cache.Policy.access p reqs.(i))
      done
  | Unchecked -> ignore (Gc_cache.Simulator.run ~check:false p c.trace)
  | Checked -> ignore (Gc_cache.Simulator.run ~check:true p c.trace)

(* One timed run inside a span named after the layer's entry point; the
   words are counted inside the span so tracing does not change them. *)
let measure mode policy c =
  Gc_prof.Span.with_
    ~args:[ ("policy", policy); ("k", string_of_int c.k) ]
    (mode_name mode)
    (fun () ->
      let w0 = Gc.minor_words () in
      let t0 = Host.now_ns () in
      run mode policy c;
      let t1 = Host.now_ns () in
      let w1 = Gc.minor_words () in
      (t1 - t0, w1 -. w0))

type row = {
  policy : string;
  core_ns : float;
  driver_ns : float;
  audit_ns : float;
  core_words : float;
  driver_words : float;
  audit_words : float;
}

let modes = [| Core; Unchecked; Checked |]

(* [reps] interleaved passes over every (policy, cell, mode), so slow
   drift of the host touches every layer alike. *)
let split ~reps cells =
  let cells = Array.of_list cells in
  let pols = Array.of_list policies in
  let np = Array.length pols and nc = Array.length cells in
  let times = Array.init np (fun _ -> Array.init nc (fun _ -> Array.make 3 [])) in
  let words = Array.init np (fun _ -> Array.init nc (fun _ -> Array.make 3 0.)) in
  for _ = 1 to reps do
    Array.iteri
      (fun pi policy ->
        Array.iteri
          (fun ci c ->
            Array.iteri
              (fun mi mode ->
                let ns, w = measure mode policy c in
                times.(pi).(ci).(mi) <- float_of_int ns :: times.(pi).(ci).(mi);
                words.(pi).(ci).(mi) <- w)
              modes)
          cells)
      pols
  done;
  let accesses =
    Array.fold_left (fun acc c -> acc + Trace.length c.trace) 0 cells
    |> float_of_int
  in
  Array.to_list
    (Array.mapi
       (fun pi policy ->
         let total f =
           let s = ref 0. in
           for ci = 0 to nc - 1 do
             s := !s +. f ci
           done;
           !s /. accesses
         in
         let t ci mi = Stat.median times.(pi).(ci).(mi) in
         let w ci mi = words.(pi).(ci).(mi) in
         {
           policy;
           core_ns = total (fun ci -> t ci 0);
           driver_ns = total (fun ci -> t ci 1 -. t ci 0);
           audit_ns = total (fun ci -> t ci 2 -. t ci 1);
           core_words = total (fun ci -> w ci 0);
           driver_words = total (fun ci -> w ci 1 -. w ci 0);
           audit_words = total (fun ci -> w ci 2 -. w ci 1);
         })
       pols)

(* The per-layer metric columns of one policy, in print order. *)
let columns =
  [
    ("core", "ns_per_access", "ns", fun r -> r.core_ns);
    ("core", "words_per_access", "words", fun r -> r.core_words);
    ("driver", "ns_per_access", "ns", fun r -> r.driver_ns);
    ("driver", "words_per_access", "words", fun r -> r.driver_words);
    ("audit", "ns_per_access", "ns", fun r -> r.audit_ns);
    ("audit", "words_per_access", "words", fun r -> r.audit_words);
  ]

let name layer what policy = Printf.sprintf "%s.%s.%s" layer what policy

let names =
  List.concat_map
    (fun p -> List.map (fun (l, w, u, _) -> (name l w p, u)) columns)
    policies

let metrics rows =
  List.concat_map
    (fun r -> List.map (fun (l, w, u, f) -> (name l w r.policy, f r, u)) columns)
    rows
