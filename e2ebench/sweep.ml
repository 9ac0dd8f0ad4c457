(* The [sweep] workload: an in-process parameter sweep, as [gcsim suite]
   and [gcexp] run it.  Every registry policy is crossed with four
   standard workloads (temporal-only, spatial, neither, phase changes)
   and a small and a large capacity; every cell simulates the same
   number of accesses, once unaudited and once audited, through
   [Obs_run.run_policy_result].  No server and no pool are involved. *)

module Trace = Gc_trace.Trace
module Metrics = Gc_cache.Metrics

let workloads = [ "zipf"; "zipf-blocks"; "uniform"; "phases" ]
let universe = 4096
let block_size = 16
let n = 2048

(* The working sets are 512 items (zipf, zipf-blocks, uniform) and up
   to 512 (phases): 32 is small against them, 256 large. *)
let ks = [ 32; 256 ]

let sizes =
  Printf.sprintf "n=%d universe=%d block_size=%d ks=%s workloads=%s" n universe
    block_size
    (String.concat "," (List.map string_of_int ks))
    (String.concat "," workloads)

let build_traces ~seed =
  List.map
    (fun w ->
      Gc_prof.Span.with_ ~args:[ ("workload", w) ] "Workload_suite.build"
        (fun () ->
          match
            Gc_trace.Workload_suite.build ~seed ~n ~universe ~block_size w
          with
          | Ok t -> (w, t)
          | Error e -> failwith e))
    workloads

type cell = { workload : string; k : int; policy : string; trace : Trace.t }

let cells traces =
  List.concat_map
    (fun (workload, trace) ->
      List.concat_map
        (fun k ->
          List.map
            (fun policy -> { workload; k; policy; trace })
            Gc_cache.Registry.names)
        ks)
    traces

let cell_name c = Printf.sprintf "%s k=%d %s" c.workload c.k c.policy

(* ------------------------------------------------------ fingerprint *)

let fingerprint_header ~seed = Printf.sprintf "# seed=%d %s" seed sizes

let fingerprint_line c (m : Metrics.t) =
  Printf.sprintf "%s %d %s %s" c.workload c.k c.policy
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Metrics.fields m)))

let default_seed = 1

(* ------------------------------------------------------- the rounds *)

type slot = {
  cell : cell;
  check : bool;
  mutable times_ns : float list;
  mutable first : Metrics.t option;
}

let run_cell ~seed s =
  Gc_prof.Span.with_
    ~args:[ ("cell", cell_name s.cell); ("check", string_of_bool s.check) ]
    "Obs_run.run_policy_result"
    (fun () ->
      let t0 = Host.now_ns () in
      let r =
        Gc_cache.Obs_run.run_policy_result ~check:s.check ~k:s.cell.k ~seed
          s.cell.policy s.cell.trace
      in
      (Host.now_ns () - t0, r))

(* Rounds over every (cell, mode) in a fresh seeded order, until
   [seconds] have passed and at least three rounds are done (or exactly
   [rounds] when given).  Each slot's time is the median over rounds, so
   a drift of the host's speed lasting seconds lands on every cell alike
   instead of on whichever cells ran during it.  Each round also times
   one calibration pass; the median pass time is returned. *)
let run_rounds report ~seed ?rounds ~seconds cells =
  let slots =
    Array.of_list
      (List.concat_map
         (fun cell ->
           List.map
             (fun check -> { cell; check; times_ns = []; first = None })
             [ false; true ])
         cells)
  in
  let order = Array.init (Array.length slots) Fun.id in
  let rng = Gc_trace.Rng.create seed in
  let t_end = Host.now_ns () + int_of_float (seconds *. 1e9) in
  let done_rounds = ref 0 in
  let continue () =
    match rounds with
    | Some r -> !done_rounds < r
    | None -> !done_rounds < 3 || Host.now_ns () < t_end
  in
  let calib = ref [] in
  while continue () do
    calib := Calib.time () :: !calib;
    Gc_trace.Rng.shuffle rng order;
    Array.iter
      (fun i ->
        let s = slots.(i) in
        let ns, r = run_cell ~seed s in
        s.times_ns <- float_of_int ns :: s.times_ns;
        let what () =
          Printf.sprintf "%s check=%b" (cell_name s.cell) s.check
        in
        match r with
        | Error f ->
            Report.op report false ~what:(fun () ->
                what () ^ ": " ^ f.Gc_cache.Obs_run.kind ^ ": "
                ^ f.Gc_cache.Obs_run.message)
        | Ok r -> (
            let m = r.Gc_cache.Obs_run.metrics in
            match s.first with
            | None ->
                s.first <- Some (Metrics.copy m);
                Report.op report (m.Metrics.accesses = n) ~what:(fun () ->
                    what () ^ ": wrong access count")
            | Some m0 ->
                Report.op report
                  (Metrics.fields m = Metrics.fields m0)
                  ~what:(fun () -> what () ^ ": counters changed between rounds")))
      order;
    incr done_rounds
  done;
  (slots, !done_rounds, Stat.median !calib)

let unaudited slots = List.filter (fun s -> not s.check) (Array.to_list slots)

(* One line per cell, in grid order: the committed fingerprint's rows. *)
let fingerprint_lines slots =
  List.filter_map
    (fun s -> Option.map (fingerprint_line s.cell) s.first)
    (unaudited slots)

(* Audited counters must equal unaudited ones; at the default seed every
   cell must match the committed fingerprint. *)
let check_counters report ~seed ~fingerprint slots =
  List.iter
    (fun s ->
      let audited =
        List.find
          (fun a -> a.check && a.cell == s.cell)
          (Array.to_list slots)
      in
      Report.op report
        (match (s.first, audited.first) with
        | Some a, Some b -> Metrics.fields a = Metrics.fields b
        | _ -> false)
        ~what:(fun () -> cell_name s.cell ^ ": audited counters differ"))
    (unaudited slots);
  let lines = fingerprint_lines slots in
  if seed = default_seed then begin
    let expected =
      Host.read_lines fingerprint
      |> List.filter (fun l -> l <> "")
    in
    match expected with
    | header :: rows when header = fingerprint_header ~seed ->
        let rows = Array.of_list rows in
        List.iteri
          (fun i line ->
            Report.op report
              (i < Array.length rows && rows.(i) = line)
              ~what:(fun () -> "fingerprint mismatch: " ^ line))
          lines;
        Report.op report
          (Array.length rows = List.length lines)
          ~what:(fun () -> "fingerprint row count differs")
    | _ ->
        Report.op report false ~what:(fun () ->
            fingerprint ^ ": missing or made for other sizes")
  end;
  lines

let ms ns = ns /. 1e6

(* p90 of the 320 cell times: 32 cells lie beyond it. *)
let tail_q = 0.9

(* End-to-end figures of a finished set of rounds, with every time
   scaled to the reference host by [speed] (see {!Calib.speed}). *)
let summarize ~speed slots =
  let med s = Stat.median s.times_ns *. speed in
  let rate check =
    Array.to_list slots
    |> List.filter (fun s -> s.check = check)
    |> List.map (fun s -> float_of_int n /. (med s /. 1e9))
    |> Stat.geomean
  in
  let meds = Array.to_list (Array.map med slots) in
  ( rate false,
    rate true,
    float_of_int (List.length meds) /. (Stat.sum meds /. 1e9),
    ms (Stat.median meds),
    ms (Stat.quantile meds tail_q) )
