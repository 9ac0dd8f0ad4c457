(* The end-to-end benchmark's entry point.

   main.exe --workload sweep|serve-small|serve-sweep [--seed N]
            [--seconds S] [--trace 0|1] [--server GCSERVED]

   --trace 0 measures the end-to-end metrics; --trace 1 is the traced
   run that gives the per-layer metrics.  The last line of standard
   output is the result as one JSON object; the exit code is 0 only when
   every operation succeeded and every output was correct.

   main.exe --write-fingerprint prints the sweep's counter fingerprint
   for the default seed (committed as e2ebench/sweep_fingerprint.txt). *)

open E2ebench
module P = Gc_serve.Protocol

let run_dir = ".e2ebench-run"

let env ~workload ~seed ~seconds ~trace ~workers ~sizes =
  Report.note
    "env: workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s \
     gcserved_workers=%s %s"
    workload seed seconds trace (Host.nproc ()) Sys.ocaml_version workers sizes

let median_ns l = Stat.median (List.map float_of_int l)

(* [Pool.run] of a no-op task, timed from outside, with the pool
   configuration the server dispatches each request under. *)
let pool_noop_us () =
  let config =
    { (Gc_exec.Pool.default_config ()) with domains = 1; deadline = Some 30. }
  in
  List.init 100 (fun _ ->
      let t0 = Host.now_ns () in
      ignore (Gc_exec.Pool.run ~config [ (fun ~cancel:_ -> ()) ]);
      Host.now_ns () - t0)
  |> median_ns
  |> fun ns -> ns /. 1e3

(* Serve-layer span names: a run that never reaches a server records
   none of them, and reports their time as 0. *)
let median_dur spans name =
  match List.filter (fun (s : Gc_prof.Tracer.span) -> s.name = name) spans with
  | [] -> 0.
  | l -> Stat.median (List.map (fun (s : Gc_prof.Tracer.span) -> float_of_int s.dur_ns /. 1e3) l)

let write_spans name =
  let spans = Gc_prof.Tracer.dump () in
  Gc_obs.Export.write_json_atomic
    (Filename.concat run_dir (name ^ ".bench-trace.json"))
    (Gc_prof.Chrome.to_json spans);
  spans

let layer_metrics report ~reps cells =
  List.iter
    (fun (name, v, unit) -> Report.metric report name v unit)
    (Layers.metrics (Layers.split ~reps cells))

(* Per-layer metrics of the request path, in one fixed order. *)
let path_metrics report ~trace_build_us ~builds ~rebuilds ~dispatch_us
    ~cpu_ms ~decode ~encode ~reply ~queue_wait ~shed ~retries ~simulate
    ~client_socket ~ops ~overhead_p50 ~overhead_rate =
  let m = Report.metric report in
  m "trace_build_us" trace_build_us "us";
  m "trace.builds" (float_of_int builds) "count";
  m "trace.rebuild_ratio"
    (if builds = 0 then 0. else float_of_int rebuilds /. float_of_int builds)
    "ratio";
  m "dispatch_us" dispatch_us "us";
  m "pool_noop_us" (pool_noop_us ()) "us";
  m "server.cpu_ms_per_request" cpu_ms "ms";
  m "decode_us" decode "us";
  m "encode_us" encode "us";
  m "reply_us" reply "us";
  m "queue_wait_us" queue_wait "us";
  m "server.shed" (float_of_int shed) "count";
  m "client.retries" (float_of_int retries) "count";
  m "simulate_us" simulate "us";
  m "client_socket_us" client_socket "us";
  m "traced.ops" (float_of_int ops) "count";
  m "trace_overhead.p50_ms" overhead_p50 "ratio";
  m "trace_overhead.accesses_per_s" overhead_rate "ratio"

(* ----------------------------------------------------------- sweep *)

let sweep_setup ~seed =
  let samples =
    List.init 9 (fun _ ->
        let t0 = Host.now_ns () in
        let traces = Sweep.build_traces ~seed in
        (Host.now_ns () - t0, traces))
  in
  (median_ns (List.map fst samples) /. 1e9, snd (List.hd samples))

let sweep report ~seed ~seconds ~trace ~fingerprint =
  env ~workload:"sweep" ~seed ~seconds ~trace ~workers:"n/a" ~sizes:Sweep.sizes;
  let setup_s, traces = sweep_setup ~seed in
  let cells = Sweep.cells traces in
  let m = Report.metric report in
  if trace = 0 then begin
    let slots, rounds, calib = Sweep.run_rounds report ~seed ~seconds cells in
    ignore (Sweep.check_counters report ~seed ~fingerprint slots);
    let speed = Calib.speed calib in
    let rate, audited, rps, p50, tail = Sweep.summarize ~speed slots in
    let raw, _, _, _, _ = Sweep.summarize ~speed:1. slots in
    Report.note
      "sweep: %d rounds of %d cell runs; tail_ms is p%g of the cell medians, \
       %d beyond it"
      rounds (Array.length slots) (Sweep.tail_q *. 100.)
      (Stat.beyond (Array.length slots) Sweep.tail_q);
    Report.note
      "sweep: host speed %.4f of the reference (calibration pass %.6fs); \
       times multiplied by it, rates divided; raw accesses_per_s %.1f"
      speed calib raw;
    m "setup_s" (setup_s *. speed) "s";
    m "peak_rss_mb" (Host.peak_rss_mb "self") "MB";
    m "accesses_per_s" rate "1/s";
    m "audited_accesses_per_s" audited "1/s";
    m "rps" rps "1/s";
    m "p50_ms" p50 "ms";
    m "tail_ms" tail "ms"
  end
  else begin
    let rounds = 3 in
    let plain, _, calib0 = Sweep.run_rounds report ~seed ~rounds ~seconds cells in
    ignore (Sweep.check_counters report ~seed ~fingerprint plain);
    let rate0, _, _, p50_0, _ = Sweep.summarize ~speed:(Calib.speed calib0) plain in
    Gc_prof.Tracer.start ~capacity:65_536 ();
    let traces = Sweep.build_traces ~seed in
    let cells = Sweep.cells traces in
    let traced, _, calib1 = Sweep.run_rounds report ~seed ~rounds ~seconds cells in
    let rate1, _, _, p50_1, _ = Sweep.summarize ~speed:(Calib.speed calib1) traced in
    let layer_cells =
      List.concat_map
        (fun (_, t) -> List.map (fun k -> { Layers.trace = t; k; seed }) Sweep.ks)
        traces
    in
    layer_metrics report ~reps:5 layer_cells;
    Gc_prof.Tracer.stop ();
    let spans = write_spans "sweep" in
    let builds =
      List.length
        (List.filter (fun (s : Gc_prof.Tracer.span) -> s.name = "Workload_suite.build") spans)
    in
    let d = median_dur spans in
    path_metrics report ~trace_build_us:(d "Workload_suite.build") ~builds
      ~rebuilds:0 ~dispatch_us:(d "execute") ~cpu_ms:0. ~decode:(d "decode")
      ~encode:(d "encode") ~reply:(d "reply") ~queue_wait:(d "queue-wait")
      ~shed:0 ~retries:0 ~simulate:(d "run_policy") ~client_socket:0.
      ~ops:(rounds * 2 * List.length cells)
      ~overhead_p50:(p50_1 /. p50_0) ~overhead_rate:(rate1 /. rate0)
  end

(* ------------------------------------------------------------ serve *)

let warmup = 16
let segments = 10

let serve report ~kind ~name ~seed ~seconds ~trace ~exe =
  let conns = max 1 (min 2 (Host.nproc ())) in
  (* serve-sweep's time is mostly simulation, which follows the host's
     speed as the sweep's does; serve-small's is mostly the pool's 2 ms
     monitor tick, which does not, so scaling it would add the drift it
     means to remove. *)
  let scaled = kind = Stream.Sweep in
  let request i = Stream.request kind ~seed i in
  let oracle = Serve.oracle () in
  let m = Report.metric report in
  let load s ~first ~stop = Serve.run_load ~addr:s.Serve.addr ~conns ~first ~stop ~request in
  let tail_q = match kind with Stream.Small -> 0.99 | Stream.Sweep -> 0.9 in
  (* Times are multiplied by [speed] (rates divided) to scale them to the
     reference host; see [scaled]. *)
  let latency_figures ?(speed = 1.) outcomes wall_ns =
    let latency_s (o : Serve.outcome) = float_of_int o.latency_ns /. 1e9 *. speed in
    let lat = List.map (fun o -> latency_s o *. 1e3) outcomes in
    let rate check =
      List.filter_map
        (fun (o : Serve.outcome) ->
          if Stream.audited o.op = Some check then
            Some (float_of_int (Stream.accesses o.op) /. latency_s o)
          else None)
        outcomes
      |> Stat.geomean
    in
    let ok = List.length (List.filter (fun (o : Serve.outcome) -> Result.is_ok o.reply) outcomes) in
    ( rate false,
      rate true,
      float_of_int ok /. (Host.s_of_ns wall_ns *. speed),
      Stat.median lat,
      Stat.quantile lat tail_q,
      List.length lat )
  in
  let stop_checked s =
    let ok = Serve.stop s in
    Report.op report ok ~what:(fun () -> "gcserved did not exit 0 after SIGTERM")
  in
  if trace = 0 then begin
    let setups =
      List.init 4 (fun i ->
          let s = Serve.spawn ~exe ~dir:run_dir ~tag:(Printf.sprintf "%s-setup%d" name i) () in
          stop_checked s;
          s.setup_ns)
    in
    let s = Serve.spawn ~exe ~dir:run_dir ~tag:name () in
    env ~workload:name ~seed ~seconds ~trace
      ~workers:(string_of_int (Serve.workers s))
      ~sizes:(Printf.sprintf "%s conns=%d" (Stream.sizes kind) conns);
    let warm, _, _ = load s ~first:0 ~stop:(Serve.Count warmup) in
    (* The window runs in segments with calibration passes between them,
       taken while no request is in flight. *)
    let segment = seconds /. float_of_int segments in
    let rec measure first k acc wall calib =
      let calib = Calib.time () :: Calib.time () :: Calib.time () :: calib in
      if k = 0 then (List.concat (List.rev acc), wall, calib)
      else
        let deadline = Host.now_ns () + int_of_float (segment *. 1e9) in
        let o, w, _ = load s ~first ~stop:(Serve.Until deadline) in
        measure (first + List.length o) (k - 1) (o :: acc) (wall + w) calib
    in
    let outcomes, wall, calib = measure warmup segments [] 0 [] in
    let rss = Host.peak_rss_mb (string_of_int s.pid) in
    stop_checked s;
    Serve.verify report oracle (warm @ outcomes);
    let calib = Stat.median calib in
    let speed = if scaled then Calib.speed calib else 1. in
    let rate, audited, rps, p50, tail, count = latency_figures ~speed outcomes wall in
    let _, _, raw_rps, _, _, _ = latency_figures outcomes wall in
    Report.note
      "%s: %d requests over %.2fs on %d connections; tail_ms is p%g with %d \
       samples beyond it"
      name count (Host.s_of_ns wall) conns (tail_q *. 100.) (Stat.beyond count tail_q);
    Report.note
      "%s: host speed %.4f of the reference (calibration pass %.6fs); %s; raw \
       rps %.3f"
      name (Calib.speed calib) calib
      (if scaled then "times multiplied by it, rates divided" else "not scaled")
      raw_rps;
    m "setup_s" (median_ns (s.setup_ns :: setups) /. 1e9) "s";
    m "peak_rss_mb" rss "MB";
    m "accesses_per_s" rate "1/s";
    m "audited_accesses_per_s" audited "1/s";
    m "rps" rps "1/s";
    m "p50_ms" p50 "ms";
    m "tail_ms" tail "ms"
  end
  else begin
    let n = match kind with Stream.Small -> 300 | Stream.Sweep -> 120 in
    (* Untraced pass: the baseline for the tracing overhead, and the
       server's CPU per request. *)
    let s = Serve.spawn ~exe ~dir:run_dir ~tag:name () in
    let workers = Serve.workers s in
    env ~workload:name ~seed ~seconds ~trace ~workers:(string_of_int workers)
      ~sizes:(Printf.sprintf "%s conns=%d traced_requests=%d" (Stream.sizes kind) conns n);
    let warm0, _, _ = load s ~first:0 ~stop:(Serve.Count warmup) in
    let cpu0 = Host.cpu_s s.pid in
    let plain, wall0, retries0 = load s ~first:warmup ~stop:(Serve.Count n) in
    let cpu1 = Host.cpu_s s.pid in
    let shed = Option.value ~default:0 (Serve.counter (Serve.stats s) "shed") in
    stop_checked s;
    (* Traced pass: the same requests against a server writing spans. *)
    let trace_file = Filename.concat run_dir (name ^ ".server-trace.json") in
    let s = Serve.spawn ~exe ~dir:run_dir ~tag:name ~trace:trace_file () in
    let warm1, _, _ = load s ~first:0 ~stop:(Serve.Count warmup) in
    Gc_prof.Tracer.start ~capacity:65_536 ();
    let traced, wall1, retries1 = load s ~first:warmup ~stop:(Serve.Count n) in
    stop_checked s;
    let cells =
      List.filter_map
        (fun (o : Serve.outcome) ->
          match o.op with
          | P.Sim sim ->
              Some
                { Layers.trace = Serve.trace oracle sim.load sim.seed; k = sim.k; seed = sim.seed }
          | _ -> None)
        traced
      |> List.filteri (fun i _ -> i < 3)
    in
    layer_metrics report ~reps:5 cells;
    Gc_prof.Tracer.stop ();
    ignore (write_spans name);
    Serve.verify report oracle (warm0 @ plain @ warm1 @ traced);
    let rate0, _, _, p50_0, _, _ = latency_figures plain wall0 in
    let rate1, _, _, p50_1, _, _ = latency_figures traced wall1 in
    let b = Serve.breakdowns (Serve.read_trace trace_file) traced in
    let med f = Stat.median (List.map f b) in
    let builds, rebuilds = Stream.rebuilds (List.map (fun (o : Serve.outcome) -> o.op) traced) in
    let parts =
      Serve.
        [
          ("decode", med (fun b -> b.decode));
          ("queue_wait", med (fun b -> b.queue_wait));
          ("dispatch", med (fun b -> b.dispatch));
          ("trace_build", med (fun b -> b.trace_build));
          ("simulate", med (fun b -> b.simulate));
          ("encode", med (fun b -> b.encode));
          ("reply", med (fun b -> b.reply));
          ("client_socket", med (fun b -> b.client_socket));
        ]
    in
    Report.note "%s: %d of %d traced requests reconciled; p50 latency %.0fus vs sum of median self times %.0fus:"
      name (List.length b) n (p50_1 *. 1e3) (Stat.sum (List.map snd parts));
    List.iter (fun (k, v) -> Report.note "  %-14s %10.1f us" k v) parts;
    let p = List.assoc in
    path_metrics report ~trace_build_us:(p "trace_build" parts) ~builds ~rebuilds
      ~dispatch_us:(p "dispatch" parts)
      ~cpu_ms:((cpu1 -. cpu0) *. 1e3 /. float_of_int (List.length plain))
      ~decode:(p "decode" parts) ~encode:(p "encode" parts) ~reply:(p "reply" parts)
      ~queue_wait:(p "queue_wait" parts) ~shed ~retries:(retries0 + retries1)
      ~simulate:(p "simulate" parts) ~client_socket:(p "client_socket" parts)
      ~ops:(List.length traced) ~overhead_p50:(p50_1 /. p50_0)
      ~overhead_rate:(rate1 /. rate0)
  end

(* ------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref Sweep.default_seed and seconds = ref 10.
  and trace = ref 0 and exe = ref "_build/default/bin/gcserved.exe"
  and fingerprint = ref "e2ebench/sweep_fingerprint.txt"
  and write_fp = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sweep | serve-small | serve-sweep");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced run (1)");
      ("--server", Arg.Set_string exe, "PATH the gcserved binary");
      ("--fingerprint", Arg.Set_string fingerprint, "PATH sweep counter fingerprint");
      ("--write-fingerprint", Arg.Set write_fp, " print the sweep fingerprint and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !write_fp then begin
    let report = Report.create () in
    let cells = Sweep.cells (Sweep.build_traces ~seed:Sweep.default_seed) in
    let slots, _, _ =
      Sweep.run_rounds report ~seed:Sweep.default_seed ~rounds:1 ~seconds:0. cells
    in
    print_endline (Sweep.fingerprint_header ~seed:Sweep.default_seed);
    List.iter print_endline (Sweep.fingerprint_lines slots);
    exit (if report.failed = 0 then 0 else 1)
  end;
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let report = Report.create () in
  let seed = !seed and seconds = !seconds and trace = !trace in
  (match !workload with
  | "sweep" -> sweep report ~seed ~seconds ~trace ~fingerprint:!fingerprint
  | "serve-small" ->
      serve report ~kind:Stream.Small ~name:"serve-small" ~seed ~seconds ~trace ~exe:!exe
  | "serve-sweep" ->
      serve report ~kind:Stream.Sweep ~name:"serve-sweep" ~seed ~seconds ~trace ~exe:!exe
  | w ->
      Printf.eprintf "unknown workload %S (sweep, serve-small, serve-sweep)\n" w;
      exit 2);
  Report.print report
    ~expected:(if trace = 0 then Report.end_to_end else Report.per_layer);
  exit (if report.failed = 0 then 0 else 1)
