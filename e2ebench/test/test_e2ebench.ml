(* The benchmark's own tests: its inputs and exact counts must repeat
   from run to run, its sweep must match the committed fingerprint, and
   BENCHMARK.json must list exactly the metrics it prints. *)

open E2ebench
module Json = Gc_obs.Json

let fingerprint = ref "sweep_fingerprint.txt"
let benchmark = ref "BENCHMARK.json"

let stream_bytes kind ~seed n =
  String.concat "\n"
    (List.init n (fun i ->
         Json.to_string (Gc_serve.Protocol.request_to_json (Stream.request kind ~seed i))))

let test_stream_repeats () =
  List.iter
    (fun kind ->
      let a = stream_bytes kind ~seed:7 300 in
      Alcotest.(check string) "same seed, same bytes" a (stream_bytes kind ~seed:7 300);
      Alcotest.(check bool) "other seed, other bytes" false (a = stream_bytes kind ~seed:8 300))
    [ Stream.Small; Stream.Sweep ]

let test_rebuild_counts () =
  let ops kind n = List.init n (fun i -> Stream.op kind ~seed:3 i) in
  Alcotest.(check (pair int int)) "serve-small never rebuilds" (300, 0)
    (Stream.rebuilds (ops Stream.Small 300));
  let builds, again = Stream.rebuilds (ops Stream.Sweep 120) in
  Alcotest.(check (pair int int)) "serve-sweep rebuilds all but its three pairs"
    (120, 117) (builds, again);
  Alcotest.(check (pair int int)) "counts repeat" (builds, again)
    (Stream.rebuilds (ops Stream.Sweep 120))

let test_words_repeat () =
  let trace =
    Result.get_ok
      (Gc_trace.Workload_suite.build ~seed:5 ~n:512 ~universe:4096 ~block_size:16 "zipf")
  in
  let cells = [ { Layers.trace; k = 32; seed = 5 } ] in
  let words rows =
    List.concat_map
      (fun (r : Layers.row) -> [ r.core_words; r.driver_words; r.audit_words ])
      rows
  in
  let a = words (Layers.split ~reps:1 cells) in
  Alcotest.(check (list (float 0.))) "words per access repeat exactly" a
    (words (Layers.split ~reps:2 cells));
  List.iteri
    (fun i w ->
      if i mod 3 = 0 then Alcotest.(check bool) "a core allocates" true (w > 0.))
    a

let test_sweep_fingerprint () =
  let report = Report.create () in
  let cells = Sweep.cells (Sweep.build_traces ~seed:Sweep.default_seed) in
  let slots, _, _ =
    Sweep.run_rounds report ~seed:Sweep.default_seed ~rounds:1 ~seconds:0. cells
  in
  ignore
    (Sweep.check_counters report ~seed:Sweep.default_seed ~fingerprint:!fingerprint
       slots);
  Alcotest.(check bool) "every cell checked" true
    (report.attempted > 2 * List.length cells);
  Alcotest.(check int) "no failure" 0 report.failed

let test_benchmark_json () =
  let doc =
    Result.get_ok (Json.parse (In_channel.with_open_bin !benchmark In_channel.input_all))
  in
  let listed key =
    match Json.member key doc with
    | Some (Json.Array l) ->
        List.map
          (fun m ->
            ( Json.get_string (Option.get (Json.member "name" m)),
              Json.get_string (Option.get (Json.member "unit" m)) ))
          l
    | _ -> []
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Report.end_to_end
    (listed "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Report.per_layer
    (listed "per_layer")

let test_stat () =
  Alcotest.(check (float 1e-9)) "median" 2.5 (Stat.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 1e-9)) "geomean" 4. (Stat.geomean [ 2.; 8. ]);
  Alcotest.(check (float 1e-9)) "p90 interpolates" 9.1
    (Stat.quantile (List.init 11 float_of_int) 0.91);
  Alcotest.(check int) "ten beyond p99 of 1000" 10 (Stat.beyond 1000 0.99)

let () =
  let args = ref [] in
  Arg.parse
    [
      ("--fingerprint", Arg.Set_string fingerprint, "PATH");
      ("--benchmark", Arg.Set_string benchmark, "PATH");
    ]
    (fun a -> args := a :: !args)
    "test_e2ebench";
  Alcotest.run ~argv:[| "test_e2ebench" |] "e2ebench"
    [
      ( "inputs",
        [
          Alcotest.test_case "stream repeats per seed" `Quick test_stream_repeats;
          Alcotest.test_case "rebuild counts are exact" `Quick test_rebuild_counts;
        ] );
      ( "counts",
        [
          Alcotest.test_case "words per access repeat" `Quick test_words_repeat;
          Alcotest.test_case "sweep fingerprint" `Quick test_sweep_fingerprint;
        ] );
      ( "contract",
        [
          Alcotest.test_case "BENCHMARK.json lists the metrics" `Quick test_benchmark_json;
          Alcotest.test_case "order statistics" `Quick test_stat;
        ] );
    ]
