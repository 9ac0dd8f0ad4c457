(* What one run prints: metric lines for people, then the result line
   (the last line of standard output) for tools. *)

module Json = Gc_obs.Json

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (* newest first *)
}

let create () = { attempted = 0; failed = 0; metrics = [] }

(* One operation: a grid-cell simulation, a request, or a fingerprint
   comparison.  Failures are described on standard error. *)
let op t ok ~what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 20 then prerr_endline ("e2ebench: FAILED " ^ what ())
  end

let metric t name value unit = t.metrics <- (name, value, unit) :: t.metrics

(* Every metric a run prints, by name and unit, in print order: the
   end-to-end ones with --trace 0, the per-layer ones with --trace 1.
   BENCHMARK.json lists the same (checked by the benchmark's tests). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("accesses_per_s", "1/s");
    ("audited_accesses_per_s", "1/s");
    ("rps", "1/s");
    ("p50_ms", "ms");
    ("tail_ms", "ms");
  ]

(* Per-layer metrics of the request path and of tracing itself. *)
let path =
  [
    ("trace_build_us", "us");
    ("trace.builds", "count");
    ("trace.rebuild_ratio", "ratio");
    ("dispatch_us", "us");
    ("pool_noop_us", "us");
    ("server.cpu_ms_per_request", "ms");
    ("decode_us", "us");
    ("encode_us", "us");
    ("reply_us", "us");
    ("queue_wait_us", "us");
    ("server.shed", "count");
    ("client.retries", "count");
    ("simulate_us", "us");
    ("client_socket_us", "us");
    ("traced.ops", "count");
    ("trace_overhead.p50_ms", "ratio");
    ("trace_overhead.accesses_per_s", "ratio");
  ]

let per_layer = Layers.names @ path

let note fmt = Printf.printf (fmt ^^ "\n%!")

let result_json t =
  Json.Obj
    [
      ("correct", Json.Bool (t.failed = 0));
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ( "metrics",
        Json.Obj
          (List.rev_map
             (fun (name, v, unit) ->
               (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
             t.metrics) );
    ]

(* A run that printed other metrics than it promised fails. *)
let print t ~expected =
  op t
    (List.rev_map (fun (n, _, u) -> (n, u)) t.metrics = expected)
    ~what:(fun () -> "the metrics printed are not the metrics listed");
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-38s %16.4f %s\n" name v unit)
    (List.rev t.metrics);
  print_endline (Json.to_string (result_json t))
