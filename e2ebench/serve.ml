(* The serve workloads: a real [gcserved serve] child, loaded in a closed
   loop through [Gc_resil.Resilient_client], each reply checked against
   an in-process run of the same request. *)

module Json = Gc_obs.Json
module P = Gc_serve.Protocol
module Client = Gc_serve.Client
module RC = Gc_resil.Resilient_client

(* ------------------------------------------------------------ server *)

type server = {
  pid : int;
  addr : Client.addr;
  socket : string;
  log : string;
  setup_ns : int;  (* spawn until the first health reply *)
}

let remove path = try Sys.remove path with Sys_error _ -> ()

let health_ok addr =
  match Client.connect_result ~timeout:1. addr with
  | Error _ -> false
  | Ok c ->
      let ok =
        match Client.send_result c (Json.Obj [ ("op", Json.String "health") ]) with
        | Error _ -> false
        | Ok () -> (
            match Client.recv_result ~timeout:1. c with
            | Ok j -> (
                match P.reply_of_json j with
                | Ok (_, P.Ok_result _) -> true
                | _ -> false)
            | Error _ -> false)
      in
      Client.close c;
      ok

(* Servers not yet stopped.  Whatever ends the benchmark, none of them
   outlives it. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~exe ~dir ~tag ?trace () =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let log = Filename.concat dir (tag ^ ".log") in
  remove socket;
  Option.iter remove trace;
  let args =
    [ exe; "serve"; "--socket"; socket ]
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Host.now_ns () in
  let pid = Unix.create_process exe (Array.of_list args) null out out in
  live := pid :: !live;
  Unix.close out;
  Unix.close null;
  let addr = Client.Unix_path socket in
  let give_up = t0 + 30_000_000_000 in
  while (not (health_ok addr)) && Host.now_ns () < give_up do
    Gc_exec.Pool.nap 0.0005
  done;
  let setup_ns = Host.now_ns () - t0 in
  if Host.now_ns () >= give_up then failwith ("gcserved did not come up; see " ^ log);
  { pid; addr; socket; log; setup_ns }

(* The worker count the server announced on start-up. *)
let workers s =
  List.find_map
    (fun line ->
      match Host.after line "(workers " with
      | Some rest -> Scanf.sscanf_opt rest "%d" Fun.id
      | None -> None)
    (Host.read_lines s.log)
  |> Option.value ~default:(-1)

(* SIGTERM, then wait for the drain; a server that will not drain within
   30 s is killed.  Returns whether it exited 0. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let give_up = Host.now_ns () + 30_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Host.now_ns () < give_up ->
        Gc_exec.Pool.nap 0.002;
        wait ()
    | 0, _ ->
        Unix.kill s.pid Sys.sigkill;
        ignore (Unix.waitpid [] s.pid);
        false
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
  in
  let ok = wait () in
  live := List.filter (fun p -> p <> s.pid) !live;
  remove s.socket;
  ok

let stats s =
  match Client.connect_result s.addr with
  | Error _ -> None
  | Ok c ->
      let r =
        match Client.send_result c (Json.Obj [ ("op", Json.String "stats") ]) with
        | Error _ -> None
        | Ok () -> (
            match Client.recv_result c with
            | Ok j -> (
                match P.reply_of_json j with
                | Ok (_, P.Ok_result r) -> Some r
                | _ -> None)
            | Error _ -> None)
      in
      Client.close c;
      r

(* A counter from the stats op's registry snapshot. *)
let counter stats name =
  match Option.bind stats (Json.member "metrics") with
  | Some (Json.Array entries) ->
      List.find_map
        (fun e ->
          match (Json.member "name" e, Json.member "value" e) with
          | Some (Json.String n), Some (Json.Int v) when n = name -> Some v
          | _ -> None)
        entries
  | _ -> None

(* -------------------------------------------------------------- load *)

type outcome = {
  idx : int;
  op : P.op;
  latency_ns : int;
  reply : (Json.t, string) result;  (* the result payload, or why not *)
  clean : bool;  (* no retry and no reconnect *)
}

let classify = function
  | Error f -> Error (RC.string_of_failure f)
  | Ok json -> (
      match P.reply_of_json json with
      | Ok (_, P.Ok_result r) -> Ok r
      | Ok (_, P.Err (kind, msg)) -> Error (kind ^ ": " ^ msg)
      | Error e -> Error e)

type stop = Count of int | Until of int

(* A closed loop: [conns] threads, each with its own resilient client,
   send the stream's requests one at a time, taking the next index
   (from [first] on) from a shared counter.  Returns the outcomes, the
   wall time, and the retries summed over clients. *)
let run_load ~addr ~conns ~first ~stop ~request =
  let next = Atomic.make first in
  let mu = Mutex.create () in
  let outcomes = ref [] in
  let retries = Atomic.make 0 in
  let worker tid =
    let client = RC.create ~seed:tid addr in
    (* The next index to send, if any.  Under a deadline an index is
       taken only once the deadline is checked, so the indices sent run
       from [first] without a gap and the next load can start after
       them. *)
    let take () =
      match stop with
      | Until deadline ->
          if Host.now_ns () < deadline then Some (Atomic.fetch_and_add next 1)
          else None
      | Count n ->
          let i = Atomic.fetch_and_add next 1 in
          if i < first + n then Some i else None
    in
    let rec loop () =
      match take () with
      | None -> ()
      | Some i ->
          let req : P.request = request i in
          let json = P.request_to_json req in
          let r0 = RC.retries client and c0 = RC.reconnects client in
          let t0 = Host.now_ns () in
          let res =
            Gc_prof.Span.with_
              ~args:[ ("id", Printf.sprintf "r%d" i) ]
              ~tid "Resilient_client.request"
              (fun () -> RC.request client json)
          in
          let latency_ns = Host.now_ns () - t0 in
          let clean = RC.retries client = r0 && RC.reconnects client = c0 in
          let o = { idx = i; op = req.op; latency_ns; reply = classify res; clean } in
          Mutex.lock mu;
          outcomes := o :: !outcomes;
          Mutex.unlock mu;
          loop ()
    in
    loop ();
    ignore (Atomic.fetch_and_add retries (RC.retries client));
    RC.close client
  in
  let t0 = Host.now_ns () in
  let threads = List.init conns (fun tid -> Thread.create worker (tid + 1)) in
  List.iter Thread.join threads;
  let wall_ns = Host.now_ns () - t0 in
  ( List.sort (fun a b -> compare a.idx b.idx) !outcomes,
    wall_ns,
    Atomic.get retries )

(* ------------------------------------------------------ verification *)

(* What the server must have answered, from an in-process
   [Obs_run.run_policy_result] of the same request.  Traces and answers
   are memoised: the sweep stream repeats both. *)
type oracle = {
  traces : (P.workload * int, Gc_trace.Trace.t) Hashtbl.t;
  answers : (string, Json.t) Hashtbl.t;
}

let oracle () = { traces = Hashtbl.create 16; answers = Hashtbl.create 256 }

let trace o (w : P.workload) seed =
  match Hashtbl.find_opt o.traces (w, seed) with
  | Some t -> t
  | None ->
      let t =
        Gc_prof.Span.with_ "Workload_suite.build" (fun () ->
            Gc_trace.Workload_suite.build ~seed ~n:w.n ~universe:w.universe
              ~block_size:w.block_size w.workload)
        |> Result.get_ok
      in
      (* Unique-seed streams never hit the memo; do not let them grow it. *)
      if Hashtbl.length o.traces < 64 then Hashtbl.replace o.traces (w, seed) t;
      t

let run_policy ~check ~k ~seed policy t =
  Gc_prof.Span.with_ "Obs_run.run_policy_result" (fun () ->
      Gc_cache.Obs_run.run_policy_result ~check ~k ~seed policy t)

let compute o op =
  match op with
  | P.Sim s -> (
      match run_policy ~check:s.check ~k:s.k ~seed:s.seed s.policy (trace o s.load s.seed) with
      | Ok r -> Json.Obj [ ("metrics", Gc_cache.Metrics.to_json r.metrics) ]
      | Error f -> Json.String f.kind)
  | P.Miss_curve c ->
      let t = trace o c.curve_load c.curve_seed in
      Json.Obj
        [
          ( "curve",
            Json.Array
              (List.map
                 (fun k ->
                   match run_policy ~check:false ~k ~seed:c.curve_seed c.curve_policy t with
                   | Ok r ->
                       let m = r.metrics in
                       Json.Obj
                         [
                           ("k", Json.Int k);
                           ("misses", Json.Int m.misses);
                           ("miss_rate", Json.Float (Gc_cache.Metrics.miss_rate m));
                         ]
                   | Error f -> Json.String f.kind)
                 c.ks) );
        ]
  | P.Health | P.Stats -> Json.Null

let expected o op =
  let key = Json.to_string (P.request_to_json { P.id = None; op; budget_ms = None }) in
  match Hashtbl.find_opt o.answers key with
  | Some j -> j
  | None ->
      let j = compute o op in
      if Hashtbl.length o.answers < 4096 then Hashtbl.replace o.answers key j;
      j

let field name = function
  | Json.Obj _ as j -> Option.map Json.to_string (Json.member name j)
  | _ -> None

(* Every outcome is one operation: it fails on an error reply, a
   transport failure, a retry or reconnect, or an answer that differs
   from the in-process one. *)
let verify report o outcomes =
  List.iter
    (fun r ->
      let what () = Printf.sprintf "request r%d" r.idx in
      match r.reply with
      | Error e -> Report.op report false ~what:(fun () -> what () ^ ": " ^ e)
      | Ok got ->
          let want = expected o r.op in
          let name = match r.op with P.Miss_curve _ -> "curve" | _ -> "metrics" in
          let same = field name got <> None && field name got = field name want in
          Report.op report (same && r.clean) ~what:(fun () ->
              if same then what () ^ ": needed a retry or reconnect"
              else what () ^ ": reply differs from the in-process run"))
    outcomes

(* ----------------------------------------------------- server spans *)

type span = { name : string; ts : float; dur : float; id : string option }
(* microseconds *)

let read_trace path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> failwith (path ^ ": " ^ Json.string_of_parse_error e)
  | Ok doc ->
      let events =
        match Json.member "traceEvents" doc with Some (Json.Array l) -> l | _ -> []
      in
      List.filter_map
        (fun e ->
          match (Json.member "name" e, Json.member "ts" e, Json.member "dur" e) with
          | Some (Json.String name), Some ts, Some dur ->
              let id =
                match Option.bind (Json.member "args" e) (Json.member "id") with
                | Some (Json.String s) -> Json.parse s |> Result.to_option |> Option.map (function Json.String s -> s | j -> Json.to_string j)
                | _ -> None
              in
              Some { name; ts = Json.get_float ts; dur = Json.get_float dur; id }
          | _ -> None)
        events

(* Self times of one served request, in microseconds. *)
type breakdown = {
  decode : float;
  queue_wait : float;
  dispatch : float;  (* execute minus the pool attempt *)
  trace_build : float;  (* attempt minus the simulations *)
  simulate : float;
  encode : float;
  reply : float;
  client_socket : float;  (* client latency minus all server spans *)
}

let breakdowns spans outcomes =
  let by_id = Hashtbl.create 1024 in
  let attempts = ref [] and sims = ref [] in
  List.iter
    (fun s ->
      match (s.name, s.id) with
      | "pool.attempt", _ -> attempts := s :: !attempts
      | "run_policy", _ -> sims := s :: !sims
      | _, Some id -> Hashtbl.add by_id (id, s.name) s
      | _, None -> ())
    spans;
  let within outer l =
    List.filter (fun s -> s.ts >= outer.ts && s.ts +. s.dur <= outer.ts +. outer.dur) l
  in
  List.filter_map
    (fun r ->
      let id = Printf.sprintf "r%d" r.idx in
      let one name = Hashtbl.find_opt by_id (id, name) in
      match
        ( one "decode", one "queue-wait", one "execute", one "encode", one "reply" )
      with
      | Some d, Some q, Some x, Some e, Some w -> (
          match within x !attempts with
          | [ a ] ->
              let sim = Stat.sum (List.map (fun s -> s.dur) (within a !sims)) in
              let server = d.dur +. q.dur +. x.dur +. e.dur +. w.dur in
              Some
                {
                  decode = d.dur;
                  queue_wait = q.dur;
                  dispatch = x.dur -. a.dur;
                  trace_build = a.dur -. sim;
                  simulate = sim;
                  encode = e.dur;
                  reply = w.dur;
                  client_socket = (float_of_int r.latency_ns /. 1e3) -. server;
                }
          | _ -> None)
      | _ -> None)
    outcomes
