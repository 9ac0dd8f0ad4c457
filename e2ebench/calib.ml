(* Host speed, measured with code that is not the program's: an LRU
   cache over Stdlib [Hashtbl] and index-linked arrays, fed a fixed
   pseudo-random stream.  Its mix of hashing, pointer chasing and small
   allocations is that of the policies under test, so a host that runs
   it 10% slower runs them about 10% slower too; no change to the
   program can move it. *)

let k = 256
let universe = 2048
let ops = 200_000

let run () =
  let table : (int, int) Hashtbl.t = Hashtbl.create (2 * k) in
  let keys = Array.make k 0 in
  let prev = Array.make k (-1) and next = Array.make k (-1) in
  let head = ref (-1) and tail = ref (-1) and size = ref 0 in
  let unlink s =
    (if prev.(s) >= 0 then next.(prev.(s)) <- next.(s) else head := next.(s));
    if next.(s) >= 0 then prev.(next.(s)) <- prev.(s) else tail := prev.(s)
  in
  let push s =
    prev.(s) <- -1;
    next.(s) <- !head;
    if !head >= 0 then prev.(!head) <- s else tail := s;
    head := s
  in
  let x = ref 12345 and hits = ref 0 in
  for _ = 1 to ops do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let item = (!x lsr 8) mod universe in
    (* The policies allocate an outcome and a list per access, and more
       on a miss. *)
    ignore (Sys.opaque_identity [ (item, !hits); (item + 1, !size) ]);
    match Hashtbl.find_opt table item with
    | Some s ->
        incr hits;
        unlink s;
        push s
    | None ->
        let s =
          if !size < k then begin
            incr size;
            !size - 1
          end
          else begin
            let s = !tail in
            unlink s;
            Hashtbl.remove table keys.(s);
            s
          end
        in
        keys.(s) <- item;
        Hashtbl.replace table item s;
        push s;
        ignore (Sys.opaque_identity [ (item, s) ])
  done;
  !hits

(* Seconds for one pass. *)
let time () =
  let t0 = Host.now_ns () in
  ignore (Sys.opaque_identity (run ()));
  Host.s_of_ns (Host.now_ns () - t0)

(* The median pass time on the host the committed figures were first
   taken on (2 vCPUs, OCaml 5.1.1). *)
let reference_s = 0.025

(* How much faster than the reference host this run's host was, from
   the median of its calibration passes.  The sweep multiplies its times
   by this (and divides its rates by it): the host's speed drifts by
   +-20% over tens of seconds, and a figure per run is only comparable
   across runs once that drift is taken out. *)
let speed median_pass_s = reference_s /. median_pass_s
