(* Facts about the host and about processes, read from /proc. *)

let nproc () = Domain.recommended_domain_count ()

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

(* Peak resident set size (VmHWM) of [pid], in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
              float_of_int kb /. 1024.)
      | _ -> None)
    (read_lines path)
  |> Option.value ~default:nan

(* User plus system CPU time of [pid] in seconds (USER_HZ = 100). *)
let cpu_s pid =
  match read_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | line :: _ -> (
      (* The command name may hold spaces; fields resume after ')'. *)
      let rest =
        String.sub line
          (String.rindex line ')' + 2)
          (String.length line - String.rindex line ')' - 2)
      in
      match String.split_on_char ' ' rest with
      | fields when List.length fields > 12 ->
          float_of_string (List.nth fields 11)
          +. float_of_string (List.nth fields 12)
          |> fun ticks -> ticks /. 100.
      | _ -> nan)
  | [] -> nan

let now_ns = Gc_prof.Clock.now_ns
let s_of_ns ns = float_of_int ns /. 1e9

(* [after s sub]: the part of [s] following the first [sub], if any. *)
let after s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some (String.sub s (i + m) (n - i - m))
    else go (i + 1)
  in
  go 0
