(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (the "inclusive" method). *)
let quantile xs q =
  match sorted xs with
  | [||] -> nan
  | a ->
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0. xs

(* Samples above the [q] quantile of [n]: the guide for a tail
   percentile is at least ten. *)
let beyond n q = int_of_float (Float.round (float_of_int n *. (1. -. q)))
