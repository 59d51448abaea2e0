(* Order statistics over timing samples. *)

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q samples =
  match List.sort compare samples with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

(* "median UNIT [q1 .., q3 ..] (n=N)" *)
let describe unit samples =
  Printf.sprintf "%.6g %s [q1 %.6g, q3 %.6g] (n=%d)" (median samples) unit
    (quantile 0.25 samples) (quantile 0.75 samples) (List.length samples)
