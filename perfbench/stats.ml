(* Order statistics shared by the runner and the comparator.

   Quartiles follow Python's [statistics.quantiles(values, n=4)] (its
   default "exclusive" method), so a spread printed here is the spread any
   reader recomputes from the samples a result file records. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* (q1, median, q3); a single sample is its own quartiles *)
let quartiles l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median l =
  let _, m, _ = quartiles l in
  m

(* interquartile range as a share of the median *)
let rel_spread l =
  let q1, m, q3 = quartiles l in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* The highest of p50/p90/p99/p99.9 with at least ten samples beyond it
   (nearest rank), as (label, value); [None] below 20 samples. *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  let rank p = min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1) in
  List.fold_left
    (fun acc (label, p) ->
      if float_of_int n *. (1. -. p) >= 10. then Some (label, a.(max 0 (rank p)))
      else acc)
    None
    [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p99.9", 0.999) ]

let sum l = List.fold_left ( +. ) 0. l
