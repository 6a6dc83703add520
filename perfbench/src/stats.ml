(* Order statistics over repeated measurements. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no values"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The three cut points of Python's [statistics.quantiles(xs, n=4)] (its
   default "exclusive" method), so in-run spreads read the same as the
   acceptance arithmetic applied to whole runs. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = n + 1 in
  let cut i =
    let j = max 1 (min (i * m / 4) (n - 1)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (cut 1, cut 2, cut 3)

(* The first quartile; a single value is its own. *)
let lower_quartile = function
  | [ x ] -> x
  | xs ->
      let q1, _, _ = quartiles xs in
      q1

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. median xs

(* Linear-interpolation percentile of a float array, [p] in [0, 100]. Sorts
   the array in place. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort Float.compare a;
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate rank in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end
