(* Order statistics for the scenario benchmark. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

(* Linear interpolation between closest ranks (numpy's default): the
   rule used for per-op percentiles inside one run. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = float_of_int (n - 1) *. p in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 0.5

(* The median, over consecutive stretches of at least 100 samples (at
   most ten stretches), of each stretch's [p] percentile. [xs] is in
   time order. A burst of interference from outside the process then
   moves the few stretches it falls in, not the result; with fewer
   than 200 samples this is the plain percentile. *)
let windowed_percentile xs p =
  let a = Array.of_list xs in
  let n = Array.length a in
  let k = max 1 (min 10 (n / 100)) in
  median
    (List.init k (fun w ->
         let lo = w * n / k and hi = (w + 1) * n / k in
         percentile (Array.to_list (Array.sub a lo (hi - lo))) p))

(* A tail percentile is trusted only with at least ten samples beyond
   it. *)
let supports ~n p = float_of_int n *. (1.0 -. p) >= 10.0 -. 1e-9

let highest_supported n =
  List.fold_left
    (fun acc p -> if supports ~n p then Some p else acc)
    None [ 0.5; 0.9; 0.95; 0.99; 0.999 ]

(* The sample count printed beside a run's p50 and p95. *)
let sample_note n =
  match highest_supported n with
  | Some p when p >= 0.95 -> Printf.sprintf "%d samples, p95 has >=10 beyond it" n
  | Some p ->
      Printf.sprintf "%d samples, p95 has <10 beyond it (highest with 10: p%g)" n (100.0 *. p)
  | None -> Printf.sprintf "%d samples, too few for any percentile with 10 beyond it" n

(* Python's [statistics.quantiles(xs, n=4)] (the "exclusive" method):
   the quartiles used to judge run-to-run spread across runs. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* Quartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Base runs [a] against candidate runs [b] for one metric whose
   regression bound is [bound] (a share of [a]'s median). [Better] needs
   the candidate to win nine tenths of all (a, b) pairs and to move the
   median by more than the base's own quartile spread; [Worse] is a
   median move beyond the bound while both spreads fit inside it; a
   spread wider than the bound leaves the metric [Unresolved] unless
   every candidate run beats every base run. Fewer than three runs on
   a side give no spread to judge by, so they are [Unresolved] too. *)
let verdict ~lower_is_better ~bound a b =
  let gain x y = if lower_is_better then x -. y else y -. x in
  let ma = median a and mb = median b in
  let rel = if ma = 0.0 then 0.0 else gain ma mb /. Float.abs ma in
  let pairs = List.length a * List.length b in
  let wins =
    List.fold_left
      (fun acc x ->
        List.fold_left (fun acc y -> if gain x y > 0.0 then acc + 1 else acc) acc b)
      0 a
  in
  let wide = spread a > bound || spread b > bound in
  if List.length a < 3 || List.length b < 3 then Unresolved
  else if
    wins = pairs || (float_of_int wins >= 0.9 *. float_of_int pairs && rel > spread a && not wide)
  then Better
  else if wide then Unresolved
  else if -.rel > bound then Worse
  else Same
