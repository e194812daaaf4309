let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  let m = mean xs in
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
  /. float_of_int (Array.length xs)

let std xs = sqrt (variance xs)

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

let quantile xs ~q =
  if Array.length xs = 0 then invalid_arg "Stats.quantile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q out of [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = pos -. float_of_int lo in
  ((1.0 -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let median xs = quantile xs ~q:0.5

let check_rows rows =
  if Array.length rows = 0 then invalid_arg "Stats: no rows";
  let d = Array.length rows.(0) in
  Array.iter
    (fun r -> if Array.length r <> d then invalid_arg "Stats: ragged rows")
    rows;
  d

let columnwise_mean rows =
  let d = check_rows rows in
  let acc = Array.make d 0.0 in
  Array.iter (fun r -> Array.iteri (fun j v -> acc.(j) <- acc.(j) +. v) r) rows;
  Array.map (fun s -> s /. float_of_int (Array.length rows)) acc

let columnwise_std rows =
  let d = check_rows rows in
  let mu = columnwise_mean rows in
  let acc = Array.make d 0.0 in
  Array.iter
    (fun r ->
      Array.iteri (fun j v -> acc.(j) <- acc.(j) +. ((v -. mu.(j)) ** 2.0)) r)
    rows;
  Array.map (fun s -> sqrt (s /. float_of_int (Array.length rows))) acc

let columnwise_min_max rows =
  let d = check_rows rows in
  let out = Array.init d (fun j -> (rows.(0).(j), rows.(0).(j))) in
  Array.iter
    (fun r ->
      Array.iteri
        (fun j v ->
          let lo, hi = out.(j) in
          out.(j) <- (Float.min lo v, Float.max hi v))
        r)
    rows;
  out

let binomial_confidence ~successes ~trials ~z =
  if trials <= 0 then invalid_arg "Stats.binomial_confidence: trials <= 0";
  let n = float_of_int trials in
  let p = float_of_int successes /. n in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. n) in
  let center = (p +. (z2 /. (2.0 *. n))) /. denom in
  let half =
    z *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n))) /. denom
  in
  (Float.max 0.0 (center -. half), Float.min 1.0 (center +. half))

let histogram xs ~bins ~lo ~hi =
  if bins <= 0 then invalid_arg "Stats.histogram: bins <= 0";
  if hi <= lo then invalid_arg "Stats.histogram: hi <= lo";
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun x ->
      if x >= lo && x <= hi then begin
        let b = Stdlib.min (bins - 1) (int_of_float ((x -. lo) /. width)) in
        counts.(b) <- counts.(b) + 1
      end)
    xs;
  counts
