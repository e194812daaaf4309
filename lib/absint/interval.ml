type t = { lo : float; hi : float }

let make ~lo ~hi =
  if lo > hi then
    invalid_arg (Printf.sprintf "Interval.make: lo %g > hi %g" lo hi);
  { lo; hi }

let point x = { lo = x; hi = x }
let top = { lo = neg_infinity; hi = infinity }
let of_pair (lo, hi) = make ~lo ~hi
let width i = i.hi -. i.lo
let center i = 0.5 *. (i.lo +. i.hi)
let radius i = 0.5 *. (i.hi -. i.lo)
let contains i x = i.lo <= x && x <= i.hi
let subset a b = b.lo <= a.lo && a.hi <= b.hi

let join a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let meet a b =
  let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let add a b = { lo = a.lo +. b.lo; hi = a.hi +. b.hi }
let sub a b = { lo = a.lo -. b.hi; hi = a.hi -. b.lo }
let neg a = { lo = -.a.hi; hi = -.a.lo }

let scale c a =
  if c >= 0.0 then { lo = c *. a.lo; hi = c *. a.hi }
  else { lo = c *. a.hi; hi = c *. a.lo }

let mul a b =
  let p1 = a.lo *. b.lo and p2 = a.lo *. b.hi in
  let p3 = a.hi *. b.lo and p4 = a.hi *. b.hi in
  {
    lo = Float.min (Float.min p1 p2) (Float.min p3 p4);
    hi = Float.max (Float.max p1 p2) (Float.max p3 p4);
  }

let relu a = { lo = Float.max 0.0 a.lo; hi = Float.max 0.0 a.hi }

let monotone f a = { lo = f a.lo; hi = f a.hi }

let sigmoid = monotone (fun x -> 1.0 /. (1.0 +. exp (-.x)))
let tanh_interval = monotone tanh

let dot coeffs xs =
  if Array.length coeffs <> Array.length xs then
    invalid_arg "Interval.dot: length mismatch";
  let acc = ref (point 0.0) in
  Array.iteri (fun i c -> acc := add !acc (scale c xs.(i))) coeffs;
  !acc

let approx_equal ?(tol = 1e-9) a b =
  Float.abs (a.lo -. b.lo) <= tol && Float.abs (a.hi -. b.hi) <= tol
