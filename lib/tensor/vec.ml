type t = float array

let create n x = Array.make n x
let zeros n = Array.make n 0.0
let ones n = Array.make n 1.0
let init = Array.init
let copy = Array.copy
let dim = Array.length
let to_list = Array.to_list

let check_same_dim x y =
  if Array.length x <> Array.length y then
    invalid_arg
      (Printf.sprintf "Vec: dimension mismatch (%d vs %d)" (Array.length x)
         (Array.length y))

let add x y =
  check_same_dim x y;
  Array.init (Array.length x) (fun i -> x.(i) +. y.(i))

let sub x y =
  check_same_dim x y;
  Array.init (Array.length x) (fun i -> x.(i) -. y.(i))

let scale a x = Array.map (fun v -> a *. v) x

let axpy a x y =
  check_same_dim x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let add_in_place x y =
  check_same_dim x y;
  for i = 0 to Array.length x - 1 do
    x.(i) <- x.(i) +. y.(i)
  done

let dot x y =
  check_same_dim x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

let norm_inf x = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 x

let sum x = Array.fold_left ( +. ) 0.0 x

let mean x =
  if Array.length x = 0 then invalid_arg "Vec.mean: empty vector";
  sum x /. float_of_int (Array.length x)

let argmax x =
  if Array.length x = 0 then invalid_arg "Vec.argmax: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if x.(i) > x.(!best) then best := i
  done;
  !best

let argmin x =
  if Array.length x = 0 then invalid_arg "Vec.argmin: empty vector";
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if x.(i) < x.(!best) then best := i
  done;
  !best

let concat = Array.append

let slice x ~pos ~len = Array.sub x pos len

let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  for i = 0 to Array.length x - 1 do
    if Float.abs (x.(i) -. y.(i)) > tol then ok := false
  done;
  !ok

let pp fmt x =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
       (fun fmt v -> Format.fprintf fmt "%g" v))
    (Array.to_list x)
