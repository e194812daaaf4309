module Vec = Dpv_tensor.Vec

type t = Mse | Bce_with_logits

let check_dims output target =
  if Vec.dim output <> Vec.dim target then
    invalid_arg "Loss: output/target dimension mismatch"

let sigmoid z = 1.0 /. (1.0 +. exp (-.z))

(* Stable BCE on a logit z with target c in {0,1}:
   max(z,0) - z*c + log(1 + exp(-|z|)). *)
let bce_scalar z c =
  Float.max z 0.0 -. (z *. c) +. log (1.0 +. exp (-.Float.abs z))

let value loss ~output ~target =
  check_dims output target;
  match loss with
  | Mse ->
      0.5
      *. Array.fold_left ( +. ) 0.0
           (Array.mapi (fun i y -> (y -. target.(i)) ** 2.0) output)
  | Bce_with_logits ->
      Array.fold_left ( +. ) 0.0
        (Array.mapi (fun i z -> bce_scalar z target.(i)) output)

let gradient loss ~output ~target =
  check_dims output target;
  match loss with
  | Mse -> Vec.sub output target
  | Bce_with_logits ->
      Array.mapi (fun i z -> sigmoid z -. target.(i)) output
