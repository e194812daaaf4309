(** Training losses.

    A loss pairs the scalar value with its gradient w.r.t. the network
    output, which is what backpropagation consumes. *)

type t =
  | Mse  (** [0.5 * ||y - target||^2], for regression heads. *)
  | Bce_with_logits
      (** Numerically-stable binary cross-entropy on a 1-dim logit output;
          targets must be 0 or 1.  This is the loss for the input property
          characterizer. *)

val value : t -> output:Dpv_tensor.Vec.t -> target:Dpv_tensor.Vec.t -> float

val gradient :
  t -> output:Dpv_tensor.Vec.t -> target:Dpv_tensor.Vec.t -> Dpv_tensor.Vec.t
(** Gradient of the loss w.r.t. [output]. *)
