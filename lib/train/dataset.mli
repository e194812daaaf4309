(** In-memory supervised datasets. *)

type t = {
  inputs : Dpv_tensor.Vec.t array;
  targets : Dpv_tensor.Vec.t array;
}

val create :
  inputs:Dpv_tensor.Vec.t array -> targets:Dpv_tensor.Vec.t array -> t
(** Lengths must match and be non-zero; dimensions must be homogeneous. *)

val size : t -> int
val input_dim : t -> int
val target_dim : t -> int

val of_labelled : (Dpv_tensor.Vec.t * float) array -> t
(** Binary-classification convenience: scalar labels become 1-dim targets. *)

val split : Dpv_tensor.Rng.t -> t -> train_fraction:float -> t * t
(** Shuffled split; both sides are non-empty (train fraction is clamped). *)

val shuffle : Dpv_tensor.Rng.t -> t -> t

val batches : t -> batch_size:int -> (Dpv_tensor.Vec.t * Dpv_tensor.Vec.t) array array
(** Consecutive mini-batches covering the whole set (last may be short). *)

val class_balance : t -> float
(** For 1-dim 0/1 targets: fraction of positive examples. *)
