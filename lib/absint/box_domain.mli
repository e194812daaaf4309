(** Box (interval vector) abstract domain over networks. *)

type t = Interval.t array

val uniform : dim:int -> lo:float -> hi:float -> t
val of_points : Dpv_tensor.Vec.t array -> t
(** Tightest box containing the given non-empty point set. *)

val contains : t -> Dpv_tensor.Vec.t -> bool

val same_box : t -> t -> bool
(** Bit-for-bit equality: the same dimension and the same bits at every
    bound.  A box equals its copy and a NaN bound equals itself, but
    [-0.] and [0.] differ. *)

val mean_width : t -> float
val sample : Dpv_tensor.Rng.t -> t -> Dpv_tensor.Vec.t
(** Uniform sample; all sides must be finite. *)

val transfer_layer : Dpv_nn.Layer.t -> t -> t
(** Sound image of the box under one layer. *)

val propagate_all : Dpv_nn.Network.t -> t -> t array
(** Boxes at every layer: index [l] over-approximates [f^(l)];
    index 0 is the input box.  Length is [num_layers + 1]. *)
