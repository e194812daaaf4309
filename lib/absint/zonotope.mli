(** Zonotope abstract domain (affine forms).

    A zonotope is [{ c + G e | e in [-1,1]^k }]: a center plus noise-symbol
    generators.  Affine layers act exactly; ReLU uses the minimal-area
    parallelogram abstraction (DeepZ); sigmoid/tanh fall back to a sound
    per-dimension interval enclosure with a fresh generator.

    Zonotopes track linear correlations between neurons that the box
    domain loses, so downstream bounds are tighter — this is the second
    abstract domain named by the paper. *)

type t

val of_box : Box_domain.t -> t
(** One independent generator per dimension (sides must be finite). *)

val to_box : t -> Box_domain.t
(** Tightest per-dimension interval enclosure. *)

val transfer_layer : Dpv_nn.Layer.t -> t -> t
val propagate_all : Dpv_nn.Network.t -> t -> Box_domain.t array
(** Interval enclosures at every layer (index 0 = input), computed with
    zonotope precision internally. *)
