(** Template (octagon-direction) outer polyhedra over visited values.

    The paper's "outer polyhedron that aggregates all visited neuron
    values": for every template direction [t] the polyhedron stores
    [max_data <t, x>], so the data set is contained by construction.  The
    octagon template uses the axis directions ([+/- x_i]) plus all
    pairwise sums and differences ([+/- x_i +/- x_j]), which is strictly
    tighter than the box while remaining a set of linear constraints that
    drops straight into the MILP encoding. *)

type halfspace = { direction : (int * float) list; bound : float }
(** [<direction, x> <= bound]; [direction] is sparse (index, coeff). *)

type t

val fit_octagon : ?margin:float -> Dpv_tensor.Vec.t array -> t
(** Tightest octagon-template polyhedron around the points; every face
    pushed out by [margin] (default 0). *)

val fit_box : ?margin:float -> Dpv_tensor.Vec.t array -> t
(** Axis directions only (equivalent to {!Box_monitor}). *)

val of_halfspaces : dim:int -> halfspace list -> t
(** Rebuild a polyhedron from stored faces (e.g. out of a certificate).
    Face directions must only mention coordinates below [dim]. *)

val dim : t -> int
val halfspaces : t -> halfspace list
val num_faces : t -> int
val prune_redundant : ?slack:float -> t -> t
(** Drop every face already implied (within [slack], default 1e-7) by the
    axis faces alone — i.e. pairwise faces whose bound is at least the
    box-corner value.  Cuts the face count dramatically in high dimension
    when most coordinate pairs are uncorrelated, which matters because
    each face becomes one LP row in the MILP encoding.  The represented
    set only grows by at most [slack] per dropped face, so soundness of
    any proof over the pruned polyhedron is preserved. *)

val contains : ?tol:float -> t -> Dpv_tensor.Vec.t -> bool
val violation_margin : t -> Dpv_tensor.Vec.t -> float
val bounding_box : t -> Dpv_absint.Box_domain.t
(** Per-dimension interval enclosure implied by the axis faces. *)
