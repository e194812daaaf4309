(** Data-driven box over-approximation [S~] of visited neuron values.

    This is the assume-guarantee leg of the paper (Section 2.2): record
    the minimum and maximum of each monitored neuron over the training
    data — e.g. the [-0.1, 0.6] box of Figure 1 — use that box as the
    verification domain, and check at runtime that fresh activations stay
    inside it. *)

type t

val fit : ?margin:float -> Dpv_tensor.Vec.t array -> t
(** Tightest box around the points, each side inflated by
    [margin * max(width, 1)] (default margin 0).  The margin models the
    engineering slack one adds before deployment. *)

val to_box : t -> Dpv_absint.Box_domain.t
val dim : t -> int
val contains : t -> Dpv_tensor.Vec.t -> bool
val violation_margin : t -> Dpv_tensor.Vec.t -> float
(** 0 when inside; otherwise the largest per-coordinate distance to the
    box (how badly the assumption is violated). *)

val widen : t -> Dpv_tensor.Vec.t -> t
(** Smallest enclosing box of the box and the point (for incremental
    fitting). *)
