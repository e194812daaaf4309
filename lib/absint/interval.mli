(** Closed real intervals for sound bound propagation. *)

type t = { lo : float; hi : float }

val make : lo:float -> hi:float -> t
(** Requires [lo <= hi]. *)

val point : float -> t
val top : t
(** [(-inf, +inf)]. *)

val of_pair : float * float -> t
val width : t -> float
val center : t -> float
val radius : t -> float
val contains : t -> float -> bool
val subset : t -> t -> bool
(** [subset a b] is true when [a ⊆ b]. *)

val join : t -> t -> t
val meet : t -> t -> t option
(** [None] when the intersection is empty. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val mul : t -> t -> t
val relu : t -> t
val monotone : (float -> float) -> t -> t
(** Image under a monotonically non-decreasing function. *)

val sigmoid : t -> t
val tanh_interval : t -> t

val dot : float array -> t array -> t
(** Interval dot product [sum_i c_i * x_i]. *)

val approx_equal : ?tol:float -> t -> t -> bool
