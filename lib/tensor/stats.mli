(** Summary statistics over float samples and sample matrices. *)

val mean : float array -> float
val std : float array -> float
(** Population standard deviation (divides by [n]). *)

val min_max : float array -> float * float
val median : float array -> float
val quantile : float array -> q:float -> float
(** Linear-interpolation quantile, [q] in [0,1]. *)

val columnwise_mean : float array array -> float array
(** Mean of each coordinate over a non-empty list of equally-sized rows. *)

val columnwise_std : float array array -> float array
val columnwise_min_max : float array array -> (float * float) array

val binomial_confidence : successes:int -> trials:int -> z:float -> float * float
(** Wilson score interval for a proportion. *)

val histogram : float array -> bins:int -> lo:float -> hi:float -> int array
