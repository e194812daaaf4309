(** Deterministic, splittable pseudo-random number generator.

    Every stochastic component of the library (weight initialization, data
    generation, training shuffles) draws from an explicit [Rng.t] so that
    experiments are reproducible bit-for-bit.  The generator is a 64-bit
    SplitMix64 stream: cheap, good statistical quality for simulation
    purposes, and trivially splittable. *)

type t

val create : int -> t
(** [create seed] builds a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform draw in [lo, hi). *)

val gaussian : t -> float
(** Standard normal draw (Box-Muller). *)

val gaussian_scaled : t -> mean:float -> std:float -> float

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is true with probability [p]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
