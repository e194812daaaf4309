(** Dense float vectors.

    A [Vec.t] is a plain [float array]; the module collects the vector
    operations used throughout the library so that call sites read as
    linear algebra rather than array plumbing. *)

type t = float array

val create : int -> float -> t
val zeros : int -> t
val ones : int -> t
val init : int -> (int -> float) -> t
val copy : t -> t
val dim : t -> int

val to_list : t -> float list

val add : t -> t -> t
val sub : t -> t -> t

val scale : float -> t -> t
val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val add_in_place : t -> t -> unit
(** [add_in_place x y] performs [x <- x + y]. *)

val dot : t -> t -> float
val norm2 : t -> float
val norm_inf : t -> float

val mean : t -> float
val argmax : t -> int
val argmin : t -> int

val concat : t -> t -> t
val slice : t -> pos:int -> len:int -> t

val approx_equal : ?tol:float -> t -> t -> bool
(** Componentwise comparison with absolute tolerance (default [1e-9]). *)

val pp : Format.formatter -> t -> unit
