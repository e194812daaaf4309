(** Dense row-major matrices. *)

type t

val create : rows:int -> cols:int -> float -> t
val zeros : rows:int -> cols:int -> t
val identity : int -> t
val init : rows:int -> cols:int -> (int -> int -> float) -> t
val of_rows : float array array -> t
(** Rows must be non-empty and rectangular. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val row : t -> int -> Vec.t
val to_rows : t -> float array array

val transpose : t -> t
val add : t -> t -> t
val matvec : t -> Vec.t -> Vec.t
(** [matvec m x] is [m * x]; [x] must have [cols m] entries. *)

val matvec_t : t -> Vec.t -> Vec.t
(** [matvec_t m x] is [mᵀ * x]; [x] must have [rows m] entries. *)

(** {2 In-place kernels}

    Each computes what its allocating counterpart computes, bit for bit,
    into storage the caller owns. *)

val matvec_into : t -> Vec.t -> Vec.t -> unit
(** [matvec_into m x out] writes [m * x] to the first [rows m] entries of
    [out]. *)

val matvec_t_into : t -> Vec.t -> Vec.t -> unit
(** [matvec_t_into m x out] writes [mᵀ * x] to the first [cols m] entries
    of [out]. *)

val add_outer : t -> Vec.t -> Vec.t -> unit
(** [add_outer m x y] performs [m <- m + x yᵀ], one product per entry. *)

val add_in_place : t -> t -> unit
(** [add_in_place a b] performs [a <- a + b]. *)

val scale_in_place : float -> t -> unit
(** [scale_in_place c m] performs [m <- c * m]. *)

val fill : t -> float -> unit
(** [fill m x] sets every entry to [x]. *)

val data : t -> float array
(** The row-major storage itself, not a copy: entry [(i, j)] is at
    [i * cols m + j].  For kernels that treat a matrix as a flat
    array. *)

val matmul : t -> t -> t
val outer : Vec.t -> Vec.t -> t
(** [outer x y] is the rank-1 matrix [x yᵀ]. *)

val approx_equal : ?tol:float -> t -> t -> bool
