(** Linear expressions over a network's output coordinates. *)

type t = { terms : (float * int) list; const : float }
(** [sum_i c_i * out_i + const]; indices refer to output dimensions. *)

val output : int -> t
(** The expression [out_i]. *)

val const : float -> t
val scale : float -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val ( * ) : float -> t -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t

val eval : t -> Dpv_tensor.Vec.t -> float
val max_output_index : t -> int
(** Largest output index mentioned; [-1] for constants. *)

val normalized_terms : t -> (float * int) list
(** Terms merged by index, ascending, zero coefficients dropped. *)
