(** Risk conditions [psi]: conjunctions of linear inequalities over the
    network output (Definition 1 of the paper).  A network is *unsafe*
    under [(phi, psi)] when some input satisfying [phi] drives the output
    into [psi]; verification asks for a proof that this cannot happen. *)

type inequality = { expr : Linexpr.t; rel : [ `Le | `Ge ]; bound : float }

type t = { name : string; inequalities : inequality list }

val make : name:string -> inequality list -> t
val ( <=. ) : Linexpr.t -> float -> inequality
val ( >=. ) : Linexpr.t -> float -> inequality

val output_le : int -> float -> inequality
(** [out_i <= c]. *)

val output_ge : int -> float -> inequality

val output_in_band : int -> lo:float -> hi:float -> inequality list
(** [lo <= out_i <= hi] as two inequalities. *)

val of_string : string -> (t, string) Stdlib.result
(** Parse a conjunction of linear inequalities over outputs, e.g.
    ["y0 >= 2.5"], ["2*y0 - y1 <= 0.3 && y1 >= -1"].  Grammar:

    {v
      psi   := ineq ("&&" ineq)*
      ineq  := expr ("<=" | ">=") number
      expr  := term (("+" | "-") term)*
      term  := number | [number "*"] "y" digits
    v} *)

val to_string : t -> string
(** Round-trips through {!of_string}. *)

val holds : ?tol:float -> t -> Dpv_tensor.Vec.t -> bool
(** Does the output satisfy every inequality (within [tol], default 0)? *)

val max_output_index : t -> int
