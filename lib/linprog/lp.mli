(** Linear / mixed-integer program model builder.

    A model is a bag of variables (with optional bounds and an integrality
    kind), linear constraints, and a linear objective.  The structure is
    persistent: every operation returns a new model, which lets
    branch-and-bound branch by tightening bounds without undo logic.
    It is solver-agnostic; {!Simplex} consumes pure LPs and {!Milp}
    handles integrality.

    A model may also record, as plain data, how some variables follow
    from others ({!define}).  Solvers never read them as rows: they
    only let {!complete} turn any point into one whose defined
    variables take their defined values. *)

type var = int
(** Variable index, valid for the model family that created it. *)

type kind = Continuous | Integer | Binary

type relation = Le | Ge | Eq

type term = float * var
(** Coefficient-variable pair. *)

type objective_sense = Minimize | Maximize

type t

val create : unit -> t

val add_var : ?name:string -> ?lo:float -> ?up:float -> ?kind:kind -> t -> t * var
(** Fresh variable.  Missing [lo]/[up] mean unbounded on that side.
    [Binary] intersects the given bounds with [0,1]. *)

val add_constraint : ?name:string -> t -> term list -> relation -> float -> t
(** [add_constraint m terms rel rhs] posts [sum terms REL rhs].  Repeated
    variables inside [terms] are accumulated. *)

val set_objective : t -> objective_sense -> term list -> t

type definition =
  | Affine of term list * float
      (** [Affine (terms, c)]: the variable equals [c + sum terms] *)
  | Relu of { pre : var; phase : var }
      (** the variable equals [max 0 pre], and the binary [phase] is 1
          when [pre > 0], else 0 *)

val define : t -> var -> definition -> t
(** [define m v d] records that [v] follows [d].  It adds no row: the
    rows that encode [d] are the caller's to add.  Definitions are
    evaluated in the order they were recorded, so each should read only
    variables the model bounds or that an earlier definition sets; a
    variable defined twice takes its later value.  Raises
    [Invalid_argument] on a variable the model does not have. *)

val definitions : t -> (var * definition) list
(** In the order recorded. *)

val complete : t -> float array -> float array
(** [complete m x] is a fresh copy of [x], clamped into the bounds of
    [m], on which every definition of [m] is then evaluated in the order
    recorded.  A variable no definition sets keeps its clamped value.
    The result satisfies a definition's rows when the definition agrees
    with them; {!check_feasible} says whether it satisfies the whole
    model.  [complete m] reads the bounds and definitions into arrays,
    so a caller completing many points of one model applies it to [m]
    once.  Raises [Invalid_argument] when [x] does not have one entry
    per variable. *)

val num_vars : t -> int
val num_constraints : t -> int
val num_definitions : t -> int
val var_bounds : t -> var -> float option * float option
val integer_vars : t -> var list
(** Variables of kind [Integer] or [Binary], ascending. *)

val set_var_bounds : t -> var -> lo:float option -> up:float option -> t

val bounds_delta : ?cap:int -> t -> t -> var list option
(** [bounds_delta a b] lists every variable whose bounds {e may} differ
    between two models derived from a common ancestor by
    [set_var_bounds]; any variable not listed provably has identical
    bounds in both.  Both models must belong to the same derivation
    family (the same [create] call) — the diff walks the bound-change
    history and cannot tell unrelated families apart.  Cost is
    proportional to the models' distance in the derivation tree (each
    [set_var_bounds] leaves a physically shared history entry), not to
    model size — this is what lets an incremental branch-and-bound
    guide diff consecutive tree nodes in O(1) instead of re-reading
    every binary.  The list may repeat variables.  [None] when more
    than [cap] history entries (default: unlimited) separate the
    models — callers fall back to a full scan. *)

val relax_integrality : t -> t
(** Every [Integer]/[Binary] variable becomes [Continuous] (bounds kept):
    the LP relaxation used by bound tightening. *)

val constraints : t -> (string * term list * relation * float) list
(** In insertion order. *)

val iter_rows_rev : (int -> term list -> relation -> float -> unit) -> t -> unit
(** [iter_rows_rev f m] calls [f i terms rel rhs] on every constraint,
    the last inserted first: [i] runs from [num_constraints m - 1] down
    to 0.  The terms are those {!constraints} lists. *)

val iter_var_bounds : (var -> float option -> float option -> unit) -> t -> unit
(** [iter_var_bounds f m] calls [f v lo up] on every variable in
    ascending order, with the bounds {!var_bounds} returns. *)

val objective : t -> objective_sense * term list

val eval_term_list : term list -> float array -> float

val check_feasible : ?tol:float -> t -> float array -> bool
(** True when the point satisfies every constraint and bound (ignoring
    integrality) within absolute tolerance [tol] (default [1e-6]). *)
