(** LP solvers.

    The primary engine is a revised simplex over sparse columns with
    native [lo, up] variable bounds: rows become equalities with one
    bounded slack each (no standard-form variable splitting, no Phase-1
    artificials), and the ratio test handles bound flips directly.  The
    basis is held as a sparse LU factorization (Markowitz pivoting with
    a threshold test, singletons first), updated in place by
    Forrest-Tomlin updates and refactorized when the updates have grown
    it or fail a stability check.  A persistent {!handle} keeps the
    factorized basis alive between solves, so re-solving after a bound change runs dual simplex from
    the previous optimal basis (typically a handful of pivots) and
    re-solving after an objective change runs primal simplex from the
    still-primal-feasible basis.  Branch-and-bound and OBBT are exactly
    these two workloads.

    A dense two-phase tableau implementation is retained as
    {!solve_dense}: it is the differential-testing oracle and the
    automatic fallback when the revised engine detects numerical
    trouble (singular refactorization, vanishing pivots, iteration
    blow-up, basic values that drifted from their refactorized basis).

    Accepts any {!Lp.t}; integrality kinds are ignored (the LP
    relaxation is solved).  Solutions are reported in the original
    variable space.

    Termination: Dantzig pricing with an automatic switch to Bland's
    smallest-index rule, which rules out cycling in both phases.  The
    primal phase switches after a streak of degenerate pivots, the dual
    phase after a streak of iterations whose total bound violation
    reaches no new minimum (see {!Stall}). *)

type status =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

exception Numerical_trouble of string
(** Numerical distress in the revised engine: singular refactorization,
    vanishing pivots, iteration blow-up, basic values that disagree with
    a refactorized basis, or a failed post-solve residual check.  Most occurrences are rescued internally (the handle resets
    its basis and re-solves with {!solve_dense}); one that still escapes
    {!resolve} means the handle state is beyond local repair and the
    caller should re-solve statelessly — see
    {!Milp.options.lp_dense} and the [Retry] ladder in [dpv_core]. *)

val solve : ?tol:float -> Lp.t -> status
(** One-shot solve with the revised engine: [create] + [resolve].
    [tol] is the pivot/pricing tolerance (default [1e-9]). *)

val solve_dense : ?tol:float -> Lp.t -> status
(** Retained dense two-phase reference implementation. *)

(** {1 Persistent solver handles} *)

type handle
(** A mutable solver bound to one constraint matrix.  Bounds and the
    objective may change between solves; the constraint rows may not. *)

type counters = {
  pivots : int;        (** simplex iterations, bound flips included *)
  warm_starts : int;   (** resolves that reused a factorized basis *)
  cold_starts : int;   (** resolves from the all-slack basis *)
  fallbacks : int;     (** resolves rescued by [solve_dense] *)
}

val create : ?tol:float -> Lp.t -> handle
(** Capture the model's rows, bounds and objective.  No solving happens
    until {!resolve}. *)

val set_var_bounds :
  handle -> Lp.var -> lo:float option -> up:float option -> unit
(** Change one variable's bounds in place ([None] = unbounded).  Cheap
    when the bounds are unchanged; otherwise the stored basis stays
    dual feasible and the next {!resolve} warm-starts with dual
    simplex. *)

val set_objective : handle -> Lp.objective_sense -> Lp.term list -> unit
(** Replace the objective.  The stored basis stays primal feasible and
    the next {!resolve} warm-starts with primal simplex. *)

val resolve :
  ?bound_changes:(Lp.var * float option * float option) list ->
  handle ->
  status
(** Solve the handle's current model, reusing the previous basis when
    one exists.  [bound_changes] is sugar for {!set_var_bounds} calls
    applied first. *)

val counters : handle -> counters
(** Cumulative over the handle's lifetime; still readable after
    {!release}. *)

val release : handle -> unit
(** Hand the handle's factor storage (the LU factors, the update file
    and the factorization workspace) to the calling domain, for the next
    {!create} there to reuse instead of allocating.  The handle must not be solved again: a later
    {!resolve} raises [Invalid_argument].  Releasing is optional; an
    unreleased handle is simply garbage-collected. *)

val pp_status : Format.formatter -> status -> unit

(** Stall detection of the dual simplex, exposed for tests. *)
module Stall : sig
  type t

  val create : unit -> t

  val step : t -> threshold:int -> float -> bool
  (** [step s ~threshold total] records one iteration's total bound
      violation and returns [true] once more than [threshold]
      iterations in a row have failed to reach a new minimum of it:
      the dual simplex then switches to Bland's rule. *)
end
