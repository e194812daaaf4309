(** Mixed-integer linear programming by branch-and-bound on {!Simplex}:
    the result, statistics, guide and option types.

    Designed for the verification workload: feasibility queries over
    big-M ReLU encodings where the integer variables are the binary
    phase indicators.  Also solves general small MILPs.

    Incumbents come from two places: an LP point that is integral, and
    a branching node's LP point completed through the root model's
    definitions ({!Lp.complete}) that turns out integral and feasible
    on the root.  A model without definitions only has the first.

    The search itself is {!Milp_par.solve_with_stats}, one engine for
    every worker count. *)

type result =
  | Optimal of { objective : float; solution : float array }
      (** Best integer-feasible point, with an optimality proof: the
          branch-and-bound tree was exhausted (or pruned) in full. *)
  | Feasible of { objective : float; solution : float array }
      (** An integer-feasible incumbent {e without} an optimality
          proof: the search was truncated by the node cap, the
          wall-clock deadline, a [find_first] early exit, or an
          unbounded relaxation on some open branch.  The solution is a
          genuine feasible point and may serve as a witness, but the
          objective is only a bound on the true optimum. *)
  | Infeasible
  | Unbounded
      (** The {e root} LP relaxation is unbounded (the MILP may be
          too).  Only the root can make this claim: below a bounded
          root every child's feasible set is contained in the root's,
          so a child relaxation reported unbounded is a numerical
          artifact — the solvers treat it as truncation (the subtree is
          dropped, siblings are still explored) and the run degrades to
          {!Feasible} or {!Node_limit} honesty instead. *)
  | Node_limit
      (** Search stopped without a conclusive answer and without an
          incumbent: the [max_nodes] cap was hit, or a non-root
          unbounded relaxation forced a subtree to be dropped. *)
  | Timeout
      (** Search stopped at the wall-clock deadline without a
          conclusive answer.  Queries should degrade to "unknown"
          rather than spin to the node cap. *)

type stats = {
  nodes_explored : int;
  lp_solved : int;
  incumbent_updates : int;
  lp_time_s : float;            (** wall time spent inside {!Simplex} *)
  per_worker_nodes : int array; (** node count by worker; [[|n|]] with
                                    one worker *)
  steals : int;                 (** work-stealing events (0 with one
                                    worker) *)
  max_queue_depth : int;        (** deepest any subproblem queue got,
                                    counting the seeded root — so it is
                                    at least 1 whenever a node was
                                    explored, at any worker count *)
  pivots : int;                 (** simplex iterations across all node
                                    LPs, bound flips included *)
  warm_starts : int;            (** node LPs re-solved from a parent's
                                    factorized basis (dual simplex) *)
  cold_starts : int;            (** node LPs solved from scratch: the
                                    root, the first node each parallel
                                    worker touches, and any solve after
                                    a numerical-trouble fallback *)
  fallbacks : int;              (** node LPs rescued by the dense
                                    reference solver after the revised
                                    engine hit numerical trouble *)
  absint_phase_fixes : int;     (** binary phase variables fixed by the
                                    abstract-interpretation guide
                                    without branching *)
  absint_prunes : int;          (** nodes discharged by the guide before
                                    their LP was ever solved (they do
                                    not count toward [nodes_explored]) *)
  absint_incr_hits : int;       (** guide consults that resumed from at
                                    least one cached layer state instead
                                    of propagating from scratch *)
  absint_layers_propagated : int;
                                (** DeepPoly layer transfers the guide
                                    actually ran across all consults *)
  absint_layers_saved : int;    (** layer transfers skipped by reusing
                                    cached prefix states (scratch-mode
                                    propagation would have run
                                    [layers_propagated + layers_saved]) *)
}

val empty_stats : stats
(** All-zero statistics; the baseline for non-MILP code paths that must
    still report a [stats] record. *)

val add_stats : stats -> stats -> stats
(** Merges each row of {!counters} by its rule (a sum, except
    [max_queue_depth], which is maxed) and sums [lp_time_s] — used
    when one verification query is answered by several MILP solves,
    e.g. under input bisection.  [per_worker_nodes] is summed
    slot-wise: the result has the longer array's length, and slot [i]
    adds worker [i] of each solve. *)

(** {2 Counters}

    Every integer field of {!stats} is declared once, as a row of
    {!counters}.  Merging ({!add_stats}), the journal's encoder and
    decoder, the campaign report and the exported metrics all iterate
    the rows instead of naming fields; [lp_time_s] and
    [per_worker_nodes] are the only fields each of them handles by
    hand.  Adding a counter takes the field (here and in [milp.ml]),
    its zero in {!empty_stats}, one row, and the code that produces
    the value. *)

type merge =
  | Sum  (** solves add up; exported as a [dpv-metrics/1] counter *)
  | Max  (** the larger value wins; exported as a high-water gauge *)

type counter = {
  key : string;       (** the key in a journal entry's ["milp"] object *)
  report : string;    (** the key in a campaign report's ["milp"] object *)
  metric : string;    (** the [dpv-metrics/1] name *)
  merge : merge;
  optional : bool;
      (** journals written before this row may lack its key, which then
          reads 0.  A row added after the journal format shipped must
          set this, or older journals stop loading. *)
  get : stats -> int;
  set : stats -> int -> stats;  (** functional update of the field *)
}
(** One integer field of {!stats} with everything that names it. *)

val counters : counter list
(** One row per integer field of {!stats}, in the order the journal
    and the campaign report write their keys. *)

type branch_rule =
  | Most_fractional  (** classic most-fractional branching (default) *)
  | Bound_width
      (** among fractional binaries, branch on the one whose
          pre-activation interval (as scored by the [absint] guide) is
          widest; falls back to [Most_fractional] when no guide is
          armed or it scored no candidate *)
  | Guide_order
      (** branch on the {e deepest} guide-scored fractional binary.
          The [absint] guide lists crossing binaries in network layer
          order, so this fixes ReLU phases output-end-first down each
          DFS path: consecutive nodes then differ only in the deepest
          layers, which is exactly the access pattern the incremental
          guide's prefix cache resumes cheapest.  Falls back to
          [Most_fractional] when no guide is armed or it scored no
          candidate *)

type guidance = {
  prune : bool;
      (** the node's region provably misses the query: discard it
          without solving its LP *)
  fix : (Lp.var * float) list;
      (** binaries whose phase is implied by the node's bounds; the
          solver fixes each variable to the given 0/1 value before the
          LP solve *)
  widths : (Lp.var * float) list;
      (** pre-activation interval width per still-free binary, the
          score used by {!Bound_width} branching *)
}

type guide = Lp.t -> guidance
(** An abstract-interpretation oracle consulted once per node, before
    the node's LP is solved.  Must be sound: [prune] only when no point
    of the node's feasible region satisfies the query, [fix] only
    phases implied (up to feasibility-preserving tie-breaks at 0) by
    the node's bounds.  Built over DeepPoly by [Dpv_core.Absguide];
    this module only sees the closure, so [lib/linprog] stays free of
    any dependency on the abstract domains. *)

type guide_factory = {
  new_guide : unit -> guide;
      (** a fresh guide instance.  Instances may carry mutable
          propagation caches, so each is confined to the worker that
          requested it: the search makes one per worker, on first
          use. *)
  stats : unit -> stats;
      (** the guide's work, aggregated over every instance this factory
          created (a DeepPoly guide fills the three incremental
          counters, [absint_incr_hits] to [absint_layers_saved];
          every other field stays 0).  The search snapshots it before
          and after and adds the delta of each row of {!counters}, so
          factories may be reused across solves. *)
}
(** How solvers obtain guides.  The factory itself must be safe to call
    from the domain that owns the solve; instance creation happens on
    the worker domains but is serialized per instance. *)

val stateless_guide : guide -> guide_factory
(** Wrap a stateless per-node closure as a factory (every instance is
    the same closure; stats stay zero).  The natural constructor for
    tests and ad-hoc heuristics. *)

type options = {
  max_nodes : int;      (** branch-and-bound node budget *)
  int_tol : float;      (** integrality tolerance *)
  find_first : bool;    (** stop at the first integer-feasible solution,
                            an integral LP point or a feasible completion
                            (see above); the natural mode for feasibility
                            queries.  Incumbents are reported as
                            {!Feasible} (never {!Optimal}) in this mode *)
  workers : int;        (** search workers, [>= 1]: one searches a DFS
                            list on the calling domain, more run a
                            {!Pool} of that many domains *)
  time_limit_s : float option;
      (** wall-clock budget; [None] never expires.  Measured on a
          monotonic wall clock, not CPU time, so it stays meaningful
          under multi-domain search. *)
  lp_dense : bool;
      (** solve every node LP with {!Simplex.solve_dense} instead of
          the warm-started revised engine.  Slow but stateless between
          nodes; the retry ladder switches this on after an escaped
          [Numerical_trouble]. *)
  absint : guide_factory option;
      (** abstract-interpretation guide factory; each search
          instantiates its own guide(s) and consults one per node
          ([None], the default, leaves the search bit-for-bit identical
          to the unguided solver) *)
  branch_rule : branch_rule;  (** branch-variable selection rule *)
}

val default_options : options
(** [{ max_nodes = 200_000; int_tol = 1e-6; find_first = false;
      workers = 1; time_limit_s = None; lp_dense = false;
      absint = None; branch_rule = Most_fractional }] *)

val find_branch_var : tol:float -> Lp.t -> float array -> Lp.var option
(** Most fractional integer variable, ties broken toward the lowest
    variable index (deterministically, so every worker count branches
    identically on identical relaxations). *)
