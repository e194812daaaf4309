(** Branch-and-bound over {!Milp} problems: one search for every worker
    count, built from one node step (guide consult, node LP on the
    worker's warm simplex handle, incumbent pruning, branching).

    Only the frontier depends on [options.workers].  One worker runs a
    plain depth-first list on the calling domain, the deterministic
    mode tests pin down.  Several workers share a work-stealing
    {!Pool} and one incumbent bound; each pool task is a {e subtree}
    dive of up to 32 node LPs on a worker-local stack (spilling its
    shallowest open subtrees back to the pool for thieves,
    re-enqueueing the rest when the batch budget runs out), so pool
    overhead is paid once per batch and consecutive LPs reuse the
    worker's warm basis.
    Exploration {e order} differs between worker counts, but the answer
    does not: optimality and infeasibility proofs exhaust the same
    tree, so objective values and Infeasible/Timeout classifications
    agree (witness solutions may differ between equally-optimal points).

    When a node's LP is optimal and the node branches, its LP point is
    first completed through the root model's definitions
    ({!Lp.complete}).  If every integer variable of the completion is
    integral and {!Lp.check_feasible} accepts it on the root model (so
    within that check's 1e-6 tolerance), it is offered as the
    incumbent; under [find_first] the node then closes instead of
    branching.  The completion reads only the LP point: it touches
    neither the simplex handle nor the guide, so a rejected completion
    has no side effect: with one worker, a search in which no
    completion is accepted explores the same tree, with the same pivots
    and counts, as over the same model without definitions.

    Node budgets ([max_nodes]) and wall-clock deadlines
    ([time_limit_s]) are enforced globally across workers.  Every solve
    folds its stats into the global {!Dpv_obs.Metrics} registry and
    records a [milp.solve] trace span; its [completed_at] argument,
    present only when the incumbent is an accepted completion, is the
    node (counted from 1, the root) whose LP point completed to it. *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count () - 1], floored at 1: leave one
    core for the rest of the process, never go below one worker. *)

val solve : ?options:Milp.options -> Lp.t -> Milp.result
val solve_with_stats : ?options:Milp.options -> Lp.t -> Milp.result * Milp.stats
