(** Parallel branch-and-bound over a {!Pool} of worker domains.

    The search tree of {!Milp} is explored by
    [options.workers] domains sharing a work-stealing subproblem deque
    per worker and a single atomic incumbent bound: any worker that
    finds a better integer-feasible point publishes it, and every
    worker prunes against the best objective published so far.
    Exploration *order* differs from the sequential solver, but the
    answer does not: optimality and infeasibility proofs exhaust the
    same tree, so objective values and Infeasible/Timeout
    classifications agree (witness solutions may legitimately differ
    between equally-optimal points).

    Work units are {e subtrees}, not single nodes: each pool task dives
    depth-first for up to [options.task_batch] node LPs on a worker-local
    stack (spilling its shallowest open subtrees back to the pool for
    thieves, re-enqueueing the rest when the batch budget runs out), so
    pool overhead is paid once per batch and consecutive LPs reuse the
    worker's warm simplex basis (and the domain's refactorization
    arena).
    [task_batch = 1] restores one-node tasks.

    With [options.workers = 1] this module defers to
    {!Milp.solve_with_stats} verbatim — same traversal, same witness,
    bit-for-bit — which is the deterministic mode tests pin down.

    Node budgets ([max_nodes]) and wall-clock deadlines
    ([time_limit_s]) are enforced globally across workers. *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count () - 1], floored at 1: leave one
    core for the rest of the process, never go below sequential. *)

val solve : ?options:Milp.options -> Lp.t -> Milp.result
val solve_with_stats : ?options:Milp.options -> Lp.t -> Milp.result * Milp.stats
