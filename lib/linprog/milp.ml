type result =
  | Optimal of { objective : float; solution : float array }
  | Feasible of { objective : float; solution : float array }
  | Infeasible
  | Unbounded
  | Node_limit
  | Timeout

type stats = {
  nodes_explored : int;
  lp_solved : int;
  incumbent_updates : int;
  lp_time_s : float;
  per_worker_nodes : int array;
  steals : int;
  max_queue_depth : int;
  pivots : int;
  warm_starts : int;
  cold_starts : int;
  fallbacks : int;
  absint_phase_fixes : int;
  absint_prunes : int;
  absint_incr_hits : int;
  absint_layers_propagated : int;
  absint_layers_saved : int;
  absint_cache_evictions : int;
}

let empty_stats =
  {
    nodes_explored = 0;
    lp_solved = 0;
    incumbent_updates = 0;
    lp_time_s = 0.0;
    per_worker_nodes = [||];
    steals = 0;
    max_queue_depth = 0;
    pivots = 0;
    warm_starts = 0;
    cold_starts = 0;
    fallbacks = 0;
    absint_phase_fixes = 0;
    absint_prunes = 0;
    absint_incr_hits = 0;
    absint_layers_propagated = 0;
    absint_layers_saved = 0;
    absint_cache_evictions = 0;
  }

(* Slot-wise sum: slot i adds worker i of each solve, so the sub-box
   solves of a bisected query fold into one slot per worker, not one
   slot per sub-box. *)
let add_slots a b =
  let la = Array.length a and lb = Array.length b in
  Array.init (max la lb) (fun i ->
      (if i < la then a.(i) else 0) + if i < lb then b.(i) else 0)

let add_stats a b =
  {
    nodes_explored = a.nodes_explored + b.nodes_explored;
    lp_solved = a.lp_solved + b.lp_solved;
    incumbent_updates = a.incumbent_updates + b.incumbent_updates;
    lp_time_s = a.lp_time_s +. b.lp_time_s;
    per_worker_nodes = add_slots a.per_worker_nodes b.per_worker_nodes;
    steals = a.steals + b.steals;
    max_queue_depth = max a.max_queue_depth b.max_queue_depth;
    pivots = a.pivots + b.pivots;
    warm_starts = a.warm_starts + b.warm_starts;
    cold_starts = a.cold_starts + b.cold_starts;
    fallbacks = a.fallbacks + b.fallbacks;
    absint_phase_fixes = a.absint_phase_fixes + b.absint_phase_fixes;
    absint_prunes = a.absint_prunes + b.absint_prunes;
    absint_incr_hits = a.absint_incr_hits + b.absint_incr_hits;
    absint_layers_propagated =
      a.absint_layers_propagated + b.absint_layers_propagated;
    absint_layers_saved = a.absint_layers_saved + b.absint_layers_saved;
    absint_cache_evictions = a.absint_cache_evictions + b.absint_cache_evictions;
  }

type branch_rule = Most_fractional | Bound_width | Guide_order

(* What an abstract-interpretation guide learned about one node.  The
   solver stays ignorant of how the bounds were propagated: [prune]
   means the node's feasible region provably misses the query, [fix]
   lists binary variables whose phase is implied by the node's current
   bounds, and [widths] scores still-free binaries by the width of the
   pre-activation interval they control (for [Bound_width] branching). *)
type guidance = {
  prune : bool;
  fix : (Lp.var * float) list;
  widths : (Lp.var * float) list;
}

type guide = Lp.t -> guidance

(* What a stateful guide did across one solve: cache hits (consults
   that reused at least one cached layer state), layer transfers run
   and skipped, and layer states dropped for the memory budget.  All
   zero for stateless guides. *)
type guide_stats = {
  incr_hits : int;
  layers_propagated : int;
  layers_saved : int;
  cache_evictions : int;
}

let empty_guide_stats =
  {
    incr_hits = 0;
    layers_propagated = 0;
    layers_saved = 0;
    cache_evictions = 0;
  }

(* Guides carry per-solver state (cached propagation prefixes), so the
   search asks the factory for a fresh instance per worker instead of
   sharing a closure across domains.  [guide_stats] aggregates over
   every instance the factory ever made; the search reads it as a
   start/end delta so factories may outlive a solve. *)
type guide_factory = {
  new_guide : unit -> guide;
  guide_stats : unit -> guide_stats;
}

(* Wrap a stateless per-node closure (tests, custom heuristics) as a
   factory: every "instance" is the same closure and the stats stay
   zero. *)
let stateless_guide g =
  { new_guide = (fun () -> g); guide_stats = (fun () -> empty_guide_stats) }

type options = {
  max_nodes : int;
  int_tol : float;
  find_first : bool;
  workers : int;
  task_batch : int;
  time_limit_s : float option;
  lp_dense : bool;
  absint : guide_factory option;
  branch_rule : branch_rule;
}

let default_options =
  {
    max_nodes = 200_000;
    int_tol = 1e-6;
    find_first = false;
    workers = 1;
    task_batch = 32;
    time_limit_s = None;
    lp_dense = false;
    absint = None;
    branch_rule = Most_fractional;
  }

let is_integral ~tol x = Float.abs (x -. Float.round x) <= tol

(* Most fractional integer variable, if any.  Ties (within an epsilon
   well below any meaningful fractionality difference) go to the lowest
   variable index: [Lp.integer_vars] is ascending and a candidate must
   beat the best strictly, so searches at any worker count branch on
   the same variable and report stable witnesses. *)
let find_branch_var ~tol model solution =
  let best = ref None in
  List.iter
    (fun v ->
      let x = solution.(v) in
      if not (is_integral ~tol x) then begin
        let frac = Float.abs (x -. Float.round x) in
        match !best with
        | Some (_, f) when frac <= f +. 1e-12 -> ()
        | _ -> best := Some (v, frac)
      end)
    (Lp.integer_vars model);
  Option.map fst !best
