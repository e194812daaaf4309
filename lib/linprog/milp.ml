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
  }

(* Slot-wise sum: slot i adds worker i of each solve, so the sub-box
   solves of a bisected query fold into one slot per worker, not one
   slot per sub-box. *)
let add_slots a b =
  let la = Array.length a and lb = Array.length b in
  Array.init (max la lb) (fun i ->
      (if i < la then a.(i) else 0) + if i < lb then b.(i) else 0)

type merge = Sum | Max

type counter = {
  key : string;
  report : string;
  metric : string;
  merge : merge;
  optional : bool;
  get : stats -> int;
  set : stats -> int -> stats;
}

let row ?report ?(merge = Sum) ?(optional = false) key metric get set =
  let report = Option.value report ~default:key in
  { key; report; metric; merge; optional; get; set }

(* Row order is the order of the journal and campaign-report keys. *)
let counters =
  [
    row "nodes_explored" ~report:"nodes" "milp.nodes"
      (fun s -> s.nodes_explored)
      (fun s v -> { s with nodes_explored = v });
    row "lp_solved" ~report:"lps" "milp.lps"
      (fun s -> s.lp_solved)
      (fun s v -> { s with lp_solved = v });
    row "incumbent_updates" "milp.incumbent_updates"
      (fun s -> s.incumbent_updates)
      (fun s v -> { s with incumbent_updates = v });
    row "steals" "milp.steals"
      (fun s -> s.steals)
      (fun s v -> { s with steals = v });
    row "max_queue_depth" "milp.max_queue_depth" ~merge:Max
      (fun s -> s.max_queue_depth)
      (fun s v -> { s with max_queue_depth = v });
    row "pivots" "simplex.pivots"
      (fun s -> s.pivots)
      (fun s v -> { s with pivots = v });
    row "warm_starts" "simplex.warm_starts"
      (fun s -> s.warm_starts)
      (fun s v -> { s with warm_starts = v });
    row "cold_starts" "simplex.cold_starts"
      (fun s -> s.cold_starts)
      (fun s v -> { s with cold_starts = v });
    row "fallbacks" "simplex.fallbacks"
      (fun s -> s.fallbacks)
      (fun s v -> { s with fallbacks = v });
    row "absint_phase_fixes" "absint.phase_fixes" ~optional:true
      (fun s -> s.absint_phase_fixes)
      (fun s v -> { s with absint_phase_fixes = v });
    row "absint_prunes" "absint.prunes" ~optional:true
      (fun s -> s.absint_prunes)
      (fun s v -> { s with absint_prunes = v });
    row "absint_incr_hits" "absint.incr_hits" ~optional:true
      (fun s -> s.absint_incr_hits)
      (fun s v -> { s with absint_incr_hits = v });
    row "absint_layers_propagated" "absint.layers_propagated" ~optional:true
      (fun s -> s.absint_layers_propagated)
      (fun s v -> { s with absint_layers_propagated = v });
    row "absint_layers_saved" "absint.layers_saved" ~optional:true
      (fun s -> s.absint_layers_saved)
      (fun s v -> { s with absint_layers_saved = v });
  ]

let add_stats a b =
  List.fold_left
    (fun s c ->
      let x = c.get a and y = c.get b in
      c.set s (match c.merge with Sum -> x + y | Max -> max x y))
    {
      empty_stats with
      lp_time_s = a.lp_time_s +. b.lp_time_s;
      per_worker_nodes = add_slots a.per_worker_nodes b.per_worker_nodes;
    }
    counters

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

(* Guides carry per-solver state (cached propagation prefixes), so the
   search asks the factory for a fresh instance per worker instead of
   sharing a closure across domains.  [stats] aggregates the guide
   counters over every instance the factory ever made; the search reads
   it as a start/end delta so factories may outlive a solve. *)
type guide_factory = { new_guide : unit -> guide; stats : unit -> stats }

(* Wrap a stateless per-node closure (tests, custom heuristics) as a
   factory: every "instance" is the same closure and the stats stay
   zero. *)
let stateless_guide g =
  { new_guide = (fun () -> g); stats = (fun () -> empty_stats) }

type options = {
  max_nodes : int;
  int_tol : float;
  find_first : bool;
  workers : int;
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
