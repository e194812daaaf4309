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

let add_stats a b =
  {
    nodes_explored = a.nodes_explored + b.nodes_explored;
    lp_solved = a.lp_solved + b.lp_solved;
    incumbent_updates = a.incumbent_updates + b.incumbent_updates;
    lp_time_s = a.lp_time_s +. b.lp_time_s;
    per_worker_nodes = Array.append a.per_worker_nodes b.per_worker_nodes;
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

let sub_guide_stats a b =
  {
    incr_hits = a.incr_hits - b.incr_hits;
    layers_propagated = a.layers_propagated - b.layers_propagated;
    layers_saved = a.layers_saved - b.layers_saved;
    cache_evictions = a.cache_evictions - b.cache_evictions;
  }

(* Guides carry per-solver state (cached propagation prefixes), so the
   solver asks the factory for a fresh instance per search — one for
   the sequential DFS, one per worker in [Milp_par] — instead of
   sharing a closure across domains.  [guide_stats] aggregates over
   every instance the factory ever made; solvers read it as a
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

(* Global metrics, folded from the finished [stats] record at the end of
   each solve ({!record_metrics}, shared with [Milp_par]) rather than
   incremented per pivot: the campaign-level counter totals then equal
   the sum of the per-query stats exactly, and the search hot loop gains
   no atomic traffic.  The per-LP latency histogram reuses the two
   clock reads the [lp_time_s] accounting already makes. *)
module Metrics = Dpv_obs.Metrics

let m_solves = Metrics.counter "milp.solves"
let m_nodes = Metrics.counter "milp.nodes"
let m_lps = Metrics.counter "milp.lps"
let m_incumbents = Metrics.counter "milp.incumbent_updates"
let m_lp_time = Metrics.counter "milp.lp_time_ns"
let m_steals = Metrics.counter "milp.steals"
let m_queue_depth = Metrics.gauge "milp.max_queue_depth"
let m_pivots = Metrics.counter "simplex.pivots"
let m_warm = Metrics.counter "simplex.warm_starts"
let m_cold = Metrics.counter "simplex.cold_starts"
let m_fallbacks = Metrics.counter "simplex.fallbacks"
let m_absint_fixes = Metrics.counter "absint.phase_fixes"
let m_absint_prunes = Metrics.counter "absint.prunes"
let m_absint_hits = Metrics.counter "absint.incr_hits"
let m_absint_propagated = Metrics.counter "absint.layers_propagated"
let m_absint_saved = Metrics.counter "absint.layers_saved"
let m_absint_evictions = Metrics.counter "absint.cache_evictions"
let lp_solve_hist = Metrics.histogram "milp.lp_solve_ns"

let record_metrics (s : stats) =
  Metrics.incr m_solves 1;
  Metrics.incr m_nodes s.nodes_explored;
  Metrics.incr m_lps s.lp_solved;
  Metrics.incr m_incumbents s.incumbent_updates;
  Metrics.incr m_lp_time (int_of_float (s.lp_time_s *. 1e9));
  Metrics.incr m_steals s.steals;
  Metrics.set_max m_queue_depth s.max_queue_depth;
  Metrics.incr m_pivots s.pivots;
  Metrics.incr m_warm s.warm_starts;
  Metrics.incr m_cold s.cold_starts;
  Metrics.incr m_fallbacks s.fallbacks;
  Metrics.incr m_absint_fixes s.absint_phase_fixes;
  Metrics.incr m_absint_prunes s.absint_prunes;
  Metrics.incr m_absint_hits s.absint_incr_hits;
  Metrics.incr m_absint_propagated s.absint_layers_propagated;
  Metrics.incr m_absint_saved s.absint_layers_saved;
  Metrics.incr m_absint_evictions s.absint_cache_evictions

let observe_lp_s seconds =
  Metrics.observe lp_solve_hist (int_of_float (seconds *. 1e9))

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
   beat the best strictly, so parallel and sequential runs branch on the
   same variable and report stable witnesses. *)
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

(* Widest-interval fractional variable under [Bound_width]: among the
   fractional integer variables that the guide scored, take the one
   whose pre-activation interval is widest (ties go to the lowest index,
   like [find_branch_var], for run-to-run stability).  Falls back to
   most-fractional when the guide scored none of the candidates. *)
let find_branch_var_widest ~tol model solution widths =
  let best = ref None in
  List.iter
    (fun v ->
      let x = solution.(v) in
      if not (is_integral ~tol x) then
        match List.assoc_opt v widths with
        | None -> ()
        | Some w -> (
            match !best with
            | Some (_, bw) when w <= bw -> ()
            | _ -> best := Some (v, w)))
    (Lp.integer_vars model);
  match !best with
  | Some (v, _) -> Some v
  | None -> find_branch_var ~tol model solution

(* Deepest-scored fractional variable under [Guide_order]: the guide
   emits widths in network layer order (per layer, ascending neuron
   index), so the last fractional entry is the deepest crossing
   binary.  Branching deepest-first means consecutive DFS nodes differ
   only in the final layers, so the incremental guide's prefix cache
   rolls back as little as possible; shallow invalidations only happen
   at the (geometrically rarer) backtracks above a exhausted deep
   subtree.  Falls back to most-fractional when the guide scored no
   fractional candidate. *)
let find_branch_var_ordered ~tol model solution widths =
  let best = ref None in
  List.iter
    (fun (v, _) -> if not (is_integral ~tol solution.(v)) then best := Some v)
    widths;
  match !best with
  | Some v -> Some v
  | None -> find_branch_var ~tol model solution

let round_integral ~tol model solution =
  let out = Array.copy solution in
  List.iter
    (fun v -> if is_integral ~tol out.(v) then out.(v) <- Float.round out.(v))
    (Lp.integer_vars model);
  out

(* Child order for DFS: explore the branch nearer the fractional value
   first — it finds integer-feasible points faster in practice. *)
let branch_children node v x =
  let lo, up = Lp.var_bounds node v in
  let floor_v = Float.floor x and ceil_v = Float.ceil x in
  let down = Lp.set_var_bounds node v ~lo ~up:(Some floor_v) in
  let up_node = Lp.set_var_bounds node v ~lo:(Some ceil_v) ~up in
  if x -. floor_v <= ceil_v -. x then (down, up_node) else (up_node, down)

let solve_with_stats ?(options = default_options) model =
  let trace_t0 = Dpv_obs.Trace.begin_ns () in
  let sense, _ = Lp.objective model in
  (* Internally we always minimize; [better a b] says [a] improves on [b]. *)
  let better a b =
    match sense with Lp.Minimize -> a < b -. 1e-12 | Lp.Maximize -> a > b +. 1e-12
  in
  let deadline = Clock.deadline_after options.time_limit_s in
  let nodes = ref 0 and lps = ref 0 and updates = ref 0 in
  let lp_time = ref 0.0 in
  let incumbent = ref None in
  let hit_limit = ref false in
  let hit_deadline = ref false in
  let relaxation_unbounded = ref false in
  let unbounded_truncated = ref false in
  let absint_fixes = ref 0 and absint_prunes = ref 0 in
  let max_depth = ref 0 in
  (* Instantiate the guide for this search; guide counters are read as
     a delta so a factory reused across solves still reports exactly
     this solve's work. *)
  let guide_stats_before =
    match options.absint with
    | None -> empty_guide_stats
    | Some f -> f.guide_stats ()
  in
  let guide =
    match options.absint with None -> None | Some f -> Some (f.new_guide ())
  in
  (* One persistent solver for the whole tree: nodes differ from each
     other only in integer-variable bounds, so syncing those bounds and
     re-solving warm-starts dual simplex from the previous optimal
     basis instead of rebuilding a tableau per node. *)
  let handle = Simplex.create model in
  let int_vars = Lp.integer_vars model in
  (* [lp_dense] is the last rung of the retry ladder: every node LP is
     solved with the dense reference implementation, trading speed for
     a path with no incremental basis state to corrupt. *)
  let solve_node node =
    if options.lp_dense then Simplex.solve_dense node
    else begin
      List.iter
        (fun v ->
          let lo, up = Lp.var_bounds node v in
          Simplex.set_var_bounds handle v ~lo ~up)
        int_vars;
      Simplex.resolve handle
    end
  in
  (* DFS over persistent models; bound tightening produces child nodes.
     [depth] tracks the stack length incrementally (a branch pops one
     node and pushes two, everything else pops one) so the high-water
     mark costs O(1) per node instead of an O(depth) [List.length] —
     and, like the parallel solver's per-deque high-water mark, it
     counts the seeded root as depth 1. *)
  let rec explore stack depth =
    match stack with
    | [] -> ()
    | node :: rest ->
        if !nodes >= options.max_nodes then hit_limit := true
        else if Clock.expired deadline then hit_deadline := true
        else if
          (* Early exit once an incumbent exists in find_first mode. *)
          options.find_first && !incumbent <> None
        then ()
        else begin
          let is_root = node == model in
          (* The abstract-interpretation guide, when armed, runs before
             the LP: a pruned node costs no simplex work at all, and
             phase fixes shrink the subtree the relaxation must cover. *)
          let guidance =
            match guide with None -> None | Some g -> Some (g node)
          in
          match guidance with
          | Some g when g.prune ->
              incr absint_prunes;
              explore rest (depth - 1)
          | _ -> (
              let node =
                match guidance with
                | Some { fix = (_ :: _) as fix; _ } ->
                    absint_fixes := !absint_fixes + List.length fix;
                    List.fold_left
                      (fun m (v, x) ->
                        Lp.set_var_bounds m v ~lo:(Some x) ~up:(Some x))
                      node fix
                | _ -> node
              in
              incr nodes;
              incr lps;
              let lp_started = Clock.now_s () in
              let status = solve_node node in
              let status =
                if Faults.fire Faults.Lp_unbounded then Simplex.Unbounded
                else status
              in
              let lp_s = Clock.now_s () -. lp_started in
              lp_time := !lp_time +. lp_s;
              observe_lp_s lp_s;
              match status with
              | Simplex.Infeasible -> explore rest (depth - 1)
              | Simplex.Unbounded ->
                  if is_root then
                    (* At the root this is an honest report: without a
                       finite relaxation bound the MILP itself may be
                       unbounded. *)
                    relaxation_unbounded := true
                  else begin
                    (* A child's feasible set is contained in the root's,
                       so below a bounded root an unbounded relaxation is
                       a numerical artifact, not a proof.  Drop the
                       subtree, keep exploring siblings; the truncation
                       downgrades any optimality claim below. *)
                    unbounded_truncated := true;
                    explore rest (depth - 1)
                  end
              | Simplex.Optimal { objective; solution } ->
                  let prune =
                    match !incumbent with
                    | Some (obj, _) -> not (better objective obj)
                    | None -> false
                  in
                  if prune then explore rest (depth - 1)
                  else begin
                    let branch_var =
                      match (options.branch_rule, guidance) with
                      | Bound_width, Some { widths = _ :: _ as widths; _ } ->
                          find_branch_var_widest ~tol:options.int_tol node
                            solution widths
                      | Guide_order, Some { widths = _ :: _ as widths; _ } ->
                          find_branch_var_ordered ~tol:options.int_tol node
                            solution widths
                      | _ -> find_branch_var ~tol:options.int_tol node solution
                    in
                    match branch_var with
                    | None ->
                        let sol =
                          round_integral ~tol:options.int_tol node solution
                        in
                        (match !incumbent with
                        | Some (obj, _) when not (better objective obj) -> ()
                        | _ ->
                            incumbent := Some (objective, sol);
                            incr updates);
                        explore rest (depth - 1)
                    | Some v ->
                        let first, second = branch_children node v solution.(v) in
                        let depth' = depth + 1 in
                        if depth' > !max_depth then max_depth := depth';
                        explore (first :: second :: rest) depth'
                  end)
        end
  in
  max_depth := 1;
  explore [ model ] 1;
  let c = Simplex.counters handle in
  Simplex.release handle;
  let gd =
    match options.absint with
    | None -> empty_guide_stats
    | Some f -> sub_guide_stats (f.guide_stats ()) guide_stats_before
  in
  let stats =
    {
      nodes_explored = !nodes;
      lp_solved = !lps;
      incumbent_updates = !updates;
      lp_time_s = !lp_time;
      per_worker_nodes = [| !nodes |];
      steals = 0;
      max_queue_depth = !max_depth;
      pivots = c.Simplex.pivots;
      warm_starts = c.Simplex.warm_starts;
      cold_starts = c.Simplex.cold_starts;
      fallbacks = c.Simplex.fallbacks;
      absint_phase_fixes = !absint_fixes;
      absint_prunes = !absint_prunes;
      absint_incr_hits = gd.incr_hits;
      absint_layers_propagated = gd.layers_propagated;
      absint_layers_saved = gd.layers_saved;
      absint_cache_evictions = gd.cache_evictions;
    }
  in
  let result =
    match !incumbent with
    | Some (objective, solution) ->
        (* [Optimal] is an optimality *proof*: the whole tree was pruned
           or exhausted.  Any truncation — node cap, deadline, find_first
           early exit, or an unbounded relaxation somewhere — leaves the
           incumbent a witness only. *)
        let proven =
          (not options.find_first)
          && (not !hit_limit)
          && (not !hit_deadline)
          && (not !relaxation_unbounded)
          && not !unbounded_truncated
        in
        if proven then Optimal { objective; solution }
        else Feasible { objective; solution }
    | None ->
        if !relaxation_unbounded then Unbounded
        else if !hit_deadline then Timeout
        else if !hit_limit || !unbounded_truncated then Node_limit
        else Infeasible
  in
  record_metrics stats;
  if trace_t0 <> 0 then
    Dpv_obs.Trace.complete
      ~args:
        [
          ("nodes", string_of_int stats.nodes_explored);
          ("lps", string_of_int stats.lp_solved);
          ("pivots", string_of_int stats.pivots);
        ]
      ~name:"milp.solve" trace_t0;
  (result, stats)

let solve ?options model = fst (solve_with_stats ?options model)
