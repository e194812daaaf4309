let default_workers () =
  Stdlib.max 1 (Domain.recommended_domain_count () - 1)

(* One shared search state, read and written by every worker.  The
   incumbent needs a compound compare-and-publish, so it lives behind a
   mutex; everything touched once per node at most rides on atomics.
   Contention is negligible: each critical section is a few loads
   against an LP solve per node. *)
type shared = {
  incumbent : (float * float array) option ref;
  incumbent_lock : Mutex.t;
  nodes : int Atomic.t;
  lps : int Atomic.t;
  updates : int Atomic.t;
  found : bool Atomic.t;          (* an incumbent exists (find_first exit) *)
  hit_limit : bool Atomic.t;
  hit_deadline : bool Atomic.t;
  relaxation_unbounded : bool Atomic.t;  (* root LP unbounded: halt *)
  unbounded_truncated : bool Atomic.t;   (* non-root artifact: go on *)
  absint_fixes : int Atomic.t;
  absint_prunes : int Atomic.t;
}

let solve_parallel ~(options : Milp.options) model =
  let trace_t0 = Dpv_obs.Trace.begin_ns () in
  let sense, _ = Lp.objective model in
  let better a b =
    match sense with Lp.Minimize -> a < b -. 1e-12 | Lp.Maximize -> a > b +. 1e-12
  in
  let deadline = Clock.deadline_after options.Milp.time_limit_s in
  let workers = options.Milp.workers in
  let s =
    {
      incumbent = ref None;
      incumbent_lock = Mutex.create ();
      nodes = Atomic.make 0;
      lps = Atomic.make 0;
      updates = Atomic.make 0;
      found = Atomic.make false;
      hit_limit = Atomic.make false;
      hit_deadline = Atomic.make false;
      relaxation_unbounded = Atomic.make false;
      unbounded_truncated = Atomic.make false;
      absint_fixes = Atomic.make 0;
      absint_prunes = Atomic.make 0;
    }
  in
  let per_worker_nodes = Array.make workers 0 in
  let lp_time = Array.make workers 0.0 in
  (* One persistent solver per worker, created lazily on the worker's
     own domain.  A stolen node still warm-starts: the thief syncs the
     node's integer bounds into its own handle and runs dual simplex
     from whatever basis that handle last held — a cold start happens
     only on each worker's first node. *)
  let handles = Array.make workers None in
  (* Likewise one stateful guide instance per worker: the factory's
     instances carry the incremental DeepPoly prefix cache, which is
     mutable and must stay confined to one domain.  Consecutive nodes
     of a subtree batch share long fixing prefixes, so the warm state
     survives within a batch; a stolen subtree simply diverges at a
     shallow layer and the instance re-propagates from there. *)
  let guides = Array.make workers None in
  let guide_for id =
    match options.Milp.absint with
    | None -> None
    | Some f -> (
        match guides.(id) with
        | Some _ as g -> g
        | None ->
            let g = f.Milp.new_guide () in
            guides.(id) <- Some g;
            Some g)
  in
  let guide_stats_before =
    match options.Milp.absint with
    | None -> Milp.empty_guide_stats
    | Some f -> f.Milp.guide_stats ()
  in
  let int_vars = Lp.integer_vars model in
  let solve_node id node =
    if options.Milp.lp_dense then Simplex.solve_dense node
    else begin
      let handle =
        match handles.(id) with
        | Some h -> h
        | None ->
            let h = Simplex.create model in
            handles.(id) <- Some h;
            h
      in
      List.iter
        (fun v ->
          let lo, up = Lp.var_bounds node v in
          Simplex.set_var_bounds handle v ~lo ~up)
        int_vars;
      Simplex.resolve handle
    end
  in
  let stop () =
    (options.Milp.find_first && Atomic.get s.found)
    || Atomic.get s.hit_limit || Atomic.get s.hit_deadline
    || Atomic.get s.relaxation_unbounded
  in
  let try_publish objective sol =
    Mutex.protect s.incumbent_lock (fun () ->
        match !(s.incumbent) with
        | Some (obj, _) when not (better objective obj) -> ()
        | _ ->
            s.incumbent := Some (objective, sol);
            Atomic.incr s.updates;
            Atomic.set s.found true)
  in
  let pruned_by_incumbent objective =
    Mutex.protect s.incumbent_lock (fun () ->
        match !(s.incumbent) with
        | Some (obj, _) -> not (better objective obj)
        | None -> false)
  in
  (* One pool task is a bounded subtree search, not a single node LP:
     the worker runs its own depth-first stack for up to [task_batch]
     nodes, so per-task pool overhead (two deque lock rounds and the
     shared pending counter) amortizes over the batch and consecutive
     node LPs stay on this worker's warm basis.  Two things leave the
     task: subtrees beyond [max_local_stack] — the *shallowest* stack
     entries, the largest open subtrees — spill back to the pool where
     idle workers steal them, and whatever the batch budget did not
     reach is re-enqueued when the task ends. *)
  let batch = Stdlib.max 1 options.Milp.task_batch in
  let max_local_stack = 8 in
  let rec split_at n l =
    if n = 0 then ([], l)
    else
      match l with
      | [] -> ([], [])
      | x :: rest ->
          let a, b = split_at (n - 1) rest in
          (x :: a, b)
  in
  let process id root =
    let stack = ref [ root ] in
    let spilled = ref [] in (* shallowest-first across spill rounds *)
    let processed = ref 0 in
    let truncated = ref false in
    while !stack <> [] && not !truncated do
      if !processed >= batch || stop () then truncated := true
      else if Atomic.get s.nodes >= options.Milp.max_nodes then begin
        Atomic.set s.hit_limit true;
        truncated := true
      end
      else if Clock.expired deadline then begin
        Atomic.set s.hit_deadline true;
        truncated := true
      end
      else begin
        let node = List.hd !stack in
        stack := List.tl !stack;
        (* Physical equality identifies the root: [branch_children]
           always allocates fresh child records, so only the original
           seeded model can ever be [==] to itself here. *)
        let is_root = node == model in
        (* Same guide protocol as the sequential solver: consult before
           the LP, prune without solving, fix implied phases first. *)
        let guidance =
          match guide_for id with
          | None -> None
          | Some g -> Some (g node)
        in
        match guidance with
        | Some g when g.Milp.prune -> Atomic.incr s.absint_prunes
        | _ -> (
        let node =
          match guidance with
          | Some { Milp.fix = _ :: _ as fix; _ } ->
              ignore (Atomic.fetch_and_add s.absint_fixes (List.length fix));
              List.fold_left
                (fun m (v, x) ->
                  Lp.set_var_bounds m v ~lo:(Some x) ~up:(Some x))
                node fix
          | _ -> node
        in
        incr processed;
        Atomic.incr s.nodes;
        per_worker_nodes.(id) <- per_worker_nodes.(id) + 1;
        Atomic.incr s.lps;
        let lp_started = Clock.now_s () in
        let status = solve_node id node in
        let status =
          if Faults.fire Faults.Lp_unbounded then Simplex.Unbounded else status
        in
        let lp_s = Clock.now_s () -. lp_started in
        lp_time.(id) <- lp_time.(id) +. lp_s;
        Milp.observe_lp_s lp_s;
        match status with
        | Simplex.Infeasible -> ()
        | Simplex.Unbounded ->
            if is_root then begin
              (* The root relaxation really is unbounded: no finite
                 bound exists, abandon the search and report. *)
              Atomic.set s.relaxation_unbounded true;
              truncated := true
            end
            else
              (* Below a bounded root this is a numerical artifact, not
                 an unboundedness proof (a child's feasible set is
                 contained in the root's).  Drop the subtree and keep
                 the other workers searching; the flag downgrades any
                 optimality claim at classification time. *)
              Atomic.set s.unbounded_truncated true
        | Simplex.Optimal { objective; solution } -> (
            if pruned_by_incumbent objective then ()
            else
              let branch_var =
                match (options.Milp.branch_rule, guidance) with
                | Milp.Bound_width, Some { Milp.widths = _ :: _ as widths; _ }
                  ->
                    Milp.find_branch_var_widest ~tol:options.Milp.int_tol node
                      solution widths
                | Milp.Guide_order, Some { Milp.widths = _ :: _ as widths; _ }
                  ->
                    Milp.find_branch_var_ordered ~tol:options.Milp.int_tol node
                      solution widths
                | _ ->
                    Milp.find_branch_var ~tol:options.Milp.int_tol node
                      solution
              in
              match branch_var with
              | None ->
                  let sol =
                    Milp.round_integral ~tol:options.Milp.int_tol node solution
                  in
                  try_publish objective sol
              | Some v ->
                  let first, second =
                    Milp.branch_children node v solution.(v)
                  in
                  (* Head of the list is the stack top: the preferred
                     branch goes on top, same dive order as the
                     sequential DFS. *)
                  stack := first :: second :: !stack;
                  if List.length !stack > max_local_stack then begin
                    let keep, spill = split_at max_local_stack !stack in
                    stack := keep;
                    (* [spill] is deepest-first (stack order); reverse
                       so earlier = shallower within this round, and
                       append so earlier rounds stay ahead — thieves
                       pop the front of the deque, so they always grab
                       the largest spilled subtree first. *)
                    spilled := !spilled @ List.rev spill
                  end))
      end
    done;
    (* The pool pushes children in list order to this worker's deque:
       thieves take the front (the spilled subtrees), this worker pops
       the back next — the reversed local stack puts its top last, so
       the dive resumes exactly where the batch budget cut it off.  On
       a truncating exit the re-enqueued nodes are dropped unprocessed
       by the pool's stop check, which is sound: every truncation path
       set its shared flag first, so the result is already classified
       as inconclusive. *)
    !spilled @ List.rev !stack
  in
  let pool_stats =
    Pool.run ~workers ~initial:[ model ] ~process ~stop
  in
  (* The pool contains task exceptions instead of letting them kill a
     domain, but for branch-and-bound a lost subtree voids the pruning
     proof: a search that dropped nodes must not report Infeasible or
     Optimal.  Re-raise here so the query-level retry ladder (or the
     campaign's crash isolation) decides what to do with the query. *)
  (match pool_stats.Pool.first_exn with Some e -> raise e | None -> ());
  (* Guide counters: the factory aggregates over every instance it
     made, so the workers' per-instance work is read as a single
     start/end delta after the pool joins (happens-before via
     [Pool.run]'s domain joins — no atomics in the hot path). *)
  let gd =
    match options.Milp.absint with
    | None -> Milp.empty_guide_stats
    | Some f -> Milp.sub_guide_stats (f.Milp.guide_stats ()) guide_stats_before
  in
  let pivots = ref 0 and warm = ref 0 and cold = ref 0 in
  let fallbacks = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some h ->
          let c = Simplex.counters h in
          Simplex.release h;
          pivots := !pivots + c.Simplex.pivots;
          warm := !warm + c.Simplex.warm_starts;
          cold := !cold + c.Simplex.cold_starts;
          fallbacks := !fallbacks + c.Simplex.fallbacks)
    handles;
  let stats =
    {
      Milp.nodes_explored = Atomic.get s.nodes;
      lp_solved = Atomic.get s.lps;
      incumbent_updates = Atomic.get s.updates;
      lp_time_s = Array.fold_left ( +. ) 0.0 lp_time;
      per_worker_nodes;
      steals = pool_stats.Pool.steals;
      max_queue_depth = pool_stats.Pool.max_queue_depth;
      pivots = !pivots;
      warm_starts = !warm;
      cold_starts = !cold;
      fallbacks = !fallbacks;
      absint_phase_fixes = Atomic.get s.absint_fixes;
      absint_prunes = Atomic.get s.absint_prunes;
      absint_incr_hits = gd.Milp.incr_hits;
      absint_layers_propagated = gd.Milp.layers_propagated;
      absint_layers_saved = gd.Milp.layers_saved;
      absint_cache_evictions = gd.Milp.cache_evictions;
    }
  in
  let result =
    match !(s.incumbent) with
    | Some (objective, solution) ->
        (* Same classification as the sequential solver: an incumbent is
           [Optimal] only when the search ran to exhaustion without any
           truncation — otherwise it is a witness, not a proof. *)
        let proven =
          (not options.Milp.find_first)
          && (not (Atomic.get s.hit_limit))
          && (not (Atomic.get s.hit_deadline))
          && (not (Atomic.get s.relaxation_unbounded))
          && not (Atomic.get s.unbounded_truncated)
        in
        if proven then Milp.Optimal { objective; solution }
        else Milp.Feasible { objective; solution }
    | None ->
        if Atomic.get s.relaxation_unbounded then Milp.Unbounded
        else if Atomic.get s.hit_deadline then Milp.Timeout
        else if Atomic.get s.hit_limit || Atomic.get s.unbounded_truncated then
          Milp.Node_limit
        else Milp.Infeasible
  in
  Milp.record_metrics stats;
  if trace_t0 <> 0 then
    Dpv_obs.Trace.complete
      ~args:
        [
          ("workers", string_of_int workers);
          ("nodes", string_of_int stats.Milp.nodes_explored);
          ("steals", string_of_int stats.Milp.steals);
        ]
      ~name:"milp.solve" trace_t0;
  (result, stats)

let solve_with_stats ?(options = Milp.default_options) model =
  if options.Milp.workers < 1 then
    invalid_arg "Milp_par.solve_with_stats: workers must be >= 1"
  else if options.Milp.workers = 1 then Milp.solve_with_stats ~options model
  else solve_parallel ~options model

let solve ?options model = fst (solve_with_stats ?options model)
