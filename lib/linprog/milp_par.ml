let default_workers () =
  Stdlib.max 1 (Domain.recommended_domain_count () - 1)

(* ---- branching ---- *)

let is_integral ~tol x = Float.abs (x -. Float.round x) <= tol

(* Widest-interval fractional variable under [Bound_width]: among the
   fractional integer variables that the guide scored, take the one
   whose pre-activation interval is widest (ties go to the lowest index,
   like [Milp.find_branch_var], for run-to-run stability).  Falls back
   to most-fractional when the guide scored none of the candidates. *)
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
  | None -> Milp.find_branch_var ~tol model solution

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
  | None -> Milp.find_branch_var ~tol model solution

(* Snap near-integral integer variables of a relaxation solution to
   exact integers before it is published as an incumbent. *)
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
  if x -. floor_v <= ceil_v -. x then [ down; up_node ] else [ up_node; down ]

(* ---- metrics ---- *)

(* Global metrics, folded from the finished [stats] record at the end of
   each solve rather than incremented per pivot: the campaign-level
   counter totals then equal the sum of the per-query stats exactly, and
   the search hot loop gains no atomic traffic.  The per-LP latency
   histogram reuses the two clock reads the [lp_time_s] accounting
   already makes. *)
module Metrics = Dpv_obs.Metrics

let m_solves = Metrics.counter "milp.solves"
let m_lp_time = Metrics.counter "milp.lp_time_ns"
let lp_solve_hist = Metrics.histogram "milp.lp_solve_ns"

(* One exporter per row of [Milp.counters], its metric registered once. *)
let m_counters =
  List.map
    (fun (c : Milp.counter) ->
      match c.merge with
      | Milp.Sum ->
          let m = Metrics.counter c.metric in
          fun s -> Metrics.incr m (c.get s)
      | Milp.Max ->
          let m = Metrics.gauge c.metric in
          fun s -> Metrics.set_max m (c.get s))
    Milp.counters

let record_metrics (s : Milp.stats) =
  Metrics.incr m_solves 1;
  Metrics.incr m_lp_time (int_of_float (s.lp_time_s *. 1e9));
  List.iter (fun export -> export s) m_counters

(* ---- search state ---- *)

(* One solve: its inputs, then the state every worker shares.  The
   incumbent needs a compound compare-and-publish, so writers take a
   mutex; the published value is an immutable pair in an atomic, so the
   per-node pruning read takes no lock.  Everything else touched once
   per node at most rides on atomics. *)
type search = {
  options : Milp.options;
  model : Lp.t;  (* the root, identified by physical equality *)
  int_vars : Lp.var list;
  complete : (float array -> float array) option;
      (* [Lp.complete] on the root, when it records definitions *)
  better : float -> float -> bool;  (* [better a b]: [a] improves on [b] *)
  deadline : Clock.deadline;
  incumbent : (float * float array) option Atomic.t;
  incumbent_lock : Mutex.t;
  nodes : int Atomic.t;
  updates : int Atomic.t;
  found : bool Atomic.t;          (* an incumbent exists (find_first exit) *)
  completed_at : int Atomic.t;
      (* the node whose completed LP point is the incumbent, 0 when the
         incumbent is an integral LP point or there is none *)
  hit_limit : bool Atomic.t;
  hit_deadline : bool Atomic.t;
  relaxation_unbounded : bool Atomic.t;  (* root LP unbounded: halt *)
  unbounded_truncated : bool Atomic.t;   (* non-root artifact: go on *)
  absint_fixes : int Atomic.t;
  absint_prunes : int Atomic.t;
}

(* Everything one worker owns, touched only from the domain that runs
   it.  The simplex handle is created lazily on that domain and persists
   across the worker's nodes: nodes differ only in integer-variable
   bounds, so syncing those bounds warm-starts dual simplex from
   whatever basis the handle last held (a stolen node included) — a
   cold start happens only on each worker's first node.  Likewise one
   guide instance per worker: the factory's instances carry the
   incremental DeepPoly prefix cache, which is mutable and must stay
   confined to one domain. *)
type worker = {
  mutable handle : Simplex.handle option;
  mutable guide : Milp.guide option;
  mutable explored : int;  (* nodes whose LP this worker solved *)
  mutable lp_time_s : float;
}

let new_search (options : Milp.options) model =
  let sense, _ = Lp.objective model in
  {
    options;
    model;
    int_vars = Lp.integer_vars model;
    complete =
      (if Lp.num_definitions model > 0 then Some (Lp.complete model) else None);
    better =
      (match sense with
      | Lp.Minimize -> fun a b -> a < b -. 1e-12
      | Lp.Maximize -> fun a b -> a > b +. 1e-12);
    deadline = Clock.deadline_after options.time_limit_s;
    incumbent = Atomic.make None;
    incumbent_lock = Mutex.create ();
    nodes = Atomic.make 0;
    updates = Atomic.make 0;
    found = Atomic.make false;
    completed_at = Atomic.make 0;
    hit_limit = Atomic.make false;
    hit_deadline = Atomic.make false;
    relaxation_unbounded = Atomic.make false;
    unbounded_truncated = Atomic.make false;
    absint_fixes = Atomic.make 0;
    absint_prunes = Atomic.make 0;
  }

let new_worker () = { handle = None; guide = None; explored = 0; lp_time_s = 0.0 }

(* A flag that ends the whole search: set by one worker, honoured by
   all of them (and by the pool, which drops queued nodes). *)
let stopped s =
  (s.options.find_first && Atomic.get s.found)
  || Atomic.get s.hit_limit || Atomic.get s.hit_deadline
  || Atomic.get s.relaxation_unbounded

(* The admission check before every node: the stop flags, then the
   node cap, then the deadline.  A failed cap or deadline check sets
   its flag, so the other workers stop too. *)
let admit s =
  if stopped s then false
  else if Atomic.get s.nodes >= s.options.max_nodes then begin
    Atomic.set s.hit_limit true;
    false
  end
  else if Clock.expired s.deadline then begin
    Atomic.set s.hit_deadline true;
    false
  end
  else true

(* ---- the node step ---- *)

let consult s w node =
  match s.options.absint with
  | None -> None
  | Some f ->
      let g =
        match w.guide with
        | Some g -> g
        | None ->
            let g = f.new_guide () in
            w.guide <- Some g;
            g
      in
      Some (g node)

(* [lp_dense] is the last rung of the retry ladder: every node LP is
   solved with the dense reference implementation, trading speed for a
   path with no incremental basis state to corrupt. *)
let solve_lp s w node =
  if s.options.lp_dense then Simplex.solve_dense node
  else begin
    let h =
      match w.handle with
      | Some h -> h
      | None ->
          let h = Simplex.create s.model in
          w.handle <- Some h;
          h
    in
    List.iter
      (fun v ->
        let lo, up = Lp.var_bounds node v in
        Simplex.set_var_bounds h v ~lo ~up)
      s.int_vars;
    Simplex.resolve h
  end

let pruned_by_incumbent s objective =
  match Atomic.get s.incumbent with
  | Some (obj, _) -> not (s.better objective obj)
  | None -> false

let publish s ~completed_at objective sol =
  Mutex.protect s.incumbent_lock (fun () ->
      match Atomic.get s.incumbent with
      | Some (obj, _) when not (s.better objective obj) -> ()
      | _ ->
          Atomic.set s.incumbent (Some (objective, sol));
          Atomic.set s.completed_at completed_at;
          Atomic.incr s.updates;
          Atomic.set s.found true)

(* A branching node's LP point, completed through the root's
   definitions: for an encoding, the network's own values at the
   point's features.  When that point is integral and feasible on the
   root, it is as good a witness as any integral leaf below, so it is
   offered as the incumbent.  Returns whether it was feasible.  It
   reads the LP point only, so a rejected completion leaves the search
   exactly as it was. *)
let completes_feasibly s ~id solution =
  match s.complete with
  | None -> false
  | Some complete ->
      let tol = s.options.int_tol in
      let x = complete solution in
      List.for_all (fun v -> is_integral ~tol x.(v)) s.int_vars
      && begin
        List.iter (fun v -> x.(v) <- Float.round x.(v)) s.int_vars;
        Lp.check_feasible s.model x
      end
      && begin
        publish s ~completed_at:id
          (Lp.eval_term_list (snd (Lp.objective s.model)) x)
          x;
        true
      end

let branch_var (options : Milp.options) guidance node solution =
  let tol = options.int_tol in
  match (options.branch_rule, guidance) with
  | Milp.Bound_width, Some { Milp.widths = _ :: _ as widths; _ } ->
      find_branch_var_widest ~tol node solution widths
  | Milp.Guide_order, Some { Milp.widths = _ :: _ as widths; _ } ->
      find_branch_var_ordered ~tol node solution widths
  | _ -> Milp.find_branch_var ~tol node solution

(* One node: returns its children, preferred first, or [] when the node
   closes.  The guide, when armed, runs before the LP: a pruned node
   costs no simplex work at all, and phase fixes shrink the subtree the
   relaxation must cover. *)
let step s w node =
  (* [branch_children] and phase fixes always allocate fresh records,
     so only the seeded model itself is [==] to the root. *)
  let is_root = node == s.model in
  let guidance = consult s w node in
  match guidance with
  | Some g when g.Milp.prune ->
      Atomic.incr s.absint_prunes;
      []
  | _ -> (
      let node =
        match guidance with
        | Some { Milp.fix = _ :: _ as fix; _ } ->
            ignore (Atomic.fetch_and_add s.absint_fixes (List.length fix));
            List.fold_left
              (fun m (v, x) -> Lp.set_var_bounds m v ~lo:(Some x) ~up:(Some x))
              node fix
        | _ -> node
      in
      let id = 1 + Atomic.fetch_and_add s.nodes 1 in
      w.explored <- w.explored + 1;
      let lp_started = Clock.now_s () in
      let status = solve_lp s w node in
      let status =
        if Faults.fire Faults.Lp_unbounded then Simplex.Unbounded else status
      in
      let lp_s = Clock.now_s () -. lp_started in
      w.lp_time_s <- w.lp_time_s +. lp_s;
      Metrics.observe lp_solve_hist (int_of_float (lp_s *. 1e9));
      match status with
      | Simplex.Infeasible -> []
      | Simplex.Unbounded ->
          (* At the root this is an honest report: without a finite
             relaxation bound the MILP itself may be unbounded, and the
             flag halts the search.  A child's feasible set is contained
             in the root's, so below a bounded root it is a numerical
             artifact, not a proof: drop the subtree and keep exploring;
             the flag downgrades any optimality claim. *)
          Atomic.set
            (if is_root then s.relaxation_unbounded else s.unbounded_truncated)
            true;
          []
      | Simplex.Optimal { objective; solution } -> (
          if pruned_by_incumbent s objective then []
          else
            match branch_var s.options guidance node solution with
            | None ->
                publish s ~completed_at:0 objective
                  (round_integral ~tol:s.options.int_tol node solution);
                []
            | Some v ->
                if completes_feasibly s ~id solution && s.options.find_first
                then []
                else branch_children node v solution.(v)))

(* ---- frontiers ---- *)

(* One worker: a plain DFS list on the caller's domain.  Returns the
   list's high-water length, tracked incrementally and counting the
   seeded root, like the pool's per-deque high-water mark. *)
let run_dfs s w =
  let rec go stack depth high =
    match stack with
    | [] -> high
    | node :: rest ->
        if not (admit s) then high
        else
          let children = step s w node in
          let depth = depth - 1 + List.length children in
          go (children @ rest) depth (Stdlib.max high depth)
  in
  go [ s.model ] 1 1

(* Several workers: one pool task is a bounded subtree search, not a
   single node LP.  The worker dives depth-first on a local stack for
   up to [task_batch] node LPs, so per-task pool overhead (two deque
   lock rounds and the shared pending counter) amortizes over the batch
   and consecutive node LPs stay on this worker's warm basis.  Two
   things leave the task: subtrees beyond [max_local_stack] — the
   *shallowest* stack entries, the largest open subtrees — spill back
   to the pool where idle workers steal them, and whatever the batch
   budget did not reach is re-enqueued when the task ends. *)
let run_pool s workers =
  let task_batch = 32 and max_local_stack = 8 in
  let process id root =
    let w = workers.(id) in
    let budget = w.explored + task_batch in
    let spilled = ref [] in (* shallowest-first across spill rounds *)
    (* The pool pushes the returned nodes in list order to this worker's
       deque: thieves take the front (the spilled subtrees), this worker
       pops the back next — the reversed local stack puts its top last,
       so the dive resumes exactly where the batch budget cut it off.
       On a stopping exit the re-enqueued nodes are dropped unprocessed
       by the pool's stop check, which is sound: every stop path set its
       shared flag first, so the result is already classified as
       inconclusive. *)
    let rec dive stack =
      match stack with
      | [] -> !spilled
      | node :: rest ->
          if w.explored >= budget || not (admit s) then
            !spilled @ List.rev stack
          else
            let stack = step s w node @ rest in
            if List.length stack <= max_local_stack then dive stack
            else begin
              let keep = List.filteri (fun i _ -> i < max_local_stack) stack
              and spill = List.filteri (fun i _ -> i >= max_local_stack) stack in
              (* [spill] is deepest-first (stack order); reverse so
                 earlier = shallower within this round, and append so
                 earlier rounds stay ahead — thieves pop the front of
                 the deque, so they always grab the largest spilled
                 subtree first. *)
              spilled := !spilled @ List.rev spill;
              dive keep
            end
    in
    dive [ root ]
  in
  let stats =
    Pool.run ~workers:(Array.length workers) ~initial:[ s.model ] ~process
      ~stop:(fun () -> stopped s)
  in
  (* The pool contains task exceptions instead of letting them kill a
     domain, but for branch-and-bound a lost subtree voids the pruning
     proof: a search that dropped nodes must not report Infeasible or
     Optimal.  Re-raise here so the query-level retry ladder (or the
     campaign's crash isolation) decides what to do with the query. *)
  (match stats.Pool.first_exn with Some e -> raise e | None -> ());
  stats

(* ---- finish ---- *)

(* [Optimal] is an optimality *proof*: the whole tree was pruned or
   exhausted.  Any truncation — node cap, deadline, find_first early
   exit, or an unbounded relaxation somewhere — leaves the incumbent a
   witness only. *)
let classify s =
  let flag = Atomic.get in
  match Atomic.get s.incumbent with
  | Some (objective, solution) ->
      let proven =
        (not s.options.find_first)
        && (not (flag s.hit_limit))
        && (not (flag s.hit_deadline))
        && (not (flag s.relaxation_unbounded))
        && not (flag s.unbounded_truncated)
      in
      if proven then Milp.Optimal { objective; solution }
      else Milp.Feasible { objective; solution }
  | None ->
      if flag s.relaxation_unbounded then Milp.Unbounded
      else if flag s.hit_deadline then Milp.Timeout
      else if flag s.hit_limit || flag s.unbounded_truncated then Milp.Node_limit
      else Milp.Infeasible

(* Runs after every worker is done (the pool's domain joins order their
   writes before these reads).  Guide counters are read as one
   start/end delta of the factory's aggregate, so a factory reused
   across solves still reports exactly this solve's work. *)
let finish s workers ~guide_before ~steals ~max_queue_depth ~trace_t0 =
  (* Release each handle and clear the worker's references: a worker
     record promoted during the search sits in the minor collector's
     remembered set, and a field still pointing at a young handle or
     guide would make the next minor collection promote that dead
     state into the major heap. *)
  let counters =
    Array.fold_left
      (fun acc w ->
        w.guide <- None;
        match w.handle with
        | None -> acc
        | Some h ->
            w.handle <- None;
            let c = Simplex.counters h in
            Simplex.release h;
            c :: acc)
      [] workers
  in
  let total f = List.fold_left (fun acc c -> acc + f c) 0 counters in
  let nodes = Atomic.get s.nodes in
  let stats =
    {
      Milp.empty_stats with
      nodes_explored = nodes;
      lp_solved = nodes;
      incumbent_updates = Atomic.get s.updates;
      lp_time_s = Array.fold_left (fun acc w -> acc +. w.lp_time_s) 0.0 workers;
      per_worker_nodes = Array.map (fun w -> w.explored) workers;
      steals;
      max_queue_depth;
      pivots = total (fun c -> c.Simplex.pivots);
      warm_starts = total (fun c -> c.Simplex.warm_starts);
      cold_starts = total (fun c -> c.Simplex.cold_starts);
      fallbacks = total (fun c -> c.Simplex.fallbacks);
      absint_phase_fixes = Atomic.get s.absint_fixes;
      absint_prunes = Atomic.get s.absint_prunes;
    }
  in
  let stats =
    match s.options.absint with
    | None -> stats
    | Some f ->
        let after = f.stats () in
        List.fold_left
          (fun acc (c : Milp.counter) ->
            c.set acc (c.get acc + c.get after - c.get guide_before))
          stats Milp.counters
  in
  let result = classify s in
  record_metrics stats;
  if trace_t0 <> 0 then begin
    let completed_at =
      match Atomic.get s.completed_at with
      | 0 -> []
      | id -> [ ("completed_at", string_of_int id) ]
    in
    Dpv_obs.Trace.complete
      ~args:
        ([
           ("workers", string_of_int (Array.length workers));
           ("nodes", string_of_int nodes);
           ("lps", string_of_int stats.lp_solved);
           ("pivots", string_of_int stats.pivots);
           ("steals", string_of_int steals);
         ]
        @ completed_at)
      ~name:"milp.solve" trace_t0
  end;
  (result, stats)

let solve_with_stats ?(options = Milp.default_options) model =
  if options.workers < 1 then
    invalid_arg "Milp_par.solve_with_stats: workers must be >= 1";
  let trace_t0 = Dpv_obs.Trace.begin_ns () in
  let s = new_search options model in
  let guide_before =
    match options.absint with
    | None -> Milp.empty_stats
    | Some f -> f.stats ()
  in
  let workers = Array.init options.workers (fun _ -> new_worker ()) in
  let steals, max_queue_depth =
    if options.workers = 1 then (0, run_dfs s workers.(0))
    else
      let p = run_pool s workers in
      (p.Pool.steals, p.Pool.max_queue_depth)
  in
  finish s workers ~guide_before ~steals ~max_queue_depth ~trace_t0

let solve ?options model = fst (solve_with_stats ?options model)
