(* Sequential/parallel branch-and-bound agreement, deadline handling,
   and deterministic branching. *)

module Lp = Dpv_linprog.Lp
module Milp = Dpv_linprog.Milp
module Milp_par = Dpv_linprog.Milp_par
module Clock = Dpv_linprog.Clock
module Pool = Dpv_linprog.Pool
module Rng = Dpv_tensor.Rng

let check_float = Alcotest.(check (float 1e-6))

let seq_options = { Milp.default_options with workers = 1 }
let par_options = { Milp.default_options with workers = 4 }

(* Random bounded MILP with a mix of integer and continuous variables.
   rhs >= 0 keeps the origin feasible, so every instance has an optimum. *)
let random_milp rng =
  let nv = 2 + Rng.int rng 4 in
  let nc = 1 + Rng.int rng 4 in
  let m = ref (Lp.create ()) in
  let vars =
    Array.init nv (fun i ->
        let kind = if i mod 2 = 0 then Lp.Integer else Lp.Continuous in
        let model, v = Lp.add_var ~lo:0.0 ~up:6.0 ~kind !m in
        m := model;
        v)
  in
  for _ = 1 to nc do
    let terms =
      Array.to_list
        (Array.map (fun v -> (Rng.uniform rng ~lo:(-2.0) ~hi:3.0, v)) vars)
    in
    m := Lp.add_constraint !m terms Lp.Le (Rng.uniform rng ~lo:0.0 ~hi:15.0)
  done;
  let obj =
    Array.to_list
      (Array.map (fun v -> (Rng.uniform rng ~lo:(-1.0) ~hi:1.0, v)) vars)
  in
  m := Lp.set_objective !m Lp.Maximize obj;
  !m

let classification = function
  | Milp.Optimal _ -> "optimal"
  | Milp.Feasible _ -> "feasible"
  | Milp.Infeasible -> "infeasible"
  | Milp.Unbounded -> "unbounded"
  | Milp.Node_limit -> "node-limit"
  | Milp.Timeout -> "timeout"

(* An instance whose tree is astronomically large: binary subset-sum of
   even weights against an odd target.  Every LP relaxation deep into
   the tree stays feasible (fractional), yet no integer point exists, so
   the solver must either exhaust ~2^n nodes or hit a limit. *)
let hard_infeasible_model n =
  let m = ref (Lp.create ()) in
  let vars =
    Array.init n (fun _ ->
        let model, v = Lp.add_var ~kind:Lp.Binary !m in
        m := model;
        v)
  in
  let terms = Array.to_list (Array.map (fun v -> (2.0, v)) vars) in
  (* n even makes n + 1 odd, while the left side is always even. *)
  m := Lp.add_constraint !m terms Lp.Eq (float_of_int (n + 1));
  !m

let hard_model () = hard_infeasible_model 30 (* 2*sum = 31: no solution *)

let test_parallel_agrees_on_random_milps () =
  let rng = Rng.create 20260807 in
  for _ = 1 to 40 do
    let model = random_milp rng in
    let seq, _ = Milp_par.solve_with_stats ~options:seq_options model in
    let par, stats = Milp_par.solve_with_stats ~options:par_options model in
    Alcotest.(check string)
      "classification agrees" (classification seq) (classification par);
    Alcotest.(check int) "per-worker nodes sum to total"
      stats.Milp.nodes_explored
      (Array.fold_left ( + ) 0 stats.Milp.per_worker_nodes);
    match (seq, par) with
    | Milp.Optimal { objective = o1; _ }, Milp.Optimal { objective = o2; solution } ->
        check_float "objective agrees" o1 o2;
        Alcotest.(check bool)
          "parallel witness is feasible" true
          (Lp.check_feasible ~tol:1e-5 model solution)
    | _ -> ()
  done

let test_task_batch_infeasible_proof () =
  (* An exhaustive infeasibility proof must visit the same tree however
     many workers share it and however their dives are cut into pool
     tasks. *)
  let model = hard_infeasible_model 10 in
  let _, seq_stats = Milp_par.solve_with_stats ~options:seq_options model in
  let result, stats = Milp_par.solve_with_stats ~options:par_options model in
  Alcotest.(check string) "proved infeasible" "infeasible"
    (classification result);
  Alcotest.(check int) "4 workers explore the full tree"
    seq_stats.Milp.nodes_explored stats.Milp.nodes_explored

let test_parallel_find_first_agrees () =
  let rng = Rng.create 777 in
  let options_seq = { seq_options with Milp.find_first = true } in
  let options_par = { par_options with Milp.find_first = true } in
  for _ = 1 to 25 do
    let model = random_milp rng in
    let seq = Milp_par.solve ~options:options_seq model in
    let par = Milp_par.solve ~options:options_par model in
    Alcotest.(check string)
      "feasibility classification agrees"
      (classification seq) (classification par)
  done

let test_parallel_infeasible () =
  (* 2x = 1 with x binary: both solvers must prove infeasibility. *)
  let m = Lp.create () in
  let m, x = Lp.add_var ~kind:Lp.Binary m in
  let m = Lp.add_constraint m [ (2.0, x) ] Lp.Eq 1.0 in
  (match Milp_par.solve ~options:par_options m with
  | Milp.Infeasible -> ()
  | r -> Alcotest.failf "expected infeasible, got %s" (classification r))

let test_sequential_fallback_is_sequential () =
  (* workers = 1 must produce the sequential solver's exact stats shape:
     one worker slot, zero steals. *)
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:0.0 ~up:10.0 ~kind:Lp.Integer m in
  let m = Lp.set_objective m Lp.Maximize [ (1.0, x) ] in
  let _, stats = Milp_par.solve_with_stats ~options:seq_options m in
  Alcotest.(check int) "one worker slot" 1
    (Array.length stats.Milp.per_worker_nodes);
  Alcotest.(check int) "no steals" 0 stats.Milp.steals;
  Alcotest.(check int) "per-worker sums to total" stats.Milp.nodes_explored
    stats.Milp.per_worker_nodes.(0)

let test_parallel_stats_accounting () =
  let model = hard_infeasible_model 12 in (* finishes: 2^12 tree is fine *)
  let result, stats = Milp_par.solve_with_stats ~options:par_options model in
  Alcotest.(check string) "still infeasible" "infeasible"
    (classification result);
  Alcotest.(check int) "4 worker slots" 4
    (Array.length stats.Milp.per_worker_nodes);
  Alcotest.(check int) "per-worker node counts sum to the total"
    stats.Milp.nodes_explored
    (Array.fold_left ( + ) 0 stats.Milp.per_worker_nodes);
  Alcotest.(check bool) "lp wall time measured" true
    (stats.Milp.lp_time_s > 0.0);
  Alcotest.(check bool) "queues were used" true (stats.Milp.max_queue_depth >= 1)

let test_deadline_returns_timeout_sequential () =
  let options =
    { seq_options with Milp.max_nodes = max_int; time_limit_s = Some 0.25 }
  in
  let started = Clock.now_s () in
  match Milp_par.solve ~options (hard_model ()) with
  | Milp.Timeout ->
      let elapsed = Clock.now_s () -. started in
      Alcotest.(check bool) "stopped near the deadline" true (elapsed < 5.0)
  | r -> Alcotest.failf "expected timeout, got %s" (classification r)

let test_deadline_returns_timeout_parallel () =
  let options =
    { par_options with Milp.max_nodes = max_int; time_limit_s = Some 0.25 }
  in
  let started = Clock.now_s () in
  match Milp_par.solve ~options (hard_model ()) with
  | Milp.Timeout ->
      let elapsed = Clock.now_s () -. started in
      Alcotest.(check bool) "stopped near the deadline" true (elapsed < 5.0)
  | r -> Alcotest.failf "expected timeout, got %s" (classification r)

let test_node_limit_still_reported () =
  let options = { par_options with Milp.max_nodes = 50 } in
  match Milp_par.solve ~options (hard_model ()) with
  | Milp.Node_limit -> ()
  | r -> Alcotest.failf "expected node-limit, got %s" (classification r)

(* Easy to find an incumbent, astronomically hard to prove optimality:
   maximize sum x_i over n binaries subject to sum 2 x_i <= n - 1.  The
   LP relaxation is 11.5 (for n = 24) at essentially every node while
   the integer optimum is 11, so bound pruning never fires and the full
   proof tree has ~2^n nodes.  A depth-first dive reaches an integral
   relaxation of value 11 after fixing 13 variables to zero (~14 nodes),
   so any truncated run holds an incumbent it cannot have proven. *)
let hard_incumbent_model n =
  let m = ref (Lp.create ()) in
  let vars =
    Array.init n (fun _ ->
        let model, v = Lp.add_var ~kind:Lp.Binary !m in
        m := model;
        v)
  in
  let terms = Array.to_list (Array.map (fun v -> (2.0, v)) vars) in
  m := Lp.add_constraint !m terms Lp.Le (float_of_int (n - 1));
  m :=
    Lp.set_objective !m Lp.Maximize
      (Array.to_list (Array.map (fun v -> (1.0, v)) vars));
  !m

let expect_feasible_11 ~label model result =
  match result with
  | Milp.Feasible { objective; solution } ->
      check_float (label ^ ": incumbent objective") 11.0 objective;
      Alcotest.(check bool)
        (label ^ ": incumbent satisfies the model") true
        (Lp.check_feasible ~tol:1e-6 model solution)
  | Milp.Optimal _ ->
      Alcotest.failf "%s: truncated search must not claim Optimal" label
  | r -> Alcotest.failf "%s: expected feasible, got %s" label (classification r)

let test_truncated_incumbent_feasible_sequential () =
  let model = hard_incumbent_model 24 in
  let options = { seq_options with Milp.max_nodes = 200 } in
  expect_feasible_11 ~label:"seq node limit" model (Milp_par.solve ~options model)

let test_truncated_incumbent_feasible_parallel () =
  let model = hard_incumbent_model 24 in
  let options = { par_options with Milp.max_nodes = 400 } in
  expect_feasible_11 ~label:"par node limit" model
    (Milp_par.solve ~options model)

let test_deadline_incumbent_feasible () =
  let model = hard_incumbent_model 24 in
  let options =
    { seq_options with Milp.max_nodes = max_int; time_limit_s = Some 0.3 }
  in
  let started = Clock.now_s () in
  expect_feasible_11 ~label:"seq deadline" model (Milp_par.solve ~options model);
  Alcotest.(check bool) "stopped near the deadline" true
    (Clock.now_s () -. started < 5.0)

let test_sequential_queue_depth_tracked () =
  (* The DFS stack on the subset-sum tree must reach depth >= 2 and the
     high-water mark is tracked incrementally (not recomputed per node). *)
  let model = hard_infeasible_model 8 in
  let result, stats = Milp_par.solve_with_stats ~options:seq_options model in
  Alcotest.(check string) "proved infeasible" "infeasible"
    (classification result);
  Alcotest.(check bool) "stack depth tracked" true
    (stats.Milp.max_queue_depth >= 2);
  Alcotest.(check bool) "depth bounded by nodes" true
    (stats.Milp.max_queue_depth <= stats.Milp.nodes_explored + 1)

(* Golden one-worker search: the exact bits of every answer and every
   deterministic work count of the one-worker search, over a fixed
   battery.  Any change to the node step, the branch rules, the guide
   protocol or the DFS order moves the digest.  Never re-record it to
   make a change pass. *)
let float_bits x = Int64.to_string (Int64.bits_of_float x)

let search_fingerprint result (s : Milp.stats) =
  let answer =
    match result with
    | Milp.Optimal { objective; solution } | Milp.Feasible { objective; solution }
      ->
        float_bits objective :: Array.to_list (Array.map float_bits solution)
    | _ -> []
  in
  String.concat " "
    ((classification result :: answer)
    @ List.map string_of_int
        [
          s.Milp.nodes_explored;
          s.Milp.lp_solved;
          s.Milp.pivots;
          s.Milp.warm_starts;
          s.Milp.cold_starts;
          s.Milp.incumbent_updates;
          s.Milp.max_queue_depth;
        ]
    @ Array.to_list (Array.map string_of_int s.Milp.per_worker_nodes))

let guided_fingerprint branch_rule =
  let module Verify = Dpv_core.Verify in
  let module G = Test_absint_guided in
  let r =
    Verify.verify ~absint:true
      ~milp_options:
        { Verify.default_milp_options with Milp.workers = 1; branch_rule }
      ~perception:G.deep_perception ~characterizer:G.deep_characterizer
      ~psi:G.deep_psi ~bounds:G.deep_bounds ()
  in
  let s = r.Verify.milp_stats in
  let verdict =
    match r.Verify.verdict with
    | Verify.Safe _ -> "safe"
    | Verify.Unsafe { features; _ } ->
        String.concat " "
          ("unsafe" :: Array.to_list (Array.map float_bits features))
    | Verify.Unknown reason -> "unknown " ^ reason
  in
  String.concat " "
    (verdict
    :: List.map string_of_int
         [
           s.Milp.nodes_explored;
           s.Milp.lp_solved;
           s.Milp.pivots;
           s.Milp.warm_starts;
           s.Milp.cold_starts;
           s.Milp.incumbent_updates;
           s.Milp.max_queue_depth;
           s.Milp.absint_prunes;
           s.Milp.absint_phase_fixes;
           s.Milp.absint_layers_propagated;
           s.Milp.absint_layers_saved;
           s.Milp.absint_incr_hits;
         ]
    @ Array.to_list (Array.map string_of_int s.Milp.per_worker_nodes))

let test_golden_one_worker_search () =
  let one_worker model options =
    let result, stats = Milp_par.solve_with_stats ~options model in
    search_fingerprint result stats
  in
  let rng = Rng.create 20260807 in
  let random = List.init 40 (fun _ -> one_worker (random_milp rng) seq_options) in
  let lines =
    random
    @ [
        one_worker (hard_infeasible_model 10) seq_options;
        one_worker (hard_incumbent_model 24)
          { seq_options with Milp.max_nodes = 200 };
      ]
    @ List.map guided_fingerprint
        [ Milp.Most_fractional; Milp.Bound_width; Milp.Guide_order ]
  in
  Alcotest.(check string)
    "one-worker search digest" "86a8256e08be94f0d96463568489dc11"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* The two synthetic MILPs of [bench/main.exe --smoke], built with the
   same RNG draws ([hard_infeasible_model] is the bench's subset-sum
   model).  Their one-worker work counts are pinned exactly: the same
   kind of count as the digest above, readable row by row.  Never
   re-record them to make a change pass. *)
let knapsack_model n =
  let rng = Rng.create 99 in
  let m = ref (Lp.create ()) in
  let vars =
    Array.init n (fun _ ->
        let model, v = Lp.add_var ~kind:Lp.Binary !m in
        m := model;
        v)
  in
  let weights = Array.map (fun _ -> Rng.uniform rng ~lo:1.0 ~hi:9.0) vars in
  let values = Array.map (fun _ -> Rng.uniform rng ~lo:1.0 ~hi:9.0) vars in
  let terms f = Array.to_list (Array.mapi (fun i v -> (f.(i), v)) vars) in
  m :=
    Lp.add_constraint !m (terms weights) Lp.Le
      (0.4 *. Array.fold_left ( +. ) 0.0 weights);
  Lp.set_objective !m Lp.Maximize (terms values)

let test_golden_smoke_counts () =
  List.iter
    (fun (label, model, verdict, counts) ->
      let result, s = Milp_par.solve_with_stats ~options:seq_options model in
      Alcotest.(check string) (label ^ ": result") verdict
        (classification result);
      Alcotest.(check (list int))
        (label ^ ": nodes, lps, pivots, warm, cold, max queue depth") counts
        [
          s.Milp.nodes_explored;
          s.Milp.lp_solved;
          s.Milp.pivots;
          s.Milp.warm_starts;
          s.Milp.cold_starts;
          s.Milp.max_queue_depth;
        ])
    [
      ("knapsack:16", knapsack_model 16, "optimal", [ 17; 17; 37; 16; 1; 9 ]);
      ( "subset-sum:14",
        hard_infeasible_model 14,
        "infeasible",
        [ 12869; 12869; 7595; 12868; 1; 8 ] );
    ]

(* A bisected query folds its sub-box solves with [add_stats]: the
   merged record must keep one slot per worker, not one per sub-box. *)
let test_add_stats_per_worker_slots () =
  let stats per_worker_nodes =
    {
      Milp.empty_stats with
      Milp.nodes_explored = Array.fold_left ( + ) 0 per_worker_nodes;
      per_worker_nodes;
    }
  in
  let merged =
    List.fold_left Milp.add_stats Milp.empty_stats
      [ stats [| 3 |]; stats [| 5 |]; stats [| 23 |]; stats [| 15 |] ]
  in
  Alcotest.(check (array int)) "one-worker solves share one slot" [| 46 |]
    merged.Milp.per_worker_nodes;
  Alcotest.(check bool) "no solver line for one worker" false
    (Test_faults.contains ~needle:"solver:"
       (Format.asprintf "%a" Dpv_core.Report.pp_milp_stats merged));
  List.iter
    (fun (label, a, b) ->
      let m = Milp.add_stats a b in
      Alcotest.(check (array int)) (label ^ ": slot-wise sum") [| 8; 2; 3; 4 |]
        m.Milp.per_worker_nodes;
      Alcotest.(check int) (label ^ ": slots total the nodes")
        m.Milp.nodes_explored
        (Array.fold_left ( + ) 0 m.Milp.per_worker_nodes))
    [
      ("one + four", stats [| 7 |], stats [| 1; 2; 3; 4 |]);
      ("four + one", stats [| 1; 2; 3; 4 |], stats [| 7 |]);
    ]

let test_branch_var_lowest_index_tie () =
  (* Two integer variables equally fractional at 0.5: branching must
     pick the lower index deterministically. *)
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:0.0 ~up:1.0 ~kind:Lp.Integer m in
  let m, y = Lp.add_var ~lo:0.0 ~up:1.0 ~kind:Lp.Integer m in
  (match Milp.find_branch_var ~tol:1e-6 m [| 0.5; 0.5 |] with
  | Some v -> Alcotest.(check int) "lowest index wins" x v
  | None -> Alcotest.fail "expected a fractional branch variable");
  (* And strictly-more-fractional still beats index order. *)
  match Milp.find_branch_var ~tol:1e-6 m [| 0.9; 0.5 |] with
  | Some v -> Alcotest.(check int) "most fractional wins" y v
  | None -> Alcotest.fail "expected a fractional branch variable"

let test_pool_processes_whole_tree () =
  (* Sanity check of the pool itself: expand a binary tree of depth 10
     and count the leaves across 4 workers. *)
  let leaves = Atomic.make 0 in
  let process _id depth =
    if depth = 0 then begin
      Atomic.incr leaves;
      []
    end
    else [ depth - 1; depth - 1 ]
  in
  let stats =
    Pool.run ~workers:4 ~initial:[ 10 ] ~process ~stop:(fun () -> false)
  in
  Alcotest.(check int) "all leaves visited" 1024 (Atomic.get leaves);
  Alcotest.(check int) "work accounted" 2047
    (Array.fold_left ( + ) 0 stats.Pool.per_worker_tasks)

let tests =
  [
    Alcotest.test_case "pool processes whole tree" `Quick
      test_pool_processes_whole_tree;
    Alcotest.test_case "parallel agrees on random MILPs" `Quick
      test_parallel_agrees_on_random_milps;
    Alcotest.test_case "parallel find-first agrees" `Quick
      test_parallel_find_first_agrees;
    Alcotest.test_case "task-batch infeasible proof is exhaustive" `Quick
      test_task_batch_infeasible_proof;
    Alcotest.test_case "parallel proves infeasibility" `Quick
      test_parallel_infeasible;
    Alcotest.test_case "workers=1 is the sequential solver" `Quick
      test_sequential_fallback_is_sequential;
    Alcotest.test_case "parallel stats accounting" `Quick
      test_parallel_stats_accounting;
    Alcotest.test_case "deadline -> Timeout (sequential)" `Quick
      test_deadline_returns_timeout_sequential;
    Alcotest.test_case "deadline -> Timeout (parallel)" `Quick
      test_deadline_returns_timeout_parallel;
    Alcotest.test_case "node limit still reported" `Quick
      test_node_limit_still_reported;
    Alcotest.test_case "truncated incumbent -> Feasible (sequential)" `Quick
      test_truncated_incumbent_feasible_sequential;
    Alcotest.test_case "truncated incumbent -> Feasible (parallel)" `Quick
      test_truncated_incumbent_feasible_parallel;
    Alcotest.test_case "deadline incumbent -> Feasible" `Quick
      test_deadline_incumbent_feasible;
    Alcotest.test_case "sequential queue depth tracked" `Quick
      test_sequential_queue_depth_tracked;
    Alcotest.test_case "golden one-worker search" `Quick
      test_golden_one_worker_search;
    Alcotest.test_case "golden: smoke MILP counts" `Quick
      test_golden_smoke_counts;
    Alcotest.test_case "add_stats sums per-worker slots" `Quick
      test_add_stats_per_worker_slots;
    Alcotest.test_case "branch-var tie-break by lowest index" `Quick
      test_branch_var_lowest_index_tie;
  ]
