(* Tests for the revised bounded-variable simplex: anti-cycling on
   Beale's example, differential agreement with the retained dense
   reference, and warm-start behavior of persistent handles. *)

module Lp = Dpv_linprog.Lp
module Simplex = Dpv_linprog.Simplex
module Milp = Dpv_linprog.Milp
module Milp_par = Dpv_linprog.Milp_par
module Rng = Dpv_tensor.Rng

let check_float = Alcotest.(check (float 1e-6))

let expect_optimal = function
  | Simplex.Optimal { objective; solution } -> (objective, solution)
  | Simplex.Infeasible -> Alcotest.fail "expected optimal, got infeasible"
  | Simplex.Unbounded -> Alcotest.fail "expected optimal, got unbounded"

(* Beale's example, the classic LP on which Dantzig pricing cycles
   forever without an anti-cycling guard.  Optimum: -0.05. *)
let beale () =
  let m = Lp.create () in
  let m, x1 = Lp.add_var ~lo:0.0 m in
  let m, x2 = Lp.add_var ~lo:0.0 m in
  let m, x3 = Lp.add_var ~lo:0.0 m in
  let m, x4 = Lp.add_var ~lo:0.0 m in
  let m =
    Lp.add_constraint m
      [ (0.25, x1); (-60.0, x2); (-1.0 /. 25.0, x3); (9.0, x4) ]
      Lp.Le 0.0
  in
  let m =
    Lp.add_constraint m
      [ (0.5, x1); (-90.0, x2); (-1.0 /. 50.0, x3); (3.0, x4) ]
      Lp.Le 0.0
  in
  let m = Lp.add_constraint m [ (1.0, x3) ] Lp.Le 1.0 in
  Lp.set_objective m Lp.Minimize
    [ (-0.75, x1); (150.0, x2); (-0.02, x3); (6.0, x4) ]

let test_beale_no_cycling () =
  let m = beale () in
  let obj, _ = expect_optimal (Simplex.solve m) in
  check_float "revised engine optimum" (-0.05) obj;
  let obj_dense, _ = expect_optimal (Simplex.solve_dense m) in
  check_float "dense reference optimum" (-0.05) obj_dense

(* The dual simplex's stall rule on a violation that dips once per lap
   of a cycle (3, 2, 3, 2, ...): measured against the previous
   iteration, every dip reset the streak and Bland's rule never came;
   measured against the best total so far, the streak runs from the
   first repeat on and must switch within [threshold] more steps. *)
let test_dual_stall_periodic () =
  let threshold = 25 in
  let s = Simplex.Stall.create () in
  let rec first_switch step =
    if step > 10 * threshold then None
    else
      let total = if step mod 2 = 0 then 3.0 else 2.0 in
      if Simplex.Stall.step s ~threshold total then Some step
      else first_switch (step + 1)
  in
  match first_switch 0 with
  | Some step ->
      Alcotest.(check bool)
        (Printf.sprintf "switched at step %d, within threshold" step)
        true
        (step <= threshold + 2)
  | None -> Alcotest.fail "a periodic violation never reached Bland's rule"

(* ---- Differential suite: the new engine against the retained dense
   reference on randomized LPs covering every bound shape (two-sided,
   one-sided, free) and every relation. ---- *)

let random_lp rng =
  let nv = 1 + Rng.int rng 5 in
  let nc = 1 + Rng.int rng 5 in
  let m = ref (Lp.create ()) in
  let vars =
    Array.init nv (fun _ ->
        let lo, up =
          match Rng.int rng 4 with
          | 0 ->
              let l = Rng.uniform rng ~lo:(-5.0) ~hi:2.0 in
              (Some l, Some (l +. Rng.uniform rng ~lo:0.0 ~hi:8.0))
          | 1 -> (Some (Rng.uniform rng ~lo:(-5.0) ~hi:2.0), None)
          | 2 -> (None, Some (Rng.uniform rng ~lo:(-2.0) ~hi:5.0))
          | _ -> (None, None)
        in
        let model, v = !m |> fun mm -> Lp.add_var ?lo ?up mm in
        m := model;
        v)
  in
  for _ = 1 to nc do
    let terms =
      Array.to_list
        (Array.map (fun v -> (Rng.uniform rng ~lo:(-3.0) ~hi:3.0, v)) vars)
    in
    let rel =
      match Rng.int rng 5 with 0 -> Lp.Ge | 1 -> Lp.Eq | _ -> Lp.Le
    in
    let rhs = Rng.uniform rng ~lo:(-5.0) ~hi:15.0 in
    m := Lp.add_constraint !m terms rel rhs
  done;
  let obj =
    Array.to_list
      (Array.map (fun v -> (Rng.uniform rng ~lo:(-1.0) ~hi:1.0, v)) vars)
  in
  let sense = if Rng.bool rng then Lp.Maximize else Lp.Minimize in
  Lp.set_objective !m sense obj

let status_word = function
  | Simplex.Optimal _ -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"

let test_differential_vs_dense () =
  let rng = Rng.create 20260807 in
  for case = 1 to 240 do
    let m = random_lp rng in
    let fast = Simplex.solve m in
    let dense = Simplex.solve_dense m in
    let ctx = Printf.sprintf "case %d" case in
    Alcotest.(check string)
      (ctx ^ ": status") (status_word dense) (status_word fast);
    match (fast, dense) with
    | Simplex.Optimal { objective = of_; solution }, Simplex.Optimal { objective = od; _ }
      ->
        Alcotest.(check (float 1e-6)) (ctx ^ ": objective") od of_;
        Alcotest.(check bool)
          (ctx ^ ": solution feasible") true
          (Lp.check_feasible ~tol:1e-5 m solution)
    | _ -> ()
  done

(* ---- Warm starts: a handle re-solved after bound changes must agree
   with fresh solves of the equivalently-modified model, while only the
   first resolve is cold. ---- *)

let bounded_model () =
  (* max x + 2y + 3z  st  x+y+z <= 10, x - y >= -4, y + 2z <= 12,
     x in [0,6], y in [0,5], z in [0,4]. *)
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:0.0 ~up:6.0 m in
  let m, y = Lp.add_var ~lo:0.0 ~up:5.0 m in
  let m, z = Lp.add_var ~lo:0.0 ~up:4.0 m in
  let m = Lp.add_constraint m [ (1.0, x); (1.0, y); (1.0, z) ] Lp.Le 10.0 in
  let m = Lp.add_constraint m [ (1.0, x); (-1.0, y) ] Lp.Ge (-4.0) in
  let m = Lp.add_constraint m [ (1.0, y); (2.0, z) ] Lp.Le 12.0 in
  (Lp.set_objective m Lp.Maximize [ (1.0, x); (2.0, y); (3.0, z) ], x, y, z)

let test_warm_bound_flips () =
  let m, x, y, _z = bounded_model () in
  let h = Simplex.create m in
  (* A branch-and-bound-like sequence of bound changes on x and y. *)
  let steps =
    [
      (x, Some 0.0, Some 6.0);
      (x, Some 0.0, Some 2.0);
      (x, Some 3.0, Some 6.0);
      (y, Some 0.0, Some 1.0);
      (y, Some 2.0, Some 5.0);
      (x, Some 0.0, Some 0.0);
      (x, Some 0.0, Some 6.0);
    ]
  in
  let model = ref m in
  List.iteri
    (fun i (v, lo, up) ->
      model := Lp.set_var_bounds !model v ~lo ~up;
      let warm = Simplex.resolve ~bound_changes:[ (v, lo, up) ] h in
      let fresh = Simplex.solve_dense !model in
      let ctx = Printf.sprintf "step %d" i in
      match (warm, fresh) with
      | Simplex.Optimal { objective = a; solution }, Simplex.Optimal { objective = b; _ }
        ->
          Alcotest.(check (float 1e-6)) (ctx ^ ": objective") b a;
          Alcotest.(check bool)
            (ctx ^ ": feasible") true
            (Lp.check_feasible ~tol:1e-5 !model solution)
      | Simplex.Infeasible, Simplex.Infeasible -> ()
      | _ ->
          Alcotest.failf "%s: engines disagree (%s vs %s)" ctx
            (status_word warm) (status_word fresh))
    steps;
  let c = Simplex.counters h in
  Alcotest.(check int) "cold starts" 1 c.Simplex.cold_starts;
  Alcotest.(check int)
    "warm starts" (List.length steps - 1) c.Simplex.warm_starts;
  Alcotest.(check int) "no fallbacks" 0 c.Simplex.fallbacks

let test_warm_objective_changes () =
  (* The OBBT workload: one matrix, objective sweeps over coordinates. *)
  let m, x, y, z = bounded_model () in
  let h = Simplex.create m in
  let objectives =
    [
      (Lp.Minimize, [ (1.0, x) ]);
      (Lp.Maximize, [ (1.0, x) ]);
      (Lp.Minimize, [ (1.0, y) ]);
      (Lp.Maximize, [ (1.0, y) ]);
      (Lp.Minimize, [ (1.0, z) ]);
      (Lp.Maximize, [ (1.0, z) ]);
    ]
  in
  List.iteri
    (fun i (sense, terms) ->
      Simplex.set_objective h sense terms;
      let warm = Simplex.resolve h in
      let fresh = Simplex.solve_dense (Lp.set_objective m sense terms) in
      let a, _ = expect_optimal warm in
      let b, _ = expect_optimal fresh in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "objective %d" i) b a)
    objectives;
  let c = Simplex.counters h in
  Alcotest.(check int) "cold starts" 1 c.Simplex.cold_starts;
  Alcotest.(check int) "warm starts" 5 c.Simplex.warm_starts

let test_milp_counters_surface () =
  (* 0/1 knapsack: max 6a+10b+12c st a+2b+3c <= 5.  The sequential B&B
     shares one handle, so exactly one node LP is cold and the counters
     must account for every LP solved. *)
  let m = Lp.create () in
  let m, a = Lp.add_var ~kind:Lp.Binary m in
  let m, b = Lp.add_var ~kind:Lp.Binary m in
  let m, c = Lp.add_var ~kind:Lp.Binary m in
  let m = Lp.add_constraint m [ (1.0, a); (2.0, b); (3.0, c) ] Lp.Le 5.0 in
  let m = Lp.set_objective m Lp.Maximize [ (6.0, a); (10.0, b); (12.0, c) ] in
  let result, stats = Milp_par.solve_with_stats m in
  (match result with
  | Milp.Optimal { objective; _ } -> check_float "objective" 22.0 objective
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check int) "one cold start" 1 stats.Milp.cold_starts;
  Alcotest.(check int)
    "every LP accounted" stats.Milp.lp_solved
    (stats.Milp.warm_starts + stats.Milp.cold_starts);
  Alcotest.(check bool) "pivots counted" true (stats.Milp.pivots > 0)

let tests =
  [
    Alcotest.test_case "beale cycling regression" `Quick test_beale_no_cycling;
    Alcotest.test_case "dual stall: periodic violation reaches Bland" `Quick
      test_dual_stall_periodic;
    Alcotest.test_case "differential vs dense (240 LPs)" `Quick
      test_differential_vs_dense;
    Alcotest.test_case "warm bound flips" `Quick test_warm_bound_flips;
    Alcotest.test_case "warm objective changes" `Quick
      test_warm_objective_changes;
    Alcotest.test_case "milp surfaces solver counters" `Quick
      test_milp_counters_surface;
  ]

(* ---- Golden bit-identity: pivot choices, work counts and every
   computed bound are pinned to the values of the sparse LU engine.
   Both cases run long enough on one handle to cross Forrest-Tomlin
   updates and refactorizations, and the sweep also the nonzero-cost
   reduced-cost path.  A change of float rounding in the engine moves
   them; re-record them only with the change that moves them. ---- *)

module Encode = Dpv_core.Encode
module Tighten = Dpv_core.Tighten
module Init = Dpv_nn.Init
module Box_domain = Dpv_absint.Box_domain
module Interval = Dpv_absint.Interval
module Risk = Dpv_spec.Risk

let golden_nets seed =
  let rng = Rng.create seed in
  let suffix = Init.mlp rng ~input_dim:6 ~hidden:[ 10; 10 ] ~output_dim:2 in
  let head = Init.mlp rng ~input_dim:6 ~hidden:[ 4 ] ~output_dim:1 in
  (suffix, head, Box_domain.uniform ~dim:6 ~lo:(-1.0) ~hi:1.0)

let test_golden_feasibility_milp () =
  (* A zero-objective verification MILP (24 binaries, 101 rows): every
     reduced cost is 0, and the search exhausts the tree. *)
  let suffix, head, feature_box = golden_nets 1305 in
  let psi = Risk.make ~name:"golden" [ Risk.output_ge 0 2.0 ] in
  let e = Encode.build ~suffix ~head ~feature_box ~psi () in
  let result, st =
    Milp_par.solve_with_stats
      ~options:{ Milp.default_options with Milp.find_first = true }
      e.Encode.model
  in
  Alcotest.(check bool) "verdict: infeasible" true (result = Milp.Infeasible);
  Alcotest.(check (list int))
    "nodes, LPs, pivots, warm starts, cold starts"
    [ 1113; 1113; 11968; 1112; 1 ]
    [
      st.Milp.nodes_explored;
      st.Milp.lp_solved;
      st.Milp.pivots;
      st.Milp.warm_starts;
      st.Milp.cold_starts;
    ]

let test_golden_tighten_sweep () =
  (* OBBT: 12 LPs on one handle, each objective a single feature
     coordinate, so reduced costs are priced through a BTRAN of c_B. *)
  let suffix, head, feature_box = golden_nets 1304 in
  let box, st =
    Tighten.feature_box ~suffix ~head ~feature_box ~characterizer_margin:1.0 ()
  in
  Alcotest.(check int) "pivots" 188 st.Tighten.pivots;
  Alcotest.(check (list (pair int64 int64)))
    "bits of every bound"
    [
      (0xbfd616cd0fb6a086L, 0x3ff0000000000000L);
      (0xbfe697cd8f2a997fL, 0x3ff0000000000000L);
      (0xbff0000000000000L, 0x3ff0000000000000L);
      (0x3fce24ebdbb336e8L, 0x3ff0000000000000L);
      (0xbff0000000000000L, 0x3fe81c0285973a07L);
      (0xbff0000000000000L, 0xbfc844114cc5807aL);
    ]
    (Array.to_list
       (Array.map
          (fun iv ->
            ( Int64.bits_of_float iv.Interval.lo,
              Int64.bits_of_float iv.Interval.hi ))
          box))

let tests =
  tests
  @ [
      Alcotest.test_case "golden: zero-objective MILP counts" `Quick
        test_golden_feasibility_milp;
      Alcotest.test_case "golden: tighten sweep bits" `Quick
        test_golden_tighten_sweep;
    ]

(* ---- Per-domain storage: a released handle's factor storage is taken
   by the next handle created on its domain.  Handles of different
   sizes re-solved in round-robin each hold their own while alive, and
   each job releases its handles for the next; running such jobs on two
   pool domains and on two systhreads of one domain must not let two
   solves share storage. ---- *)

module Pool = Dpv_linprog.Pool
module Faults = Dpv_linprog.Faults

(* A sparse boxed LP with [m] rows over [m + 10] variables; nonnegative
   rows with positive rhs keep the origin feasible, so every objective
   sweep ends in an optimum that the residual check vouches for. *)
let arena_lp ~seed ~m =
  let rng = Rng.create seed in
  let model = ref (Lp.create ()) in
  let vars =
    Array.init (m + 10) (fun _ ->
        let next, v =
          Lp.add_var ~lo:0.0 ~up:(Rng.uniform rng ~lo:1.0 ~hi:10.0) !model
        in
        model := next;
        v)
  in
  for _ = 1 to m do
    let terms =
      List.init 5 (fun _ -> (Rng.uniform rng ~lo:0.1 ~hi:3.0, Rng.pick rng vars))
    in
    model :=
      Lp.add_constraint !model terms Lp.Le (Rng.uniform rng ~lo:5.0 ~hi:20.0)
  done;
  let objectives =
    List.init 10 (fun k ->
        ( (if k mod 2 = 0 then Lp.Maximize else Lp.Minimize),
          Array.to_list
            (Array.map (fun v -> (Rng.uniform rng ~lo:(-1.0) ~hi:2.0, v)) vars)
        ))
  in
  (!model, objectives)

(* One job: a handle per LP of [lps], all alive together, each
   re-solved once per objective in round-robin, then released.  Returns
   the statuses in solve order and each handle's counters. *)
let arena_job lps =
  let handles = List.map (fun (model, _) -> Simplex.create model) lps in
  let statuses =
    List.concat
      (List.init 10 (fun k ->
           List.map2
             (fun h (_, objectives) ->
               let sense, terms = List.nth objectives k in
               Simplex.set_objective h sense terms;
               Simplex.resolve h)
             handles lps))
  in
  List.iter Simplex.release handles;
  (statuses, List.map Simplex.counters handles)

let arena_jobs =
  lazy
    (List.map
       (fun sizes ->
         let lps =
           List.map (fun m -> arena_lp ~seed:(1000 + m) ~m) sizes
         in
         let dense =
           List.concat
             (List.init 10 (fun k ->
                  List.map
                    (fun (model, objectives) ->
                      let sense, terms = List.nth objectives k in
                      Simplex.solve_dense (Lp.set_objective model sense terms))
                    lps))
         in
         (lps, dense))
       [ [ 12; 70; 31 ]; [ 55; 8; 90 ]; [ 40; 23 ]; [ 66; 17; 48 ] ])

let on_two_pool_domains f items =
  Array.to_list
    (Array.map
       (function
         | Some (Ok r) -> r
         | Some (Error e) -> raise e
         | None -> Alcotest.fail "pool dropped a job")
       (Pool.map_list ~workers:2 f items))

(* Two systhreads on one domain.  The runtime only switches threads on
   a 50 ms tick, longer than these jobs; a 0.2 ms SIGALRM whose handler
   yields at the next safepoint lands switches inside refactorizations
   too. *)
let on_two_systhreads f items =
  let half = List.length items / 2 in
  let first = List.filteri (fun i _ -> i < half) items in
  let second = List.filteri (fun i _ -> i >= half) items in
  let every s =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = s; it_value = s })
  in
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> Thread.yield ()))
  in
  every 0.0002;
  Fun.protect
    ~finally:(fun () ->
      every 0.0;
      Sys.set_signal Sys.sigalrm previous)
  @@ fun () ->
  let other = ref [] in
  let th = Thread.create (fun () -> other := List.map f second) () in
  let mine = List.map f first in
  Thread.join th;
  mine @ !other

let check_against_dense label (statuses, _) dense =
  List.iteri
    (fun i (got, reference) ->
      let ctx = Printf.sprintf "%s, solve %d" label i in
      match (got, reference) with
      | Simplex.Optimal { objective = a; _ }, Simplex.Optimal { objective = b; _ }
        ->
          Alcotest.(check (float 1e-6)) ctx b a
      | _ ->
          Alcotest.failf "%s: %s vs dense %s" ctx (status_word got)
            (status_word reference))
    (List.combine statuses dense)

let test_arena_interleaving () =
  let jobs = Lazy.force arena_jobs in
  let lps = List.map fst jobs and dense = List.map snd jobs in
  let alone = List.map arena_job lps in
  List.iteri
    (fun i (r, d) -> check_against_dense (Printf.sprintf "job %d alone" i) r d)
    (List.combine alone dense);
  Alcotest.(check bool) "handles crossed refactorizations" true
    (List.for_all
       (fun (_, counters) ->
         List.exists (fun c -> c.Simplex.pivots > 64) counters)
       alone);
  (* Same inputs, same arithmetic: concurrent runs must be bit-identical
     to the runs alone, counters included. *)
  let check_identical label runs =
    List.iteri
      (fun i (got, reference) ->
        if got <> reference then
          Alcotest.failf "%s: job %d differs from its run alone" label i)
      (List.combine runs alone)
  in
  check_identical "two pool domains" (on_two_pool_domains arena_job lps);
  check_identical "two systhreads" (on_two_systhreads arena_job lps);
  let model, _ = List.hd (List.hd lps) in
  let h = Simplex.create model in
  ignore (Simplex.resolve h);
  Simplex.release h;
  match Simplex.resolve h with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a released handle must not solve again"

let test_arena_under_faults () =
  let jobs = Lazy.force arena_jobs in
  let lps = List.map fst jobs and dense = List.map snd jobs in
  List.iter
    (fun (label, schedule) ->
      Fun.protect ~finally:Faults.disable (fun () ->
          Faults.configure ~seed:13
            [ ("refactor-singular", 3); ("pivot-corrupt", 150) ];
          let runs = schedule arena_job lps in
          Alcotest.(check (list int))
            (label ^ ": both faults fired") [ 1; 1 ]
            [
              Faults.fired "refactor-singular";
              Faults.fired "pivot-corrupt";
            ];
          List.iteri
            (fun i (r, d) ->
              check_against_dense (Printf.sprintf "%s, job %d" label i) r d)
            (List.combine runs dense)))
    [
      ("one domain", List.map);
      ("two pool domains", on_two_pool_domains);
      ("two systhreads", on_two_systhreads);
    ]

let tests =
  tests
  @ [
      Alcotest.test_case "arena: interleaved sizes, domains, threads" `Quick
        test_arena_interleaving;
      Alcotest.test_case "arena: refactor-singular and pivot-corrupt" `Quick
        test_arena_under_faults;
    ]

(* ---- Differential suite on verification encodings: big-M MILPs of a
   perception suffix and a characterizer head, with random subsets of
   their ReLU phase binaries fixed.  One persistent handle re-solves
   them warm through bound changes (and, every third LP, a new
   objective over an output), against stateless dense solves.  A SAFE
   verdict rests on [Infeasible], which the residual check never sees,
   so statuses must agree exactly; optima agree to 1e-6. ---- *)

let test_differential_encodings () =
  let rng = Rng.create 20261017 in
  let optimal = ref 0 and infeasible = ref 0 in
  List.iter
    (fun seed ->
      let suffix, head, feature_box = golden_nets seed in
      let psi = Risk.make ~name:"diff" [ Risk.output_ge 0 0.5 ] in
      let e = Encode.build ~suffix ~head ~feature_box ~psi () in
      let out = e.Encode.output_vars.(0) in
      let binaries = Lp.integer_vars e.Encode.model in
      let h = Simplex.create e.Encode.model in
      let current = ref e.Encode.model in
      for case = 1 to 120 do
        let changes =
          List.map
            (fun v ->
              match Rng.int rng 3 with
              | 0 -> (v, Some 0.0, Some 0.0)
              | 1 -> (v, Some 1.0, Some 1.0)
              | _ -> (v, Some 0.0, Some 1.0))
            binaries
        in
        List.iter
          (fun (v, lo, up) -> current := Lp.set_var_bounds !current v ~lo ~up)
          changes;
        if case mod 3 = 0 then begin
          let sense = if case mod 2 = 0 then Lp.Maximize else Lp.Minimize in
          Simplex.set_objective h sense [ (1.0, out) ];
          current := Lp.set_objective !current sense [ (1.0, out) ]
        end;
        let warm = Simplex.resolve ~bound_changes:changes h in
        let dense = Simplex.solve_dense !current in
        let ctx = Printf.sprintf "seed %d, LP %d" seed case in
        Alcotest.(check string)
          (ctx ^ ": status") (status_word dense) (status_word warm);
        match (warm, dense) with
        | Simplex.Optimal { objective = a; _ }, Simplex.Optimal { objective = b; _ }
          ->
            incr optimal;
            Alcotest.(check (float 1e-6)) (ctx ^ ": objective") b a
        | Simplex.Infeasible, _ -> incr infeasible
        | _ -> ()
      done;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: one cold start" seed)
        1 (Simplex.counters h).Simplex.cold_starts;
      Simplex.release h)
    [ 1304; 1305 ];
  Alcotest.(check bool)
    (Printf.sprintf "both outcomes covered (%d optimal, %d infeasible)"
       !optimal !infeasible)
    true
    (!optimal >= 40 && !infeasible >= 40)

(* ---- Factor storage comes from the domain: once a domain has solved
   an LP of a size, a create / resolve / release cycle of that size
   allocates no factor, update-file or workspace buffer.  The count is
   of words allocated directly in the major heap (major words less
   promoted ones, settled by a full major collection before and after
   the cycle), which is where every array beyond the minor heap's size
   limit goes: the U and eta pools and the row pattern of B are, and so
   are the nucleus buffers of this encoding's larger nuclei.  Promoted
   words are left out, since a cycle that outlasts a small minor heap
   promotes the live handle whatever its storage. ---- *)

let test_factor_storage_allocation () =
  let suffix, head, feature_box = golden_nets 1305 in
  let psi = Risk.make ~name:"golden" [ Risk.output_ge 0 2.0 ] in
  let e = Encode.build ~suffix ~head ~feature_box ~psi () in
  let model = e.Encode.model in
  Alcotest.(check int) "rows" 101 (Lp.num_constraints model);
  let fixes =
    List.mapi
      (fun i v ->
        let x = if i mod 2 = 0 then 0.0 else 1.0 in
        (v, Some x, Some x))
      (Lp.integer_vars model)
  in
  let cycle () =
    let h = Simplex.create model in
    ignore (Simplex.resolve h);
    List.iter
      (fun change -> ignore (Simplex.resolve ~bound_changes:[ change ] h))
      fixes;
    Simplex.release h;
    (Simplex.counters h).Simplex.pivots
  in
  let direct () =
    let st = Gc.quick_stat () in
    st.Gc.major_words -. st.Gc.promoted_words
  in
  ignore (cycle ());
  Gc.full_major ();
  let major = direct () in
  let pivots = cycle () in
  Gc.full_major ();
  let words = direct () -. major in
  Alcotest.(check bool)
    (Printf.sprintf "the cycle crossed refactorizations (%d pivots)" pivots)
    true (pivots > 100);
  if words > 32.0 then
    Alcotest.failf "a warm cycle allocated %.0f major words (at most 32)"
      words

let tests =
  tests
  @ [
      Alcotest.test_case "differential vs dense on encodings (240 LPs)" `Quick
        test_differential_encodings;
      Alcotest.test_case "factor storage allocation" `Quick
        test_factor_storage_allocation;
    ]

(* ---- Memoized completions: a prefix remembers each head it completed
   and each sub-box it was restricted to, so a repeated completion adds
   only the psi and phi rows to the remembered head rows.  A memo hit
   must give the very model a fresh build gives, row for row and bit
   for bit, and the same search over it. ---- *)

let model_bits model =
  let bits = Int64.bits_of_float in
  let terms_bits = List.map (fun (c, v) -> (bits c, v)) in
  ( List.map
      (fun (name, terms, rel, rhs) -> (name, terms_bits terms, rel, bits rhs))
      (Lp.constraints model),
    List.init (Lp.num_vars model) (fun v ->
        let lo, up = Lp.var_bounds model v in
        (Option.map bits lo, Option.map bits up)),
    Lp.integer_vars model,
    List.map
      (fun (v, d) ->
        match d with
        | Lp.Affine (terms, c) -> (v, Some (terms_bits terms, bits c), None)
        | Lp.Relu { pre; phase } -> (v, None, Some (pre, phase)))
      (Lp.definitions model) )

let encoding_vars (e : Encode.t) =
  ( e.Encode.feature_vars,
    e.Encode.output_vars,
    e.Encode.logit_var,
    e.Encode.num_binaries,
    e.Encode.num_fixed_relus,
    e.Encode.head_relu_vars )

let search (e : Encode.t) =
  Milp_par.solve_with_stats
    ~options:{ Milp.default_options with Milp.find_first = true }
    e.Encode.model

let check_same_encoding ctx ~fresh got =
  Alcotest.(check bool)
    (ctx ^ ": rows, bounds, integer vars and definitions") true
    (Lp.num_definitions got.Encode.model > 0
    && model_bits fresh.Encode.model = model_bits got.Encode.model);
  Alcotest.(check bool)
    (ctx ^ ": encoding vars") true
    (encoding_vars fresh = encoding_vars got);
  let want, want_st = search fresh and result, st = search got in
  Alcotest.(check bool) (ctx ^ ": same result") true (want = result);
  Alcotest.(check (pair int int))
    (ctx ^ ": nodes, pivots")
    (want_st.Milp.nodes_explored, want_st.Milp.pivots)
    (st.Milp.nodes_explored, st.Milp.pivots)

(* A structurally equal head that shares no storage with the original. *)
let copy_net (net : Dpv_nn.Network.t) : Dpv_nn.Network.t =
  Marshal.from_string (Marshal.to_string net []) 0

let golden_sub_box feature_box =
  Array.mapi
    (fun i (iv : Interval.t) ->
      if i = 0 then Interval.make ~lo:iv.Interval.lo ~hi:0.0 else iv)
    feature_box

let test_memo_hits_match_fresh_builds () =
  let suffix, head, feature_box = golden_nets 1305 in
  let psi_a = Risk.make ~name:"a" [ Risk.output_ge 0 2.0 ] in
  let psi_b = Risk.make ~name:"b" [ Risk.output_le 1 (-1.0) ] in
  let shared = Encode.build_shared ~suffix ~feature_box () in
  ignore (Encode.complete shared ~head ~psi:psi_a ());
  List.iter
    (fun (ctx, head, psi, characterizer_margin) ->
      check_same_encoding ctx
        ~fresh:
          (Encode.build ~suffix ~head ~feature_box ~characterizer_margin ~psi
             ())
        (Encode.complete shared ~head ~characterizer_margin ~psi ()))
    [
      ("another psi", head, psi_b, 0.0);
      ("another margin", head, psi_a, 0.5);
      ("a copy of the head", copy_net head, psi_a, 0.0);
    ];
  let sub = golden_sub_box feature_box in
  ignore
    (Encode.complete (Encode.restrict_shared shared ~feature_box:sub) ~head
       ~psi:psi_a ());
  check_same_encoding "a copy of the sub-box"
    ~fresh:(Encode.build ~suffix ~head ~feature_box:sub ~psi:psi_a ())
    (Encode.complete
       (Encode.restrict_shared shared ~feature_box:(Array.copy sub))
       ~head ~psi:psi_a ())

let test_memo_concurrent_completion () =
  let suffix, head, feature_box = golden_nets 1305 in
  let psi = Risk.make ~name:"golden" [ Risk.output_ge 0 2.0 ] in
  let shared = Encode.build_shared ~suffix ~feature_box () in
  let ready = Atomic.make 0 in
  let complete () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    Encode.complete shared ~head ~psi ()
  in
  let a = Domain.spawn complete and b = Domain.spawn complete in
  let a = Domain.join a and b = Domain.join b in
  let fresh = Encode.build ~suffix ~head ~feature_box ~psi () in
  check_same_encoding "first domain" ~fresh a;
  check_same_encoding "second domain" ~fresh b

(* ---- What a memo hit and a handle cost: words allocated, minor plus
   those allocated directly in the major heap, on the golden 101-row
   encoding.  A completion that misses its head re-encodes it (~6,800
   words), a restriction that misses its sub-box re-encodes the suffix
   (~32,600), and a column build through per-entry lists allocates
   ~10,000 more than one straight from the rows. ---- *)

let words_allocated f =
  let direct () =
    let st = Gc.quick_stat () in
    st.Gc.major_words -. st.Gc.promoted_words
  in
  let minor = Gc.minor_words () and major = direct () in
  f ();
  Gc.minor_words () -. minor +. (direct () -. major)

let test_memo_allocation () =
  let suffix, head, feature_box = golden_nets 1305 in
  let psi = Risk.make ~name:"golden" [ Risk.output_ge 0 2.0 ] in
  let shared = Encode.build_shared ~suffix ~feature_box () in
  let e = Encode.complete shared ~head ~psi () in
  Alcotest.(check int) "rows" 101 (Lp.num_constraints e.Encode.model);
  let head_copy = copy_net head in
  let sub = golden_sub_box feature_box in
  ignore (Encode.restrict_shared shared ~feature_box:sub);
  let sub_copy = Array.copy sub in
  Simplex.release (Simplex.create e.Encode.model);
  let cap what limit words =
    if words > limit then
      Alcotest.failf "%s allocated %.0f words (at most %.0f)" what words limit
  in
  cap "a completion on a memo hit" 1000.0
    (words_allocated (fun () ->
         ignore (Encode.complete shared ~head:head_copy ~psi ())));
  cap "a restriction on a memo hit" 200.0
    (words_allocated (fun () ->
         ignore (Encode.restrict_shared shared ~feature_box:sub_copy)));
  cap "a handle's create and release" 6500.0
    (words_allocated (fun () ->
         Simplex.release (Simplex.create e.Encode.model)))

let tests =
  tests
  @ [
      Alcotest.test_case "memo hits match fresh builds" `Quick
        test_memo_hits_match_fresh_builds;
      Alcotest.test_case "memo: concurrent completion" `Quick
        test_memo_concurrent_completion;
      Alcotest.test_case "memo and column-build allocation" `Quick
        test_memo_allocation;
    ]
