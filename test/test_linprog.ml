(* Tests for the LP model, the two-phase simplex and branch-and-bound. *)

module Lp = Dpv_linprog.Lp
module Simplex = Dpv_linprog.Simplex
module Milp = Dpv_linprog.Milp
module Milp_par = Dpv_linprog.Milp_par

let check_float = Alcotest.(check (float 1e-6))

let expect_optimal = function
  | Simplex.Optimal { objective; solution } -> (objective, solution)
  | Simplex.Infeasible -> Alcotest.fail "expected optimal, got infeasible"
  | Simplex.Unbounded -> Alcotest.fail "expected optimal, got unbounded"

let expect_milp_optimal = function
  | Milp.Optimal { objective; solution } -> (objective, solution)
  | Milp.Feasible _ ->
      Alcotest.fail "expected optimal, got feasible (truncated search)"
  | Milp.Infeasible -> Alcotest.fail "expected optimal, got infeasible"
  | Milp.Unbounded -> Alcotest.fail "expected optimal, got unbounded"
  | Milp.Node_limit -> Alcotest.fail "expected optimal, got node limit"
  | Milp.Timeout -> Alcotest.fail "expected optimal, got timeout"

(* find_first mode never proves optimality, so its incumbents come back
   [Feasible] by contract. *)
let expect_milp_feasible = function
  | Milp.Feasible { objective; solution } -> (objective, solution)
  | Milp.Optimal _ ->
      Alcotest.fail "expected feasible, got optimal (find_first must not \
                     claim proofs)"
  | Milp.Infeasible -> Alcotest.fail "expected feasible, got infeasible"
  | Milp.Unbounded -> Alcotest.fail "expected feasible, got unbounded"
  | Milp.Node_limit -> Alcotest.fail "expected feasible, got node limit"
  | Milp.Timeout -> Alcotest.fail "expected feasible, got timeout"

(* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
   Classic Dantzig example: optimum 36 at (2, 6). *)
let test_lp_textbook () =
  let m = Lp.create () in
  let m, x = Lp.add_var ~name:"x" ~lo:0.0 m in
  let m, y = Lp.add_var ~name:"y" ~lo:0.0 m in
  let m = Lp.add_constraint m [ (1.0, x) ] Lp.Le 4.0 in
  let m = Lp.add_constraint m [ (2.0, y) ] Lp.Le 12.0 in
  let m = Lp.add_constraint m [ (3.0, x); (2.0, y) ] Lp.Le 18.0 in
  let m = Lp.set_objective m Lp.Maximize [ (3.0, x); (5.0, y) ] in
  let obj, sol = expect_optimal (Simplex.solve m) in
  check_float "objective" 36.0 obj;
  check_float "x" 2.0 sol.(x);
  check_float "y" 6.0 sol.(y)

(* min x + y st x + 2y >= 4, 3x + y >= 6, x,y >= 0 -> optimum at
   intersection (8/5, 6/5), objective 14/5. *)
let test_lp_ge_constraints () =
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:0.0 m in
  let m, y = Lp.add_var ~lo:0.0 m in
  let m = Lp.add_constraint m [ (1.0, x); (2.0, y) ] Lp.Ge 4.0 in
  let m = Lp.add_constraint m [ (3.0, x); (1.0, y) ] Lp.Ge 6.0 in
  let m = Lp.set_objective m Lp.Minimize [ (1.0, x); (1.0, y) ] in
  let obj, sol = expect_optimal (Simplex.solve m) in
  check_float "objective" 2.8 obj;
  check_float "x" 1.6 sol.(x);
  check_float "y" 1.2 sol.(y)

let test_lp_equality () =
  (* min 2x + 3y st x + y = 10, x - y = 2 -> x=6, y=4, obj 24. *)
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:0.0 m in
  let m, y = Lp.add_var ~lo:0.0 m in
  let m = Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Eq 10.0 in
  let m = Lp.add_constraint m [ (1.0, x); (-1.0, y) ] Lp.Eq 2.0 in
  let m = Lp.set_objective m Lp.Minimize [ (2.0, x); (3.0, y) ] in
  let obj, sol = expect_optimal (Simplex.solve m) in
  check_float "objective" 24.0 obj;
  check_float "x" 6.0 sol.(x);
  check_float "y" 4.0 sol.(y)

let test_lp_free_variable () =
  (* min y st y >= x - 2, y >= -x, x free, y free -> min at x=1, y=-1. *)
  let m = Lp.create () in
  let m, x = Lp.add_var m in
  let m, y = Lp.add_var m in
  let m = Lp.add_constraint m [ (1.0, y); (-1.0, x) ] Lp.Ge (-2.0) in
  let m = Lp.add_constraint m [ (1.0, y); (1.0, x) ] Lp.Ge 0.0 in
  let m = Lp.set_objective m Lp.Minimize [ (1.0, y) ] in
  let obj, sol = expect_optimal (Simplex.solve m) in
  check_float "objective" (-1.0) obj;
  check_float "x" 1.0 sol.(x);
  check_float "y" (-1.0) sol.(y)

let test_lp_negative_bounds () =
  (* min x st x in [-5, -1] -> -5. *)
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:(-5.0) ~up:(-1.0) m in
  let m = Lp.set_objective m Lp.Minimize [ (1.0, x) ] in
  let obj, sol = expect_optimal (Simplex.solve m) in
  check_float "objective" (-5.0) obj;
  check_float "x" (-5.0) sol.(x)

let test_lp_infeasible () =
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:0.0 ~up:1.0 m in
  let m = Lp.add_constraint m [ (1.0, x) ] Lp.Ge 2.0 in
  match Simplex.solve m with
  | Simplex.Infeasible -> ()
  | s -> Alcotest.failf "expected infeasible, got %a" Simplex.pp_status s

let test_lp_unbounded () =
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:0.0 m in
  let m = Lp.set_objective m Lp.Maximize [ (1.0, x) ] in
  match Simplex.solve m with
  | Simplex.Unbounded -> ()
  | s -> Alcotest.failf "expected unbounded, got %a" Simplex.pp_status s

let test_lp_degenerate () =
  (* Degenerate vertex: several constraints meet at the optimum.  Exercises
     the Bland fallback; just require the right objective. *)
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:0.0 m in
  let m, y = Lp.add_var ~lo:0.0 m in
  let m, z = Lp.add_var ~lo:0.0 m in
  let m = Lp.add_constraint m [ (1.0, x); (1.0, y); (1.0, z) ] Lp.Le 1.0 in
  let m = Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Le 1.0 in
  let m = Lp.add_constraint m [ (1.0, x) ] Lp.Le 1.0 in
  let m = Lp.set_objective m Lp.Maximize [ (1.0, x); (1.0, y); (1.0, z) ] in
  let obj, _ = expect_optimal (Simplex.solve m) in
  check_float "objective" 1.0 obj

let test_lp_duplicate_terms_merge () =
  (* x + x <= 4 must behave as 2x <= 4. *)
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:0.0 m in
  let m = Lp.add_constraint m [ (1.0, x); (1.0, x) ] Lp.Le 4.0 in
  let m = Lp.set_objective m Lp.Maximize [ (1.0, x) ] in
  let obj, _ = expect_optimal (Simplex.solve m) in
  check_float "objective" 2.0 obj

let test_feasibility_check () =
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:0.0 ~up:10.0 m in
  let m, y = Lp.add_var ~lo:0.0 m in
  let m = Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Le 5.0 in
  Alcotest.(check bool) "inside" true (Lp.check_feasible m [| 2.0; 3.0 |]);
  Alcotest.(check bool) "outside" false (Lp.check_feasible m [| 2.0; 4.0 |]);
  Alcotest.(check bool)
    "bound violated" false
    (Lp.check_feasible m [| -1.0; 0.0 |])

(* --- MILP --- *)

let test_milp_knapsack () =
  (* max 8a + 11b + 6c + 4d, 5a + 7b + 4c + 3d <= 14, binary.
     Optimum 21 with b=c=d=1. *)
  let m = Lp.create () in
  let m, a = Lp.add_var ~kind:Lp.Binary m in
  let m, b = Lp.add_var ~kind:Lp.Binary m in
  let m, c = Lp.add_var ~kind:Lp.Binary m in
  let m, d = Lp.add_var ~kind:Lp.Binary m in
  let m =
    Lp.add_constraint m
      [ (5.0, a); (7.0, b); (4.0, c); (3.0, d) ]
      Lp.Le 14.0
  in
  let m =
    Lp.set_objective m Lp.Maximize
      [ (8.0, a); (11.0, b); (6.0, c); (4.0, d) ]
  in
  let obj, sol = expect_milp_optimal (Milp_par.solve m) in
  check_float "objective" 21.0 obj;
  check_float "a" 0.0 sol.(a);
  check_float "b" 1.0 sol.(b);
  check_float "c" 1.0 sol.(c);
  check_float "d" 1.0 sol.(d)

let test_milp_integer_rounding_gap () =
  (* max y st -2x + 2y <= 1, 2x + 2y <= 9, x,y integer >= 0.
     LP relaxation peaks at y = 2.5; integer optimum is y = 2. *)
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:0.0 ~kind:Lp.Integer m in
  let m, y = Lp.add_var ~lo:0.0 ~kind:Lp.Integer m in
  let m = Lp.add_constraint m [ (-2.0, x); (2.0, y) ] Lp.Le 1.0 in
  let m = Lp.add_constraint m [ (2.0, x); (2.0, y) ] Lp.Le 9.0 in
  let m = Lp.set_objective m Lp.Maximize [ (1.0, y) ] in
  let obj, sol = expect_milp_optimal (Milp_par.solve m) in
  check_float "objective" 2.0 obj;
  Alcotest.(check bool) "y integral" true (Float.abs (sol.(y) -. 2.0) < 1e-6)

let test_milp_infeasible () =
  (* 2x = 1 with x binary is infeasible. *)
  let m = Lp.create () in
  let m, x = Lp.add_var ~kind:Lp.Binary m in
  let m = Lp.add_constraint m [ (2.0, x) ] Lp.Eq 1.0 in
  match Milp_par.solve m with
  | Milp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_milp_find_first () =
  (* Pure feasibility: any binary assignment with a + b = 1 works. *)
  let m = Lp.create () in
  let m, a = Lp.add_var ~kind:Lp.Binary m in
  let m, b = Lp.add_var ~kind:Lp.Binary m in
  let m = Lp.add_constraint m [ (1.0, a); (1.0, b) ] Lp.Eq 1.0 in
  let options = { Milp.default_options with find_first = true } in
  let _, sol = expect_milp_feasible (Milp_par.solve ~options m) in
  check_float "sum" 1.0 (sol.(a) +. sol.(b))

let test_lp_bounds_delta () =
  let m = Lp.create () in
  let m, a = Lp.add_var ~kind:Lp.Binary m in
  let m, b = Lp.add_var ~kind:Lp.Binary m in
  let m, c = Lp.add_var ~kind:Lp.Binary m in
  let sort l = List.sort_uniq compare l in
  let expect_delta label want x y =
    match Lp.bounds_delta x y with
    | None -> Alcotest.failf "%s: expected Some delta, got None" label
    | Some vars -> Alcotest.(check (list int)) label want (sort vars)
  in
  (* Identical models share their whole (empty) history. *)
  expect_delta "self" [] m m;
  (* Two children of a common ancestor: delta covers exactly the vars
     touched on either side since the fork, in any order / multiplicity. *)
  let left = Lp.set_var_bounds m a ~lo:(Some 1.0) ~up:(Some 1.0) in
  let right = Lp.set_var_bounds m b ~lo:(Some 0.0) ~up:(Some 0.0) in
  let right = Lp.set_var_bounds right c ~lo:(Some 1.0) ~up:(Some 1.0) in
  expect_delta "siblings" [ a; b; c ] left right;
  expect_delta "parent-child" [ b; c ] m right;
  expect_delta "child-parent" [ b; c ] right m;
  (* Deeper chain: diffing a node against its grandchild only reports the
     two intervening fixings, not [a]. *)
  let gchild = Lp.set_var_bounds left b ~lo:(Some 1.0) ~up:(Some 1.0) in
  expect_delta "grandchild" [ b ] left gchild;
  (* cap: distance between [left] and [right] is 3 trail entries. *)
  (match Lp.bounds_delta ~cap:2 left right with
  | None -> ()
  | Some _ -> Alcotest.fail "cap 2 should refuse a distance-3 diff");
  (match Lp.bounds_delta ~cap:3 left right with
  | Some vars -> Alcotest.(check (list int)) "cap 3 admits" [ a; b; c ] (sort vars)
  | None -> Alcotest.fail "cap 3 should admit a distance-3 diff")

let test_milp_stats () =
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:0.0 ~up:10.0 ~kind:Lp.Integer m in
  let m = Lp.set_objective m Lp.Maximize [ (1.0, x) ] in
  let result, stats = Milp_par.solve_with_stats m in
  let _ = expect_milp_optimal result in
  Alcotest.(check bool) "explored >= 1" true (stats.Milp.nodes_explored >= 1)

(* Property: on random bounded LPs, a reported optimum must be feasible and
   no random feasible point may beat it. *)
let qcheck_lp_optimality =
  QCheck.Test.make ~count:60 ~name:"simplex optimum dominates sampled points"
    QCheck.(
      quad (int_range 1 4) (int_range 1 4) (int_bound 1000) (int_bound 1000))
    (fun (nv, nc, seed_a, seed_b) ->
      let rng = Dpv_tensor.Rng.create ((seed_a * 1009) + seed_b) in
      let m = ref (Lp.create ()) in
      let vars =
        Array.init nv (fun _ ->
            let model, v = Lp.add_var ~lo:0.0 ~up:10.0 !m in
            m := model;
            v)
      in
      for _ = 1 to nc do
        let terms =
          Array.to_list
            (Array.map
               (fun v -> (Dpv_tensor.Rng.uniform rng ~lo:(-2.0) ~hi:3.0, v))
               vars)
        in
        (* rhs >= 0 keeps the origin feasible, so Optimal is guaranteed. *)
        let rhs = Dpv_tensor.Rng.uniform rng ~lo:0.0 ~hi:20.0 in
        m := Lp.add_constraint !m terms Lp.Le rhs
      done;
      let obj_terms =
        Array.to_list
          (Array.map
             (fun v -> (Dpv_tensor.Rng.uniform rng ~lo:(-1.0) ~hi:1.0, v))
             vars)
      in
      m := Lp.set_objective !m Lp.Maximize obj_terms;
      match Simplex.solve !m with
      | Simplex.Infeasible | Simplex.Unbounded -> false (* origin feasible, box bounded *)
      | Simplex.Optimal { objective; solution } ->
          let feasible = Lp.check_feasible ~tol:1e-5 !m solution in
          let dominated = ref true in
          for _ = 1 to 50 do
            let candidate =
              Array.init nv (fun _ -> Dpv_tensor.Rng.uniform rng ~lo:0.0 ~hi:10.0)
            in
            if
              Lp.check_feasible ~tol:0.0 !m candidate
              && Lp.eval_term_list obj_terms candidate > objective +. 1e-5
            then dominated := false
          done;
          feasible && !dominated)

let tests =
  [
    Alcotest.test_case "textbook max" `Quick test_lp_textbook;
    Alcotest.test_case "ge constraints (two-phase)" `Quick test_lp_ge_constraints;
    Alcotest.test_case "equality constraints" `Quick test_lp_equality;
    Alcotest.test_case "free variables" `Quick test_lp_free_variable;
    Alcotest.test_case "negative bounds" `Quick test_lp_negative_bounds;
    Alcotest.test_case "infeasible detection" `Quick test_lp_infeasible;
    Alcotest.test_case "unbounded detection" `Quick test_lp_unbounded;
    Alcotest.test_case "degenerate vertex" `Quick test_lp_degenerate;
    Alcotest.test_case "duplicate terms merge" `Quick test_lp_duplicate_terms_merge;
    Alcotest.test_case "feasibility check" `Quick test_feasibility_check;
    Alcotest.test_case "milp knapsack" `Quick test_milp_knapsack;
    Alcotest.test_case "milp rounding gap" `Quick test_milp_integer_rounding_gap;
    Alcotest.test_case "milp infeasible" `Quick test_milp_infeasible;
    Alcotest.test_case "milp find-first" `Quick test_milp_find_first;
    Alcotest.test_case "bounds delta trail diff" `Quick test_lp_bounds_delta;
    Alcotest.test_case "milp stats" `Quick test_milp_stats;
    QCheck_alcotest.to_alcotest qcheck_lp_optimality;
  ]
