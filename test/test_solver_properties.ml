(* Deep property tests for the LP/MILP solver: weak duality, cross-checks
   against brute-force enumeration, and invariances that exact solvers
   must satisfy.  These guard the verifier's trust anchor. *)

module Lp = Dpv_linprog.Lp
module Simplex = Dpv_linprog.Simplex
module Milp = Dpv_linprog.Milp
module Milp_par = Dpv_linprog.Milp_par
module Rng = Dpv_tensor.Rng

(* Random LP in inequality form  max c'x  s.t. Ax <= b, 0 <= x <= u,
   with b >= 0 so the origin is always feasible. *)
type random_lp = {
  nv : int;
  a : float array array;
  b : float array;
  c : float array;
  u : float;
}

let make_random_lp rng =
  let nv = 2 + Rng.int rng 3 in
  let nc = 1 + Rng.int rng 4 in
  {
    nv;
    a =
      Array.init nc (fun _ ->
          Array.init nv (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:2.0));
    b = Array.init nc (fun _ -> Rng.uniform rng ~lo:0.5 ~hi:10.0);
    c = Array.init nv (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0);
    u = 5.0;
  }

let build_model lp =
  let m = ref (Lp.create ()) in
  let vars =
    Array.init lp.nv (fun _ ->
        let model, v = Lp.add_var ~lo:0.0 ~up:lp.u !m in
        m := model;
        v)
  in
  Array.iteri
    (fun i row ->
      let terms = Array.to_list (Array.mapi (fun j c -> (c, vars.(j))) row) in
      m := Lp.add_constraint !m terms Lp.Le lp.b.(i))
    lp.a;
  m :=
    Lp.set_objective !m Lp.Maximize
      (Array.to_list (Array.mapi (fun j c -> (c, vars.(j))) lp.c));
  (!m, vars)

(* Weak duality: any feasible point of the explicit dual bounds the
   primal optimum from above.  We construct dual-feasible points from
   random non-negative multipliers by scaling, so the check is exact. *)
let dual_upper_bound lp rng =
  (* y >= 0 (per row), z >= 0 (per upper bound) with A'y + z >= c.
     Take random y, then set z_j = max(0, c_j - (A'y)_j): always dual
     feasible.  Bound = b'y + u * sum z. *)
  let nc = Array.length lp.a in
  let y = Array.init nc (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:1.0) in
  let aty =
    Array.init lp.nv (fun j ->
        let acc = ref 0.0 in
        for i = 0 to nc - 1 do
          acc := !acc +. (lp.a.(i).(j) *. y.(i))
        done;
        !acc)
  in
  let z = Array.mapi (fun j v -> Float.max 0.0 (lp.c.(j) -. v)) aty in
  let by = ref 0.0 in
  Array.iteri (fun i v -> by := !by +. (lp.b.(i) *. v)) y;
  !by +. (lp.u *. Array.fold_left ( +. ) 0.0 z)

let qcheck_weak_duality =
  QCheck.Test.make ~count:150 ~name:"weak duality: primal opt <= dual bounds"
    QCheck.(pair small_int small_int)
    (fun (seed_a, seed_b) ->
      let rng = Rng.create ((seed_a * 7919) + seed_b + 1) in
      let lp = make_random_lp rng in
      let model, _ = build_model lp in
      match Simplex.solve model with
      | Simplex.Optimal { objective; _ } ->
          let ok = ref true in
          for _ = 1 to 10 do
            if dual_upper_bound lp rng < objective -. 1e-6 then ok := false
          done;
          !ok
      | Simplex.Infeasible | Simplex.Unbounded -> false (* origin feasible, box bounded *))

let qcheck_objective_scaling_invariance =
  QCheck.Test.make ~count:100 ~name:"scaling the objective scales the optimum"
    QCheck.(pair small_int (float_range 0.1 5.0))
    (fun (seed, k) ->
      let rng = Rng.create (seed + 3) in
      let lp = make_random_lp rng in
      let model, vars = build_model lp in
      let scaled =
        Lp.set_objective model Lp.Maximize
          (Array.to_list (Array.mapi (fun j c -> (k *. c, vars.(j))) lp.c))
      in
      match (Simplex.solve model, Simplex.solve scaled) with
      | Simplex.Optimal { objective = o1; _ }, Simplex.Optimal { objective = o2; _ }
        ->
          Float.abs ((k *. o1) -. o2) <= 1e-6 *. Float.max 1.0 (Float.abs o2)
      | _ -> false)

let qcheck_adding_constraint_weakens_optimum =
  QCheck.Test.make ~count:100
    ~name:"an extra constraint never improves a maximization"
    QCheck.(pair small_int small_int)
    (fun (seed_a, seed_b) ->
      let rng = Rng.create ((seed_a * 31) + seed_b + 11) in
      let lp = make_random_lp rng in
      let model, vars = build_model lp in
      let extra_terms =
        Array.to_list
          (Array.map (fun v -> (Rng.uniform rng ~lo:0.0 ~hi:1.0, v)) vars)
      in
      let tightened =
        Lp.add_constraint model extra_terms Lp.Le (Rng.uniform rng ~lo:0.1 ~hi:5.0)
      in
      match (Simplex.solve model, Simplex.solve tightened) with
      | Simplex.Optimal { objective = o1; _ }, Simplex.Optimal { objective = o2; _ }
        ->
          o2 <= o1 +. 1e-6
      | Simplex.Optimal _, Simplex.Infeasible -> true
      | _ -> false)

(* MILP against brute force: small binary programs are enumerable. *)
let qcheck_milp_vs_bruteforce =
  QCheck.Test.make ~count:80 ~name:"branch-and-bound matches brute force"
    QCheck.(pair small_int small_int)
    (fun (seed_a, seed_b) ->
      let rng = Rng.create ((seed_a * 131) + seed_b + 17) in
      let nv = 2 + Rng.int rng 4 in
      let weights = Array.init nv (fun _ -> Rng.uniform rng ~lo:0.1 ~hi:5.0) in
      let values = Array.init nv (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:5.0) in
      let capacity = Rng.uniform rng ~lo:1.0 ~hi:8.0 in
      (* knapsack: max v'x st w'x <= capacity, x binary *)
      let m = ref (Lp.create ()) in
      let vars =
        Array.init nv (fun _ ->
            let model, v = Lp.add_var ~kind:Lp.Binary !m in
            m := model;
            v)
      in
      m :=
        Lp.add_constraint !m
          (Array.to_list (Array.mapi (fun j w -> (w, vars.(j))) weights))
          Lp.Le capacity;
      m :=
        Lp.set_objective !m Lp.Maximize
          (Array.to_list (Array.mapi (fun j v -> (v, vars.(j))) values));
      let brute =
        let best = ref neg_infinity in
        for mask = 0 to (1 lsl nv) - 1 do
          let w = ref 0.0 and v = ref 0.0 in
          for j = 0 to nv - 1 do
            if mask land (1 lsl j) <> 0 then begin
              w := !w +. weights.(j);
              v := !v +. values.(j)
            end
          done;
          if !w <= capacity +. 1e-12 && !v > !best then best := !v
        done;
        !best
      in
      match Milp_par.solve !m with
      | Milp.Optimal { objective; _ } -> Float.abs (objective -. brute) <= 1e-6
      | Milp.Feasible _ | Milp.Infeasible | Milp.Unbounded | Milp.Node_limit
      | Milp.Timeout ->
          false)

let qcheck_milp_equalities_vs_bruteforce =
  QCheck.Test.make ~count:60
    ~name:"milp with equality constraints matches brute force"
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 23) in
      let nv = 3 + Rng.int rng 2 in
      (* exactly-k selection: max v'x st sum x = k *)
      let k = 1 + Rng.int rng (nv - 1) in
      let values = Array.init nv (fun _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0) in
      let m = ref (Lp.create ()) in
      let vars =
        Array.init nv (fun _ ->
            let model, v = Lp.add_var ~kind:Lp.Binary !m in
            m := model;
            v)
      in
      m :=
        Lp.add_constraint !m
          (Array.to_list (Array.map (fun v -> (1.0, v)) vars))
          Lp.Eq (float_of_int k);
      m :=
        Lp.set_objective !m Lp.Maximize
          (Array.to_list (Array.mapi (fun j v -> (v, vars.(j))) values));
      let brute =
        let best = ref neg_infinity in
        for mask = 0 to (1 lsl nv) - 1 do
          let bits = ref 0 and v = ref 0.0 in
          for j = 0 to nv - 1 do
            if mask land (1 lsl j) <> 0 then begin
              incr bits;
              v := !v +. values.(j)
            end
          done;
          if !bits = k && !v > !best then best := !v
        done;
        !best
      in
      match Milp_par.solve !m with
      | Milp.Optimal { objective; _ } -> Float.abs (objective -. brute) <= 1e-6
      | Milp.Feasible _ | Milp.Infeasible | Milp.Unbounded | Milp.Node_limit
      | Milp.Timeout ->
          false)

let qcheck_milp_find_first_feasible =
  QCheck.Test.make ~count:60
    ~name:"find-first returns a feasible integral point when brute force finds one"
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 29) in
      let nv = 3 in
      let weights = Array.init nv (fun _ -> Rng.uniform rng ~lo:0.5 ~hi:3.0) in
      let lo = Rng.uniform rng ~lo:0.5 ~hi:4.0 in
      let hi = lo +. Rng.uniform rng ~lo:0.0 ~hi:2.0 in
      (* feasibility: lo <= w'x <= hi, x binary *)
      let m = ref (Lp.create ()) in
      let vars =
        Array.init nv (fun _ ->
            let model, v = Lp.add_var ~kind:Lp.Binary !m in
            m := model;
            v)
      in
      let terms = Array.to_list (Array.mapi (fun j w -> (w, vars.(j))) weights) in
      m := Lp.add_constraint !m terms Lp.Ge lo;
      m := Lp.add_constraint !m terms Lp.Le hi;
      let brute_feasible =
        let found = ref false in
        for mask = 0 to (1 lsl nv) - 1 do
          let w = ref 0.0 in
          for j = 0 to nv - 1 do
            if mask land (1 lsl j) <> 0 then w := !w +. weights.(j)
          done;
          if !w >= lo -. 1e-12 && !w <= hi +. 1e-12 then found := true
        done;
        !found
      in
      let options = { Milp.default_options with find_first = true } in
      match Milp_par.solve ~options !m with
      | Milp.Feasible { solution; _ } ->
          brute_feasible && Lp.check_feasible ~tol:1e-6 !m solution
      (* find_first incumbents must come back Feasible, never Optimal *)
      | Milp.Optimal _ -> false
      | Milp.Infeasible -> not brute_feasible
      | Milp.Unbounded | Milp.Node_limit | Milp.Timeout -> false)

let qcheck_solution_at_most_bounds =
  QCheck.Test.make ~count:100 ~name:"reported solutions respect variable bounds"
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 37) in
      let lp = make_random_lp rng in
      let model, vars = build_model lp in
      match Simplex.solve model with
      | Simplex.Optimal { solution; _ } ->
          Array.for_all
            (fun v -> solution.(v) >= -1e-9 && solution.(v) <= lp.u +. 1e-9)
            vars
      | Simplex.Infeasible | Simplex.Unbounded -> false)

let tests =
  [
    QCheck_alcotest.to_alcotest qcheck_weak_duality;
    QCheck_alcotest.to_alcotest qcheck_objective_scaling_invariance;
    QCheck_alcotest.to_alcotest qcheck_adding_constraint_weakens_optimum;
    QCheck_alcotest.to_alcotest qcheck_milp_vs_bruteforce;
    QCheck_alcotest.to_alcotest qcheck_milp_equalities_vs_bruteforce;
    QCheck_alcotest.to_alcotest qcheck_milp_find_first_feasible;
    QCheck_alcotest.to_alcotest qcheck_solution_at_most_bounds;
  ]
