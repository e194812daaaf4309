type status =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded

(* ===================================================================== *)
(* Dense two-phase reference implementation, retained as [solve_dense].  *)
(* It is the differential-testing oracle and the fallback when the       *)
(* revised engine below hits numerical trouble.                          *)
(* ===================================================================== *)

(* Standard-form translation: every original variable is expressed as an
   affine combination of fresh non-negative variables.
     [lo, up]   -> lo + y,  with extra row  y <= up - lo
     [lo, +inf) -> lo + y
     (-inf, up] -> up - y
     free       -> y+ - y-                                            *)
type var_map = { offset : float; parts : (int * float) list }

type std_form = {
  n_std : int;                          (* number of non-negative vars *)
  rows : (float array * Lp.relation * float) list; (* dense rows over std vars *)
  cost : float array;                   (* minimization costs over std vars *)
  cost_const : float;                   (* constant offset of the objective *)
  maps : var_map array;                 (* orig var -> std combination *)
  negate_objective : bool;              (* original sense was Maximize *)
}

let build_std_form model =
  let nv = Lp.num_vars model in
  let next = ref 0 in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  let extra_rows = ref [] in
  let maps =
    Array.init nv (fun v ->
        match Lp.var_bounds model v with
        | Some lo, Some up ->
            let y = fresh () in
            (* y <= up - lo, recorded as a sparse pair resolved below *)
            extra_rows := (y, up -. lo) :: !extra_rows;
            { offset = lo; parts = [ (y, 1.0) ] }
        | Some lo, None ->
            let y = fresh () in
            { offset = lo; parts = [ (y, 1.0) ] }
        | None, Some up ->
            let y = fresh () in
            { offset = up; parts = [ (y, -1.0) ] }
        | None, None ->
            let yp = fresh () in
            let yn = fresh () in
            { offset = 0.0; parts = [ (yp, 1.0); (yn, -1.0) ] })
  in
  let n_std = !next in
  let dense_of_terms terms =
    let row = Array.make n_std 0.0 in
    let const = ref 0.0 in
    List.iter
      (fun (c, v) ->
        let m = maps.(v) in
        const := !const +. (c *. m.offset);
        List.iter
          (fun (sv, coeff) -> row.(sv) <- row.(sv) +. (c *. coeff))
          m.parts)
      terms;
    (row, !const)
  in
  let rows =
    List.map
      (fun (_, terms, rel, rhs) ->
        let row, const = dense_of_terms terms in
        (row, rel, rhs -. const))
      (Lp.constraints model)
  in
  let bound_rows =
    List.map
      (fun (y, ub) ->
        let row = Array.make n_std 0.0 in
        row.(y) <- 1.0;
        (row, Lp.Le, ub))
      !extra_rows
  in
  let sense, obj_terms = Lp.objective model in
  let negate_objective = sense = Lp.Maximize in
  let cost_row, cost_const = dense_of_terms obj_terms in
  let cost = if negate_objective then Array.map (fun c -> -.c) cost_row else cost_row in
  {
    n_std;
    rows = rows @ bound_rows;
    cost;
    cost_const;
    maps;
    negate_objective;
  }

(* Dense tableau: [m] rows over columns [0 .. ncols-1] plus an rhs column.
   [basis.(i)] is the column basic in row [i].  The objective row holds
   reduced costs; its rhs entry is the negated objective value. *)
type tableau = {
  a : float array array;       (* m x (ncols + 1) *)
  obj : float array;           (* ncols + 1 *)
  basis : int array;
  m : int;
  ncols : int;
}

let pivot t ~row ~col =
  let piv = t.a.(row).(col) in
  let r = t.a.(row) in
  for j = 0 to t.ncols do
    r.(j) <- r.(j) /. piv
  done;
  let eliminate target =
    let f = target.(col) in
    if f <> 0.0 then
      for j = 0 to t.ncols do
        target.(j) <- target.(j) -. (f *. r.(j))
      done
  in
  for i = 0 to t.m - 1 do
    if i <> row then eliminate t.a.(i)
  done;
  eliminate t.obj;
  t.basis.(row) <- col

(* One simplex phase: minimize the current objective row.  [allowed col]
   filters candidate entering columns (used to exclude artificials in
   phase 2).  Returns [`Optimal] or [`Unbounded]. *)
let run_phase ~tol ~allowed t =
  let bland_after = 20 * (t.m + t.ncols + 10) in
  let rec loop iter =
    if iter > 200 * (t.m + t.ncols + 100) then
      failwith "Simplex: iteration limit exceeded (numerical trouble)";
    let use_bland = iter > bland_after in
    (* Entering column: most negative reduced cost (Dantzig), or the first
       negative one (Bland) once cycling is suspected. *)
    let entering = ref (-1) in
    let best = ref (-.tol) in
    (try
       for j = 0 to t.ncols - 1 do
         if allowed j && t.obj.(j) < !best then begin
           entering := j;
           best := t.obj.(j);
           if use_bland then raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then `Optimal
    else begin
      let col = !entering in
      (* Ratio test; ties broken by smallest basis index (Bland-safe). *)
      let leave = ref (-1) in
      let best_ratio = ref infinity in
      for i = 0 to t.m - 1 do
        let aij = t.a.(i).(col) in
        if aij > tol then begin
          let ratio = t.a.(i).(t.ncols) /. aij in
          if
            ratio < !best_ratio -. tol
            || (ratio < !best_ratio +. tol
               && (!leave < 0 || t.basis.(i) < t.basis.(!leave)))
          then begin
            best_ratio := ratio;
            leave := i
          end
        end
      done;
      if !leave < 0 then `Unbounded
      else begin
        pivot t ~row:!leave ~col;
        loop (iter + 1)
      end
    end
  in
  loop 0

let solve_dense ?(tol = 1e-9) model =
  let sf = build_std_form model in
  let rows = Array.of_list sf.rows in
  let m = Array.length rows in
  (* Flip rows so every rhs is non-negative, then count slack/artificial
     columns.  Le -> slack; Ge -> surplus + artificial; Eq -> artificial. *)
  let rows =
    Array.map
      (fun (row, rel, rhs) ->
        if rhs < 0.0 then
          ( Array.map (fun c -> -.c) row,
            (match rel with Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le | Lp.Eq -> Lp.Eq),
            -.rhs )
        else (row, rel, rhs))
      rows
  in
  let n_slack =
    Array.fold_left
      (fun acc (_, rel, _) -> match rel with Lp.Le | Lp.Ge -> acc + 1 | Lp.Eq -> acc)
      0 rows
  in
  let n_art =
    Array.fold_left
      (fun acc (_, rel, _) -> match rel with Lp.Ge | Lp.Eq -> acc + 1 | Lp.Le -> acc)
      0 rows
  in
  let ncols = sf.n_std + n_slack + n_art in
  let art_start = sf.n_std + n_slack in
  let a = Array.init m (fun _ -> Array.make (ncols + 1) 0.0) in
  let basis = Array.make m (-1) in
  let slack_idx = ref sf.n_std in
  let art_idx = ref art_start in
  Array.iteri
    (fun i (row, rel, rhs) ->
      Array.blit row 0 a.(i) 0 sf.n_std;
      a.(i).(ncols) <- rhs;
      (match rel with
      | Lp.Le ->
          a.(i).(!slack_idx) <- 1.0;
          basis.(i) <- !slack_idx;
          incr slack_idx
      | Lp.Ge ->
          a.(i).(!slack_idx) <- -1.0;
          incr slack_idx;
          a.(i).(!art_idx) <- 1.0;
          basis.(i) <- !art_idx;
          incr art_idx
      | Lp.Eq ->
          a.(i).(!art_idx) <- 1.0;
          basis.(i) <- !art_idx;
          incr art_idx))
    rows;
  let t = { a; obj = Array.make (ncols + 1) 0.0; basis; m; ncols } in
  (* ---- Phase 1: minimize the sum of artificials. ---- *)
  let phase2_needed = n_art > 0 in
  if phase2_needed then begin
    for j = art_start to ncols - 1 do
      t.obj.(j) <- 1.0
    done;
    (* Price out the basic artificials. *)
    for i = 0 to m - 1 do
      if t.basis.(i) >= art_start then
        for j = 0 to ncols do
          t.obj.(j) <- t.obj.(j) -. t.a.(i).(j)
        done
    done;
    match run_phase ~tol ~allowed:(fun _ -> true) t with
    | `Unbounded ->
        (* Phase-1 objective is bounded below by 0; cannot happen. *)
        failwith "Simplex: phase 1 unbounded"
    | `Optimal ->
        ();
  end;
  let phase1_value = -.t.obj.(ncols) in
  if phase2_needed && phase1_value > 1e-7 then Infeasible
  else begin
    (* Drive any leftover basic artificial out of the basis (its value is
       ~0).  If its row has no usable pivot the row is redundant; zero it. *)
    for i = 0 to m - 1 do
      if t.basis.(i) >= art_start then begin
        let found = ref false in
        let j = ref 0 in
        while (not !found) && !j < art_start do
          if Float.abs t.a.(i).(!j) > sqrt tol then begin
            pivot t ~row:i ~col:!j;
            found := true
          end;
          incr j
        done;
        if not !found then begin
          Array.fill t.a.(i) 0 (ncols + 1) 0.0;
          (* keep the artificial basic in a null row; it can never pivot *)
        end
      end
    done;
    (* ---- Phase 2: original objective over non-artificial columns. ---- *)
    Array.fill t.obj 0 (ncols + 1) 0.0;
    Array.blit sf.cost 0 t.obj 0 sf.n_std;
    for i = 0 to m - 1 do
      let b = t.basis.(i) in
      if b < art_start && t.obj.(b) <> 0.0 then begin
        let cb = t.obj.(b) in
        for j = 0 to ncols do
          t.obj.(j) <- t.obj.(j) -. (cb *. t.a.(i).(j))
        done
      end
    done;
    let allowed j = j < art_start in
    match run_phase ~tol ~allowed t with
    | `Unbounded -> Unbounded
    | `Optimal ->
        let std_solution = Array.make sf.n_std 0.0 in
        for i = 0 to m - 1 do
          if t.basis.(i) < sf.n_std then
            std_solution.(t.basis.(i)) <- t.a.(i).(ncols)
        done;
        let solution =
          Array.map
            (fun vm ->
              List.fold_left
                (fun acc (sv, coeff) -> acc +. (coeff *. std_solution.(sv)))
                vm.offset vm.parts)
            sf.maps
        in
        let minimized = -.t.obj.(ncols) +. if sf.negate_objective then 0.0 else sf.cost_const in
        let objective =
          if sf.negate_objective then -.(-.t.obj.(ncols)) +. sf.cost_const
          else minimized
        in
        Optimal { objective; solution }
  end

(* ===================================================================== *)
(* Revised simplex with native bounded variables and basis reuse.        *)
(*                                                                       *)
(* Every constraint row becomes an equality by adding one slack whose    *)
(* bounds encode the relation (Le: [0,inf), Ge: (-inf,0], Eq: [0,0]).    *)
(* Variables keep their [lo,up] bounds; the ratio test handles bound     *)
(* flips directly, so no standard-form splitting and no Phase-1          *)
(* artificial columns are ever created.                                  *)
(*                                                                       *)
(* The basis inverse is kept explicitly (m x m, row-major) and updated   *)
(* in product form on each pivot, with a full refactorization every 64   *)
(* pivots to keep drift in check.  Each kernel pays only for nonzero     *)
(* work: the product-form update and both Gauss-Jordan sweeps of a       *)
(* refactorization run over the recorded support of the normalized pivot *)
(* row, and reduced costs price only the basic rows with a nonzero cost  *)
(* (there are none in a zero-objective verification MILP, whose reduced  *)
(* costs are then the cost vector itself).  Every skipped term is an     *)
(* exact zero, so each nonzero floating-point operation keeps its order  *)
(* and pivot choices never change.  The two m x m refactorization        *)
(* matrices live in a grow-only per-domain arena, not in the handle, and *)
(* [release] hands a finished handle's B^-1 to the next [create] on its  *)
(* domain.  Cold starts run a zero-cost dual phase from the all-slack    *)
(* basis (with c = 0 every basis is dual feasible, so dual simplex is a  *)
(* pure primal-infeasibility chaser), then the primal phase with the     *)
(* real costs.  Warm starts after a bound change keep the old basis dual *)
(* feasible and run dual simplex; warm starts after an objective change  *)
(* keep it primal feasible and run primal simplex.                       *)
(* ===================================================================== *)

exception Numerical_trouble of string

type counters = {
  pivots : int;
  warm_starts : int;
  cold_starts : int;
  fallbacks : int;
}

type handle = {
  n : int;                         (* structural variables *)
  m : int;                         (* constraint rows *)
  ncols : int;                     (* n + m (structural + slacks) *)
  col_rows : int array array;      (* sparse column pattern, all ncols *)
  col_coefs : float array array;
  rhs : float array;               (* m *)
  cost : float array;              (* ncols, minimization costs *)
  lo : float array;                (* ncols, -infinity when unbounded *)
  up : float array;                (* ncols, +infinity when unbounded *)
  basis : int array;               (* m: column basic in row i *)
  in_row : int array;              (* ncols: row where basic, or -1 *)
  at_upper : bool array;           (* ncols: nonbasic rests at upper *)
  mutable binv : float array array; (* >= m x m; binv.(r) is row r of B^-1 *)
  xb : float array;                (* m: values of basic variables *)
  d : float array;                 (* ncols: reduced costs *)
  alpha : float array;             (* scratch m: ftran of a column *)
  w : float array;                 (* scratch m *)
  yrow : float array;              (* scratch m *)
  supp : int array;                (* scratch m: pivot-row support *)
  tol : float;
  base : Lp.t;                     (* model as given to [create] *)
  mutable obj_sense : Lp.objective_sense;
  mutable obj_terms : Lp.term list;
  mutable has_basis : bool;
  mutable since_refactor : int;
  mutable n_pivots : int;
  mutable n_warm : int;
  mutable n_cold : int;
  mutable n_fallbacks : int;
}

let feas_tol = 1e-7       (* primal feasibility *)
let dfeas_tol = 1e-7      (* dual feasibility *)
let degen_tol = 1e-10     (* step sizes below this count as degenerate *)
let piv_floor = 1e-11     (* hard floor on pivot magnitude *)
let refactor_every = 64

let is_fixed h j = h.lo.(j) = h.up.(j)
let is_free h j = h.lo.(j) = neg_infinity && h.up.(j) = infinity

(* Value of a nonbasic variable given its rest status.  Free variables
   rest at 0. *)
let nb_value h j =
  if h.at_upper.(j) then h.up.(j)
  else if h.lo.(j) > neg_infinity then h.lo.(j)
  else 0.0

(* Keep [at_upper] consistent with the bounds: a variable cannot rest at
   an infinite bound. *)
let normalize_status h j =
  if h.at_upper.(j) && h.up.(j) = infinity then h.at_upper.(j) <- false;
  if (not h.at_upper.(j)) && h.lo.(j) = neg_infinity && h.up.(j) < infinity
  then h.at_upper.(j) <- true

(* Grow-only per-domain storage slots, each an atomic cell: [take_slot]
   empties the cell, so a reentrant caller (a second systhread on the
   same domain) allocates its own storage instead of sharing it, and
   [put_slot] keeps the larger of what it is given and what it holds.
   [size] is the row count of the square matrices kept. *)
let new_slot () = Domain.DLS.new_key (fun () -> Atomic.make None)

let take_slot key ~size m alloc =
  match Atomic.exchange (Domain.DLS.get key) None with
  | Some x when size x >= m -> x
  | _ -> alloc m

let put_slot key ~size x =
  let cell = Domain.DLS.get key in
  match Atomic.get cell with
  | Some held when size held >= size x -> ()
  | _ -> Atomic.set cell (Some x)

let square m = Array.init m (fun _ -> Array.make m 0.0)

(* B^-1 storage handed back by [release], reused by the next [create]
   on the domain.  Every row in use is overwritten by [reset_basis]
   before the first solve. *)
let spare_binv : float array array option Atomic.t Domain.DLS.key =
  new_slot ()

let create ?(tol = 1e-9) model =
  let n = Lp.num_vars model in
  let cons = Array.of_list (Lp.constraints model) in
  let m = Array.length cons in
  let ncols = n + m in
  let entries = Array.make ncols [] in
  Array.iteri
    (fun i (_, terms, _, _) ->
      List.iter
        (fun (c, v) -> if c <> 0.0 then entries.(v) <- (i, c) :: entries.(v))
        terms)
    cons;
  for i = 0 to m - 1 do
    entries.(n + i) <- [ (i, 1.0) ]
  done;
  let col_rows =
    Array.map (fun l -> Array.of_list (List.rev_map fst l)) entries
  in
  let col_coefs =
    Array.map (fun l -> Array.of_list (List.rev_map snd l)) entries
  in
  let lo = Array.make ncols neg_infinity in
  let up = Array.make ncols infinity in
  for v = 0 to n - 1 do
    let l, u = Lp.var_bounds model v in
    lo.(v) <- (match l with None -> neg_infinity | Some x -> x);
    up.(v) <- (match u with None -> infinity | Some x -> x)
  done;
  let rhs = Array.make m 0.0 in
  Array.iteri
    (fun i (_, _, rel, b) ->
      rhs.(i) <- b;
      match rel with
      | Lp.Le -> lo.(n + i) <- 0.0
      | Lp.Ge -> up.(n + i) <- 0.0
      | Lp.Eq ->
          lo.(n + i) <- 0.0;
          up.(n + i) <- 0.0)
    cons;
  let obj_sense, obj_terms = Lp.objective model in
  let cost = Array.make ncols 0.0 in
  let sign = if obj_sense = Lp.Maximize then -1.0 else 1.0 in
  List.iter (fun (c, v) -> cost.(v) <- cost.(v) +. (sign *. c)) obj_terms;
  {
    n;
    m;
    ncols;
    col_rows;
    col_coefs;
    rhs;
    cost;
    lo;
    up;
    basis = Array.make m (-1);
    in_row = Array.make ncols (-1);
    at_upper = Array.make ncols false;
    binv = take_slot spare_binv ~size:Array.length m square;
    xb = Array.make m 0.0;
    d = Array.make ncols 0.0;
    alpha = Array.make m 0.0;
    w = Array.make m 0.0;
    yrow = Array.make m 0.0;
    supp = Array.make m 0;
    tol;
    base = model;
    obj_sense;
    obj_terms;
    has_basis = false;
    since_refactor = 0;
    n_pivots = 0;
    n_warm = 0;
    n_cold = 0;
    n_fallbacks = 0;
  }

(* xb = B^-1 (rhs - N x_N), from scratch. *)
let compute_xb h =
  let t = h.w in
  Array.blit h.rhs 0 t 0 h.m;
  for j = 0 to h.ncols - 1 do
    if h.in_row.(j) < 0 then begin
      let v = nb_value h j in
      if v <> 0.0 then begin
        let rows = h.col_rows.(j) and coefs = h.col_coefs.(j) in
        for k = 0 to Array.length rows - 1 do
          t.(rows.(k)) <- t.(rows.(k)) -. (coefs.(k) *. v)
        done
      end
    end
  done;
  for r = 0 to h.m - 1 do
    let br = h.binv.(r) in
    let acc = ref 0.0 in
    for i = 0 to h.m - 1 do
      acc := !acc +. (br.(i) *. t.(i))
    done;
    h.xb.(r) <- !acc
  done

(* Reduced costs d = c - c_B B^-1 A, from scratch (exact recomputation
   after every pivot keeps warm-start dual-feasibility checks honest).
   y = c_B B^-1 accumulates row by row over the basic rows with a
   nonzero cost, which adds each entry's terms in increasing row order.
   With no such row y = 0 and d = c (basic costs are then all zero). *)
let compute_d h =
  let y = h.yrow in
  Array.fill y 0 h.m 0.0;
  let priced = ref false in
  for i = 0 to h.m - 1 do
    let cb = h.cost.(h.basis.(i)) in
    if cb <> 0.0 then begin
      priced := true;
      let bi = h.binv.(i) in
      for j = 0 to h.m - 1 do
        y.(j) <- y.(j) +. (cb *. bi.(j))
      done
    end
  done;
  if not !priced then Array.blit h.cost 0 h.d 0 h.ncols
  else
    for j = 0 to h.ncols - 1 do
      if h.in_row.(j) >= 0 then h.d.(j) <- 0.0
      else begin
        let rows = h.col_rows.(j) and coefs = h.col_coefs.(j) in
        let acc = ref h.cost.(j) in
        for k = 0 to Array.length rows - 1 do
          acc := !acc -. (y.(rows.(k)) *. coefs.(k))
        done;
        h.d.(j) <- !acc
      end
    done

(* alpha = B^-1 A_j. *)
let ftran h j =
  let rows = h.col_rows.(j) and coefs = h.col_coefs.(j) in
  for r = 0 to h.m - 1 do
    let br = h.binv.(r) in
    let acc = ref 0.0 in
    for k = 0 to Array.length rows - 1 do
      acc := !acc +. (br.(rows.(k)) *. coefs.(k))
    done;
    h.alpha.(r) <- !acc
  done

(* Entry (r, j) of B^-1 A given row r of B^-1. *)
let row_dot_col h beta j =
  let rows = h.col_rows.(j) and coefs = h.col_coefs.(j) in
  let acc = ref 0.0 in
  for k = 0 to Array.length rows - 1 do
    acc := !acc +. (beta.(rows.(k)) *. coefs.(k))
  done;
  !acc

(* Divide [row.(0 .. m-1)] by [piv] in place and record the indices of
   its nonzero entries in [supp]; returns their count.  Zero entries are
   left alone: dividing one would at most flip its sign. *)
let scale_support row m piv supp =
  let n = ref 0 in
  for k = 0 to m - 1 do
    let v = row.(k) in
    if v <> 0.0 then begin
      row.(k) <- v /. piv;
      supp.(!n) <- k;
      incr n
    end
  done;
  !n

(* dst <- dst - f * src over the first [n] indices of [supp]: outside the
   support src is zero and the update would leave dst's value as is. *)
let sub_scaled_support dst f src supp n =
  for s = 0 to n - 1 do
    let k = supp.(s) in
    dst.(k) <- dst.(k) -. (f *. src.(k))
  done

(* Refactorization scratch: B and its inverse under elimination plus the
   supports of their current pivot rows, at least m x m.  One per
   domain: [refactorize] takes it out of its slot on entry and puts it
   back on every exit.  Row swaps permute the row references inside the
   arena; every row in use is fully overwritten at the top of each
   call, so the permutation is harmless. *)
type arena = {
  bmat : float array array;
  inv : float array array;
  bsupp : int array;
  isupp : int array;
}

let arena_slot : arena option Atomic.t Domain.DLS.key = new_slot ()
let arena_size a = Array.length a.bmat

let new_arena m =
  {
    bmat = square m;
    inv = square m;
    bsupp = Array.make m 0;
    isupp = Array.make m 0;
  }

(* Gauss-Jordan with partial pivoting of B into [a.inv], copied to
   B^-1.  Raises on a (numerically) singular basis. *)
let invert_basis h a =
  let m = h.m in
  let bmat = a.bmat and inv = a.inv in
  for i = 0 to m - 1 do
    Array.fill bmat.(i) 0 m 0.0;
    Array.fill inv.(i) 0 m 0.0;
    inv.(i).(i) <- 1.0
  done;
  for r = 0 to m - 1 do
    let j = h.basis.(r) in
    let rows = h.col_rows.(j) and coefs = h.col_coefs.(j) in
    for k = 0 to Array.length rows - 1 do
      bmat.(rows.(k)).(r) <- coefs.(k)
    done
  done;
  for c = 0 to m - 1 do
    let p = ref c in
    for i = c + 1 to m - 1 do
      if Float.abs bmat.(i).(c) > Float.abs bmat.(!p).(c) then p := i
    done;
    if Float.abs bmat.(!p).(c) < piv_floor then
      raise (Numerical_trouble "singular basis in refactorization");
    if !p <> c then begin
      let t = bmat.(c) in
      bmat.(c) <- bmat.(!p);
      bmat.(!p) <- t;
      let t = inv.(c) in
      inv.(c) <- inv.(!p);
      inv.(!p) <- t
    end;
    let piv = bmat.(c).(c) in
    let brow = bmat.(c) and irow = inv.(c) in
    let nb = scale_support brow m piv a.bsupp in
    let ni = scale_support irow m piv a.isupp in
    for i = 0 to m - 1 do
      if i <> c then begin
        let f = bmat.(i).(c) in
        if f <> 0.0 then begin
          sub_scaled_support bmat.(i) f brow a.bsupp nb;
          sub_scaled_support inv.(i) f irow a.isupp ni
        end
      end
    done
  done;
  for i = 0 to m - 1 do
    Array.blit inv.(i) 0 h.binv.(i) 0 m
  done

(* Rebuild B^-1 from the basis, then recompute xb exactly. *)
let refactorize h =
  if Faults.fire Faults.Refactor_singular then
    raise (Numerical_trouble "injected singular refactorization");
  let trace_t0 = Dpv_obs.Trace.begin_ns () in
  let a = take_slot arena_slot ~size:arena_size h.m new_arena in
  (match invert_basis h a with
  | () -> put_slot arena_slot ~size:arena_size a
  | exception e ->
      put_slot arena_slot ~size:arena_size a;
      raise e);
  h.since_refactor <- 0;
  compute_xb h;
  Dpv_obs.Trace.complete ~name:"simplex.refactorize" trace_t0

(* Product-form basis-inverse update: column q enters in row r. *)
let apply_pivot h ~r ~q =
  let piv = h.alpha.(r) in
  if Float.abs piv < piv_floor then
    raise (Numerical_trouble "pivot element below floor");
  let br = h.binv.(r) in
  let n = scale_support br h.m piv h.supp in
  for i = 0 to h.m - 1 do
    if i <> r then begin
      let f = h.alpha.(i) in
      if f <> 0.0 then sub_scaled_support h.binv.(i) f br h.supp n
    end
  done;
  h.in_row.(h.basis.(r)) <- -1;
  h.basis.(r) <- q;
  h.in_row.(q) <- r;
  h.n_pivots <- h.n_pivots + 1;
  h.since_refactor <- h.since_refactor + 1;
  (* Injected silent corruption: scribble on one row of B^-1 (and the
     matching basic value) without raising.  Only the post-solve
     residual check can catch this — which is the point. *)
  if Faults.fire Faults.Pivot_corrupt then begin
    let s = abs (Faults.seed ()) in
    let row = ((s * 31) + 17) mod h.m in
    let magnitude = 2.0 +. float_of_int (s mod 7) in
    let br = h.binv.(row) in
    for k = 0 to h.m - 1 do
      br.(k) <- br.(k) +. magnitude
    done;
    h.xb.(row) <- h.xb.(row) +. magnitude
  end

let maybe_refactor h =
  if h.since_refactor >= refactor_every then refactorize h

let max_iters h = 200 * (h.m + h.ncols + 100)
let bland_threshold h = h.m + h.ncols + 20

(* ---- Primal bounded-variable simplex.  Requires a primal-feasible
   basis and current reduced costs; minimizes.  Returns [`Optimal] or
   [`Unbounded]. ---- *)
let primal_simplex h =
  let tol = h.tol in
  let bland = ref false in
  let degen_streak = ref 0 in
  let rec loop iter =
    if iter > max_iters h then
      raise (Numerical_trouble "primal iteration limit");
    (* Entering variable: most negative effective reduced cost
       (Dantzig); min-index first-eligible in Bland mode. *)
    let enter = ref (-1) in
    let enter_dir = ref 1.0 in
    let best = ref (-.tol) in
    (try
       for j = 0 to h.ncols - 1 do
         if h.in_row.(j) < 0 && not (is_fixed h j) then begin
           let dj = h.d.(j) in
           let eligible, dir =
             if is_free h j then
               if dj < -.tol then (true, 1.0)
               else if dj > tol then (true, -1.0)
               else (false, 1.0)
             else if h.at_upper.(j) then (dj > tol, -1.0)
             else (dj < -.tol, 1.0)
           in
           if eligible then begin
             let eff = dir *. dj in
             if eff < !best then begin
               best := eff;
               enter := j;
               enter_dir := dir;
               if !bland then raise Exit
             end
           end
         end
       done
     with Exit -> ());
    if !enter < 0 then `Optimal
    else begin
      let q = !enter and dir = !enter_dir in
      ftran h q;
      (* Ratio test over basic variables plus the entering variable's own
         opposite bound (bound flip). *)
      let gap =
        if is_free h q then infinity
        else if dir > 0.0 then h.up.(q) -. h.lo.(q)
        else h.up.(q) -. h.lo.(q)
      in
      let t_best = ref gap in
      let leave = ref (-1) in
      let leave_up = ref false in
      let piv_abs = ref 0.0 in
      for i = 0 to h.m - 1 do
        let a = dir *. h.alpha.(i) in
        let k = h.basis.(i) in
        let t, to_upper =
          if a > tol && h.lo.(k) > neg_infinity then
            (Float.max 0.0 ((h.xb.(i) -. h.lo.(k)) /. a), false)
          else if a < -.tol && h.up.(k) < infinity then
            (Float.max 0.0 ((h.up.(k) -. h.xb.(i)) /. -.a), true)
          else (infinity, false)
        in
        if t < infinity then begin
          let better =
            t < !t_best -. 1e-12
            || (t < !t_best +. 1e-12
               && !leave >= 0
               &&
               if !bland then k < h.basis.(!leave)
               else Float.abs h.alpha.(i) > !piv_abs)
          in
          if better then begin
            t_best := t;
            leave := i;
            leave_up := to_upper;
            piv_abs := Float.abs h.alpha.(i)
          end
        end
      done;
      if !t_best = infinity then `Unbounded
      else begin
        let t = !t_best in
        if t > degen_tol then degen_streak := 0
        else begin
          incr degen_streak;
          if !degen_streak > bland_threshold h then bland := true
        end;
        if !leave < 0 then begin
          (* Bound flip: the entering variable crosses to its opposite
             bound before any basic variable blocks. *)
          h.at_upper.(q) <- not h.at_upper.(q);
          if t <> 0.0 then
            for i = 0 to h.m - 1 do
              h.xb.(i) <- h.xb.(i) -. (dir *. t *. h.alpha.(i))
            done;
          h.n_pivots <- h.n_pivots + 1;
          loop (iter + 1)
        end
        else begin
          let r = !leave in
          let newval = nb_value h q +. (dir *. t) in
          for i = 0 to h.m - 1 do
            if i <> r then h.xb.(i) <- h.xb.(i) -. (dir *. t *. h.alpha.(i))
          done;
          h.at_upper.(h.basis.(r)) <- !leave_up;
          apply_pivot h ~r ~q;
          h.xb.(r) <- newval;
          maybe_refactor h;
          compute_d h;
          loop (iter + 1)
        end
      end
    end
  in
  loop 0

(* ---- Dual simplex.  Requires a dual-feasible basis ([~zero:true]
   pins the costs at 0, for which every basis is dual feasible — that is
   the cold-start feasibility phase).  Chases primal bound violations;
   returns [`Feasible] or [`Infeasible]. ---- *)
let dual_simplex ~zero h =
  let tol = h.tol in
  let bland = ref false in
  let stall_streak = ref 0 in
  let prev_viol = ref infinity in
  let rec loop iter =
    if iter > max_iters h then
      raise (Numerical_trouble "dual iteration limit");
    (* Leaving row: largest bound violation (min basic index in Bland
       mode).  Also track the total violation to detect stalling. *)
    let r = ref (-1) in
    let below = ref false in
    let best_v = ref feas_tol in
    let total_v = ref 0.0 in
    for i = 0 to h.m - 1 do
      let k = h.basis.(i) in
      let v_below = h.lo.(k) -. h.xb.(i) in
      let v_above = h.xb.(i) -. h.up.(k) in
      if v_below > feas_tol then begin
        total_v := !total_v +. v_below;
        let take =
          if !bland then !r < 0 || k < h.basis.(!r) else v_below > !best_v
        in
        if take then begin
          r := i;
          below := true;
          if not !bland then best_v := v_below
        end
      end
      else if v_above > feas_tol then begin
        total_v := !total_v +. v_above;
        let take =
          if !bland then !r < 0 || k < h.basis.(!r) else v_above > !best_v
        in
        if take then begin
          r := i;
          below := false;
          if not !bland then best_v := v_above
        end
      end
    done;
    if !r < 0 then `Feasible
    else begin
      if !total_v >= !prev_viol -. 1e-12 then begin
        incr stall_streak;
        if !stall_streak > bland_threshold h then bland := true
      end
      else stall_streak := 0;
      prev_viol := !total_v;
      let r = !r in
      let below = !below in
      let k = h.basis.(r) in
      let target = if below then h.lo.(k) else h.up.(k) in
      let beta = h.binv.(r) in
      (* Entering variable: dual ratio test.  A nonbasic j moving by
         t >= 0 in its admissible direction dir changes xb_r by
         -dir*t*a_rj; we need xb_r to move toward [target]. *)
      let q = ref (-1) in
      let q_dir = ref 1.0 in
      let best_ratio = ref infinity in
      let best_abs = ref 0.0 in
      for j = 0 to h.ncols - 1 do
        if h.in_row.(j) < 0 && not (is_fixed h j) then begin
          let a = row_dot_col h beta j in
          if Float.abs a > tol then begin
            let eligible, dir =
              if is_free h j then (true, if below then -.Float.of_int (compare a 0.0) else Float.of_int (compare a 0.0))
              else if h.at_upper.(j) then
                if below then (a > tol, -1.0) else (a < -.tol, -1.0)
              else if below then (a < -.tol, 1.0)
              else (a > tol, 1.0)
            in
            if eligible then begin
              let ratio = if zero then 0.0 else Float.abs h.d.(j) /. Float.abs a in
              let better =
                ratio < !best_ratio -. 1e-12
                || (ratio < !best_ratio +. 1e-12
                   &&
                   if !bland then !q < 0 || j < !q
                   else Float.abs a > !best_abs)
              in
              if better then begin
                q := j;
                q_dir := dir;
                best_ratio := ratio;
                best_abs := Float.abs a
              end
            end
          end
        end
      done;
      if !q < 0 then `Infeasible
      else begin
        let q = !q and dir = !q_dir in
        ftran h q;
        let denom = dir *. h.alpha.(r) in
        if Float.abs denom < piv_floor then
          raise (Numerical_trouble "dual pivot element below floor");
        let t = Float.max 0.0 ((h.xb.(r) -. target) /. denom) in
        let newval = nb_value h q +. (dir *. t) in
        for i = 0 to h.m - 1 do
          if i <> r then h.xb.(i) <- h.xb.(i) -. (dir *. t *. h.alpha.(i))
        done;
        h.at_upper.(k) <- not below;
        apply_pivot h ~r ~q;
        h.xb.(r) <- newval;
        maybe_refactor h;
        if not zero then compute_d h;
        loop (iter + 1)
      end
    end
  in
  loop 0

let primal_feasible h =
  let ok = ref true in
  for i = 0 to h.m - 1 do
    let k = h.basis.(i) in
    if h.xb.(i) < h.lo.(k) -. feas_tol || h.xb.(i) > h.up.(k) +. feas_tol then
      ok := false
  done;
  !ok

let dual_feasible h =
  let ok = ref true in
  for j = 0 to h.ncols - 1 do
    if h.in_row.(j) < 0 && not (is_fixed h j) then begin
      let dj = h.d.(j) in
      if is_free h j then begin
        if Float.abs dj > dfeas_tol then ok := false
      end
      else if h.at_upper.(j) then begin
        if dj > dfeas_tol then ok := false
      end
      else if h.lo.(j) > neg_infinity then begin
        if dj < -.dfeas_tol then ok := false
      end
    end
  done;
  !ok

let set_var_bounds h v ~lo ~up =
  let nlo = match lo with None -> neg_infinity | Some x -> x in
  let nup = match up with None -> infinity | Some x -> x in
  if nlo <> h.lo.(v) || nup <> h.up.(v) then begin
    if h.has_basis && h.in_row.(v) < 0 then begin
      let oldv = nb_value h v in
      h.lo.(v) <- nlo;
      h.up.(v) <- nup;
      normalize_status h v;
      let newv = nb_value h v in
      let delta = newv -. oldv in
      (* Keep xb consistent with the moved nonbasic value; the basis
         stays dual feasible, which is what the warm resolve exploits. *)
      if delta <> 0.0 then begin
        ftran h v;
        for i = 0 to h.m - 1 do
          h.xb.(i) <- h.xb.(i) -. (delta *. h.alpha.(i))
        done
      end
    end
    else begin
      h.lo.(v) <- nlo;
      h.up.(v) <- nup
    end
  end

let set_objective h sense terms =
  h.obj_sense <- sense;
  h.obj_terms <- terms;
  Array.fill h.cost 0 h.ncols 0.0;
  let sign = if sense = Lp.Maximize then -1.0 else 1.0 in
  List.iter (fun (c, v) -> h.cost.(v) <- h.cost.(v) +. (sign *. c)) terms;
  if h.has_basis then compute_d h

(* The model the handle currently represents: base structure with the
   handle's live bounds and objective.  Used by the dense fallback. *)
let current_model h =
  let opt x =
    if x = neg_infinity || x = infinity then None else Some x
  in
  let model = ref h.base in
  for v = 0 to h.n - 1 do
    model := Lp.set_var_bounds !model v ~lo:(opt h.lo.(v)) ~up:(opt h.up.(v))
  done;
  Lp.set_objective !model h.obj_sense h.obj_terms

let reset_basis h =
  for i = 0 to h.m - 1 do
    h.basis.(i) <- h.n + i
  done;
  Array.fill h.in_row 0 h.ncols (-1);
  for i = 0 to h.m - 1 do
    h.in_row.(h.n + i) <- i
  done;
  for j = 0 to h.ncols - 1 do
    h.at_upper.(j) <- false;
    normalize_status h j
  done;
  for i = 0 to h.m - 1 do
    let bi = h.binv.(i) in
    Array.fill bi 0 h.m 0.0;
    bi.(i) <- 1.0
  done;
  h.since_refactor <- 0;
  compute_xb h

(* Concrete row residual of the candidate basic solution over ALL
   columns (structural + slacks), computed straight from the constraint
   columns — deliberately not through B^-1, because a corrupted basis
   inverse cannot vouch for itself.  In the bounded-slack formulation
   [Ax = rhs] holds exactly at any consistent basic point, so a large
   residual means the revised state is lying and the resolve must fall
   back instead of reporting a fabricated optimum. *)
let residual_check h =
  let res = h.w in
  Array.blit h.rhs 0 res 0 h.m;
  let scale = ref 1.0 in
  for j = 0 to h.ncols - 1 do
    let v = if h.in_row.(j) >= 0 then h.xb.(h.in_row.(j)) else nb_value h j in
    if v <> 0.0 then begin
      let rows = h.col_rows.(j) and coefs = h.col_coefs.(j) in
      for k = 0 to Array.length rows - 1 do
        let contrib = coefs.(k) *. v in
        res.(rows.(k)) <- res.(rows.(k)) -. contrib;
        let a = Float.abs contrib in
        if a > !scale then scale := a
      done
    end
  done;
  for r = 0 to h.m - 1 do
    if Float.abs res.(r) > 1e-6 *. !scale then
      raise (Numerical_trouble "solution residual check failed")
  done

let extract_optimal h =
  residual_check h;
  let solution =
    Array.init h.n (fun j ->
        if h.in_row.(j) >= 0 then h.xb.(h.in_row.(j)) else nb_value h j)
  in
  let objective = Lp.eval_term_list h.obj_terms solution in
  Optimal { objective; solution }

let finish_primal h =
  match primal_simplex h with
  | `Optimal ->
      h.has_basis <- true;
      extract_optimal h
  | `Unbounded ->
      h.has_basis <- true;
      Unbounded

(* Feasibility phase from the current basis: zero-cost dual simplex
   (trivially dual feasible), then the real costs. *)
let feasibility_then_primal h =
  Array.fill h.d 0 h.ncols 0.0;
  match dual_simplex ~zero:true h with
  | `Infeasible ->
      compute_d h;
      h.has_basis <- true;
      Infeasible
  | `Feasible ->
      compute_d h;
      finish_primal h

let bounds_conflict h =
  let conflict = ref false in
  for j = 0 to h.ncols - 1 do
    if h.lo.(j) > h.up.(j) +. h.tol then conflict := true
  done;
  !conflict

let resolve ?(bound_changes = []) h =
  if Array.length h.binv < h.m then
    invalid_arg "Simplex.resolve: released handle";
  List.iter (fun (v, lo, up) -> set_var_bounds h v ~lo ~up) bound_changes;
  (* The forced-trouble fault site sits OUTSIDE the fallback handler
     below on purpose: it models trouble the internal rescue cannot
     absorb, so the exception escapes to the caller (the query-level
     retry ladder solves on [solve_dense] instead). *)
  if Faults.fire Faults.Lp_trouble then
    raise (Numerical_trouble "injected numerical trouble");
  let warm = h.has_basis in
  if warm then h.n_warm <- h.n_warm + 1 else h.n_cold <- h.n_cold + 1;
  let trace_t0 = Dpv_obs.Trace.begin_ns () in
  let result =
    if bounds_conflict h then Infeasible
    else
      try
        if not h.has_basis then begin
          reset_basis h;
          feasibility_then_primal h
        end
        else if dual_feasible h then
          match dual_simplex ~zero:false h with
          | `Infeasible -> Infeasible
          | `Feasible -> finish_primal h
        else if primal_feasible h then finish_primal h
        else feasibility_then_primal h
      with Numerical_trouble _ ->
        (* The revised state may be arbitrarily corrupted at this point
           (mid-pivot rest statuses, a singular or scribbled B^-1).  Drop
           the basis entirely: with [has_basis] cleared the next resolve
           rebuilds from the all-slack basis via [reset_basis] — a
           refactorization from scratch — and [set_var_bounds] stops
           routing incremental updates through the dead inverse, so a
           corrupted basis is never reused. *)
        h.n_fallbacks <- h.n_fallbacks + 1;
        h.has_basis <- false;
        h.since_refactor <- 0;
        solve_dense ~tol:h.tol (current_model h)
  in
  if trace_t0 <> 0 then
    Dpv_obs.Trace.complete
      ~args:[ ("start", if warm then "warm" else "cold") ]
      ~name:"simplex.resolve" trace_t0;
  result

let release h =
  let binv = h.binv in
  h.binv <- [||];
  put_slot spare_binv ~size:Array.length binv

let counters h =
  {
    pivots = h.n_pivots;
    warm_starts = h.n_warm;
    cold_starts = h.n_cold;
    fallbacks = h.n_fallbacks;
  }

let solve ?tol model = resolve (create ?tol model)

let pp_status fmt = function
  | Optimal { objective; solution } ->
      Format.fprintf fmt "optimal obj=%g at %a" objective Dpv_tensor.Vec.pp
        solution
  | Infeasible -> Format.fprintf fmt "infeasible"
  | Unbounded -> Format.fprintf fmt "unbounded"
