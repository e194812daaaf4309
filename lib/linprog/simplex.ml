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
      (* Ratio test over the rows' clamped values (a rounding residue
         below 0 is a degenerate 0, not a negative step).  Ties go to the
         larger pivot, and in Bland mode to the smallest basis index:
         a tie broken towards a tiny pivot can blow the tableau up on
         big-M rows. *)
      let leave = ref (-1) in
      let best_ratio = ref infinity in
      for i = 0 to t.m - 1 do
        let aij = t.a.(i).(col) in
        if aij > tol then begin
          let ratio = Float.max 0.0 t.a.(i).(t.ncols) /. aij in
          if
            ratio < !best_ratio -. tol
            || ratio < !best_ratio +. tol
               && (!leave < 0
                  ||
                  if use_bland then t.basis.(i) < t.basis.(!leave)
                  else aij > t.a.(!leave).(col))
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
(* The basis is held as a sparse LU factorization (Markowitz pivoting    *)
(* with a threshold test, singletons first) and updated in place on each *)
(* pivot by a Forrest-Tomlin update: the entering column's spike         *)
(* replaces one column of U, and one row eta restores triangularity.     *)
(* FTRAN (B^-1 a) and BTRAN (e B^-1) solve through the factors; the      *)
(* dual simplex takes its pivot row from a BTRAN of e_r.  The basis is   *)
(* refactorized when the updates have grown the factors well past their  *)
(* fresh size, after [max_updates] updates, when an update fails its     *)
(* stability check, or when a pivot element computed down its column and *)
(* along its row disagree.  A refactorization also checks the updated    *)
(* basic values against recomputed ones.  The factors, the update file   *)
(* and the factorization workspace live in one grow-only record that     *)
(* [create] takes from its domain and [release] hands back, so a warm    *)
(* domain never allocates them.  Reduced costs price only the basic rows *)
(* with a nonzero cost, and an LP without costs keeps d = 0 throughout   *)
(* (every zero-objective verification MILP).  Cold starts run a          *)
(* zero-cost dual phase from the all-slack basis (with c = 0 every basis *)
(* is dual feasible, so dual simplex is a pure primal-infeasibility      *)
(* chaser), then the primal phase with the real costs.  Warm starts      *)
(* after a bound change keep the old basis dual feasible and run dual    *)
(* simplex; warm starts after an objective change keep it primal         *)
(* feasible and run primal simplex.                                      *)
(* ===================================================================== *)

exception Numerical_trouble of string

type counters = {
  pivots : int;
  warm_starts : int;
  cold_starts : int;
  fallbacks : int;
}

(* Sparse LU factors of a basis B, with the work vectors of the solves
   and the factorization's workspace.  Every m-sized array holds at
   least [cap] entries; the pools grow on demand and keep their size.

   Positions (the columns of B, i.e. the handle's basis rows) and
   constraint rows are two index spaces.  The factors read E B = U.  U
   is upper triangular once its positions are listed in pivot [order]
   and each position c is paired with its pivot row [urow.(c)]; it is
   stored by position, the diagonal in [udiag] and the off-diagonal
   entries as one segment [ustart, ustart + ulen) of the pool.  E is a
   file of etas: first L^-1, one column eta per pivot that eliminated
   entries below it (x_i -= l_i x_p), then one row eta per
   Forrest-Tomlin update (x_p -= sum_i mu_i x_i). *)
type lu = {
  cap : int;
  urow : int array;             (* position -> pivot row *)
  udiag : float array;          (* position -> diagonal of U *)
  ustart : int array;           (* position -> first pool entry *)
  ulen : int array;             (* position -> off-diagonal entries *)
  mutable uidx : int array;     (* pool: row of each entry *)
  mutable uval : float array;
  mutable uend : int;           (* pool entries in use *)
  order : int array;            (* pivot step -> position *)
  step : int array;             (* position -> pivot step *)
  epiv : int array;             (* eta -> its pivot or target row *)
  estart : int array;           (* eta -> first entry; [estart.(n_eta)] ends the file *)
  mutable eidx : int array;
  mutable evals : float array;
  mutable n_l : int;            (* etas [0, n_l) are L's, [n_l, n_eta) updates' *)
  mutable n_eta : int;
  mutable fresh : int;          (* entries of L and U after factorization *)
  mutable grown : int;          (* net entries the updates have added since *)
  mutable updates : int;
  spike : float array;          (* E a_j of the last column [ftran] saw *)
  mutable spike_of : int;       (* that column, or -1 *)
  work : float array;           (* scratch *)
  pos : float array;            (* by position; all zero between solves *)
  mu : float array;             (* by row; all zero between updates *)
  (* factorization workspace *)
  rstep : int array;            (* row -> pivot step, -1 while active *)
  rcount : int array;           (* active entries per row *)
  ccount : int array;           (* active entries per position *)
  rptr : int array;             (* m + 1: B's pattern by row ... *)
  mutable rpos : int array;     (* ... as positions *)
  stack : int array;            (* pending singletons *)
  loc : int array;              (* row -> nucleus index *)
  nrow : int array;             (* nucleus index -> row *)
  ncol : int array;             (* nucleus index -> position *)
  colmax : float array;         (* nucleus index -> max |entry| *)
  mutable dense : float array;  (* the nucleus, k x k row-major *)
  mutable lidx : int array;     (* 2 k x k: each nucleus line's nonzeros *)
  lcount : int array;           (* 2m: nucleus line -> nonzeros *)
  lnext : int array;            (* 2m: count buckets, doubly linked *)
  lprev : int array;
  lhead : int array;            (* 2m + 2: bucket -> first line *)
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
  mutable lu : lu;                 (* factors of the basis *)
  xb : float array;                (* m: values of basic variables *)
  d : float array;                 (* ncols: reduced costs *)
  alpha : float array;             (* scratch m: ftran of a column *)
  w : float array;                 (* scratch m *)
  yrow : float array;              (* scratch m *)
  tol : float;
  base : Lp.t;                     (* model as given to [create] *)
  mutable obj_sense : Lp.objective_sense;
  mutable obj_terms : Lp.term list;
  mutable has_basis : bool;
  mutable n_pivots : int;
  mutable n_warm : int;
  mutable n_cold : int;
  mutable n_fallbacks : int;
}

let feas_tol = 1e-7       (* primal feasibility *)
let dfeas_tol = 1e-7      (* dual feasibility *)
let degen_tol = 1e-10     (* step sizes below this count as degenerate *)
let piv_floor = 1e-11     (* hard floor on pivot magnitude *)
let markowitz_u = 0.1     (* threshold: |pivot| >= u * max |entry| of its column *)
let markowitz_lines = 4   (* lines a Markowitz search examines once it has a pivot *)
let max_updates = 100     (* Forrest-Tomlin updates between refactorizations *)
let update_check = 1e-9   (* relative stability check of an updated diagonal *)
let pivot_check = 1e-7    (* relative agreement of a pivot's row and column values *)

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
   [size] is the row count the storage is sized for. *)
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

let new_lu m =
  let ints () = Array.make m 0 and floats () = Array.make m 0.0 in
  let pool = 4 * (m + 1) in
  {
    cap = m;
    urow = ints ();
    udiag = floats ();
    ustart = ints ();
    ulen = ints ();
    uidx = Array.make pool 0;
    uval = Array.make pool 0.0;
    uend = 0;
    order = ints ();
    step = ints ();
    epiv = Array.make (m + max_updates) 0;
    estart = Array.make (m + max_updates + 1) 0;
    eidx = Array.make pool 0;
    evals = Array.make pool 0.0;
    n_l = 0;
    n_eta = 0;
    fresh = 0;
    grown = 0;
    updates = 0;
    spike = floats ();
    spike_of = -1;
    work = floats ();
    pos = floats ();
    mu = floats ();
    rstep = ints ();
    rcount = ints ();
    ccount = ints ();
    rptr = Array.make (m + 1) 0;
    rpos = Array.make pool 0;
    stack = ints ();
    loc = ints ();
    nrow = ints ();
    ncol = ints ();
    colmax = floats ();
    dense = [||];
    lidx = [||];
    lcount = Array.make (2 * m) 0;
    lnext = Array.make (2 * m) 0;
    lprev = Array.make (2 * m) 0;
    lhead = Array.make ((2 * m) + 2) 0;
  }

let lu_cap f = f.cap

(* Factor storage handed back by [release], reused by the next [create]
   on the domain.  Every entry in use is rewritten before it is read. *)
let spare_lu : lu option Atomic.t Domain.DLS.key = new_slot ()

(* What a released handle holds: storage for no rows at all. *)
let released_lu = new_lu 0

(* Nonzero terms of one row, per structural column. *)
let rec count_terms count = function
  | [] -> ()
  | (c, v) :: rest ->
      if c <> 0.0 then count.(v) <- count.(v) + 1;
      count_terms count rest

(* Place row [i]'s nonzero terms at the end of each column's unfilled
   part; [fill.(v)] is where column [v]'s unfilled part ends. *)
let rec place_terms fill col_rows col_coefs i = function
  | [] -> ()
  | (c, v) :: rest ->
      if c <> 0.0 then begin
        let k = fill.(v) - 1 in
        fill.(v) <- k;
        col_rows.(v).(k) <- i;
        col_coefs.(v).(k) <- c
      end;
      place_terms fill col_rows col_coefs i rest

let create ?(tol = 1e-9) model =
  let n = Lp.num_vars model in
  let m = Lp.num_constraints model in
  let ncols = n + m in
  (* The sparse columns in two passes over the rows, with no cell per
     entry: count each column's entries, then fill every column from
     its end while the rows come last first, so its rows ascend. *)
  let fill = Array.make n 0 in
  Lp.iter_rows_rev (fun _ terms _ _ -> count_terms fill terms) model;
  let col_rows =
    Array.init ncols (fun j ->
        if j < n then Array.make fill.(j) 0 else [| j - n |])
  in
  let col_coefs =
    Array.init ncols (fun j ->
        if j < n then Array.make fill.(j) 0.0 else [| 1.0 |])
  in
  let lo = Array.make ncols neg_infinity in
  let up = Array.make ncols infinity in
  Lp.iter_var_bounds
    (fun v l u ->
      lo.(v) <- (match l with None -> neg_infinity | Some x -> x);
      up.(v) <- (match u with None -> infinity | Some x -> x))
    model;
  let rhs = Array.make m 0.0 in
  Lp.iter_rows_rev
    (fun i terms rel b ->
      place_terms fill col_rows col_coefs i terms;
      rhs.(i) <- b;
      match rel with
      | Lp.Le -> lo.(n + i) <- 0.0
      | Lp.Ge -> up.(n + i) <- 0.0
      | Lp.Eq ->
          lo.(n + i) <- 0.0;
          up.(n + i) <- 0.0)
    model;
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
    lu = take_slot spare_lu ~size:lu_cap m new_lu;
    xb = Array.make m 0.0;
    d = Array.make ncols 0.0;
    alpha = Array.make m 0.0;
    w = Array.make m 0.0;
    yrow = Array.make m 0.0;
    tol;
    base = model;
    obj_sense;
    obj_terms;
    has_basis = false;
    n_pivots = 0;
    n_warm = 0;
    n_cold = 0;
    n_fallbacks = 0;
  }

(* ---- Solves through the factors. ---- *)

(* x <- E x, in place; x is indexed by row. *)
let apply_etas f x =
  let epiv = f.epiv and estart = f.estart in
  let eidx = f.eidx and evals = f.evals in
  for e = 0 to f.n_l - 1 do
    let xp = x.(epiv.(e)) in
    if xp <> 0.0 then
      for k = estart.(e) to estart.(e + 1) - 1 do
        let i = eidx.(k) in
        x.(i) <- x.(i) -. (evals.(k) *. xp)
      done
  done;
  for e = f.n_l to f.n_eta - 1 do
    let p = epiv.(e) in
    let acc = ref x.(p) in
    for k = estart.(e) to estart.(e + 1) - 1 do
      acc := !acc -. (evals.(k) *. x.(eidx.(k)))
    done;
    x.(p) <- !acc
  done

(* out <- U^-1 x: x by row, consumed; out by position. *)
let solve_u f m x out =
  let order = f.order and urow = f.urow and udiag = f.udiag in
  let ustart = f.ustart and ulen = f.ulen in
  let uidx = f.uidx and uval = f.uval in
  for k = m - 1 downto 0 do
    let c = order.(k) in
    let v = x.(urow.(c)) in
    if v = 0.0 then out.(c) <- 0.0
    else begin
      let v = v /. udiag.(c) in
      out.(c) <- v;
      let j0 = ustart.(c) in
      for j = j0 to j0 + ulen.(c) - 1 do
        let i = uidx.(j) in
        x.(i) <- x.(i) -. (uval.(j) *. v)
      done
    end
  done

(* y <- e B^-1 = (e U^-1) E: e by position, y by row.  The positions
   pivoted before step [from] must hold 0 in e; their rows of y are 0. *)
let btran f m ~from e y =
  let order = f.order and urow = f.urow and udiag = f.udiag in
  let ustart = f.ustart and ulen = f.ulen in
  let uidx = f.uidx and uval = f.uval in
  if from > 0 then Array.fill y 0 m 0.0;
  for k = from to m - 1 do
    let c = order.(k) in
    let acc = ref e.(c) in
    let j0 = ustart.(c) in
    for j = j0 to j0 + ulen.(c) - 1 do
      acc := !acc -. (uval.(j) *. y.(uidx.(j)))
    done;
    y.(urow.(c)) <- !acc /. udiag.(c)
  done;
  let epiv = f.epiv and estart = f.estart in
  let eidx = f.eidx and evals = f.evals in
  for e = f.n_eta - 1 downto f.n_l do
    let yp = y.(epiv.(e)) in
    if yp <> 0.0 then
      for k = estart.(e) to estart.(e + 1) - 1 do
        let i = eidx.(k) in
        y.(i) <- y.(i) -. (evals.(k) *. yp)
      done
  done;
  for e = f.n_l - 1 downto 0 do
    let p = epiv.(e) in
    let acc = ref y.(p) in
    for k = estart.(e) to estart.(e + 1) - 1 do
      acc := !acc -. (evals.(k) *. y.(eidx.(k)))
    done;
    y.(p) <- !acc
  done

(* [out] <- B^-1 (rhs - N x_N), from scratch. *)
let compute_xb_into h out =
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
  apply_etas h.lu t;
  solve_u h.lu h.m t out

let compute_xb h = compute_xb_into h h.xb

(* Reduced costs d = c - c_B B^-1 A, from scratch (exact recomputation
   after every pivot keeps warm-start dual-feasibility checks honest).
   y = c_B B^-1 is one BTRAN; with no basic row of nonzero cost y = 0
   and d = c (basic costs are then all zero). *)
let compute_d h =
  let f = h.lu in
  let cb = f.pos in
  let priced = ref false in
  for i = 0 to h.m - 1 do
    let c = h.cost.(h.basis.(i)) in
    if c <> 0.0 then begin
      priced := true;
      cb.(i) <- c
    end
  done;
  if not !priced then Array.blit h.cost 0 h.d 0 h.ncols
  else begin
    let y = h.yrow in
    btran f h.m ~from:0 cb y;
    Array.fill cb 0 h.m 0.0;
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
  end

(* alpha = B^-1 A_j.  The spike E A_j is kept for an update that brings
   column j into the basis. *)
let ftran h j =
  let f = h.lu in
  let x = f.spike in
  Array.fill x 0 h.m 0.0;
  let rows = h.col_rows.(j) and coefs = h.col_coefs.(j) in
  for k = 0 to Array.length rows - 1 do
    x.(rows.(k)) <- coefs.(k)
  done;
  apply_etas f x;
  f.spike_of <- j;
  Array.blit x 0 f.work 0 h.m;
  solve_u f h.m f.work h.alpha

(* Row r of B^-1 into [y]. *)
let btran_unit h r y =
  let f = h.lu in
  f.pos.(r) <- 1.0;
  btran f h.m ~from:f.step.(r) f.pos y;
  f.pos.(r) <- 0.0

(* Entry (r, j) of B^-1 A given row r of B^-1. *)
let row_dot_col h beta j =
  let rows = h.col_rows.(j) and coefs = h.col_coefs.(j) in
  let acc = ref 0.0 in
  for k = 0 to Array.length rows - 1 do
    acc := !acc +. (beta.(rows.(k)) *. coefs.(k))
  done;
  !acc

(* ---- Factorization. ---- *)

let singular () = raise (Numerical_trouble "singular basis in refactorization")

let grow_ints a need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_floats a need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0.0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Room for [extra] more entries in the U pool and in the eta file. *)
let reserve f extra =
  let need = f.uend + extra in
  f.uidx <- grow_ints f.uidx need;
  f.uval <- grow_floats f.uval need;
  let need = f.estart.(f.n_eta) + extra in
  f.eidx <- grow_ints f.eidx need;
  f.evals <- grow_floats f.evals need

let push_u f i v =
  f.uidx.(f.uend) <- i;
  f.uval.(f.uend) <- v;
  f.uend <- f.uend + 1

(* Entry k of the eta under construction (the file's last, open one). *)
let push_eta f i v =
  let k = f.estart.(f.n_eta + 1) in
  f.eidx.(k) <- i;
  f.evals.(k) <- v;
  f.estart.(f.n_eta + 1) <- k + 1

let open_eta f p =
  f.epiv.(f.n_eta) <- p;
  f.estart.(f.n_eta + 1) <- f.estart.(f.n_eta)

(* Keep the open eta if it has entries. *)
let close_eta f =
  if f.estart.(f.n_eta + 1) > f.estart.(f.n_eta) then f.n_eta <- f.n_eta + 1

let pivot_on f ~row ~pos ~value k =
  f.rstep.(row) <- k;
  f.step.(pos) <- k;
  f.order.(k) <- pos;
  f.urow.(pos) <- row;
  f.udiag.(pos) <- value

(* The slack basis: B = I, no etas, and U = I with position i on row i. *)
let identity_factors h =
  let f = h.lu in
  for i = 0 to h.m - 1 do
    pivot_on f ~row:i ~pos:i ~value:1.0 i;
    f.ustart.(i) <- 0;
    f.ulen.(i) <- 0
  done;
  f.uend <- 0;
  f.n_l <- 0;
  f.n_eta <- 0;
  f.estart.(0) <- 0;
  f.fresh <- 0;
  f.grown <- 0;
  f.updates <- 0;
  f.spike_of <- -1

(* Markowitz LU of B = [A_basis.(0) .. A_basis.(m-1)].  Column
   singletons are pivoted first and row singletons next (a row
   singleton only if it passes the threshold test); neither changes a
   value of the active submatrix, so what is left, the nucleus, is B
   restricted to its active rows and positions.  It is eliminated
   densely, each step taking the entry of least Markowitz count
   (r - 1) (c - 1) that passes the threshold test, the larger magnitude
   on ties, in a search limited as Zlatev's.  Raises [Numerical_trouble]
   on a structurally or numerically singular basis. *)
let factorize h =
  let f = h.lu and m = h.m in
  let basis = h.basis and col_rows = h.col_rows and col_coefs = h.col_coefs in
  let rstep = f.rstep and step = f.step in
  let rcount = f.rcount and ccount = f.ccount in
  let rptr = f.rptr and loc = f.loc and stack = f.stack in
  Array.fill rcount 0 m 0;
  Array.fill rstep 0 m (-1);
  Array.fill step 0 m (-1);
  let nnz = ref 0 in
  for c = 0 to m - 1 do
    let rows = col_rows.(basis.(c)) in
    let len = Array.length rows in
    ccount.(c) <- len;
    nnz := !nnz + len;
    for k = 0 to len - 1 do
      let i = rows.(k) in
      rcount.(i) <- rcount.(i) + 1
    done
  done;
  (* B's pattern by row, filled through [loc] as a cursor. *)
  f.rpos <- grow_ints f.rpos !nnz;
  let rpos = f.rpos in
  rptr.(0) <- 0;
  for i = 0 to m - 1 do
    rptr.(i + 1) <- rptr.(i) + rcount.(i);
    loc.(i) <- rptr.(i)
  done;
  for c = 0 to m - 1 do
    let rows = col_rows.(basis.(c)) in
    for k = 0 to Array.length rows - 1 do
      let i = rows.(k) in
      rpos.(loc.(i)) <- c;
      loc.(i) <- loc.(i) + 1
    done
  done;
  f.uend <- 0;
  f.n_l <- 0;
  f.n_eta <- 0;
  f.estart.(0) <- 0;
  f.spike_of <- -1;
  reserve f !nnz;
  let k = ref 0 in
  let top = ref 0 in
  (* Column singletons: the position's one active row leaves, and the
     other positions on that row lose an entry. *)
  for c = 0 to m - 1 do
    if ccount.(c) = 1 then begin
      stack.(!top) <- c;
      incr top
    end
  done;
  while !top > 0 do
    decr top;
    let c = stack.(!top) in
    if step.(c) < 0 then begin
      if ccount.(c) <> 1 then singular ();
      let rows = col_rows.(basis.(c)) and coefs = col_coefs.(basis.(c)) in
      let p = ref (-1) and v = ref 0.0 in
      for s = 0 to Array.length rows - 1 do
        if rstep.(rows.(s)) < 0 then begin
          p := rows.(s);
          v := coefs.(s)
        end
      done;
      let p = !p in
      if Float.abs !v < piv_floor then singular ();
      pivot_on f ~row:p ~pos:c ~value:!v !k;
      incr k;
      for s = rptr.(p) to rptr.(p + 1) - 1 do
        let c' = rpos.(s) in
        if step.(c') < 0 then begin
          let n = ccount.(c') - 1 in
          ccount.(c') <- n;
          if n = 0 then singular ();
          if n = 1 then begin
            stack.(!top) <- c';
            incr top
          end
        end
      done
    end
  done;
  (* Row singletons: the position's other active entries become an L
     eta, and their rows lose an entry. *)
  for i = 0 to m - 1 do
    if rstep.(i) < 0 && rcount.(i) = 1 then begin
      stack.(!top) <- i;
      incr top
    end
  done;
  while !top > 0 do
    decr top;
    let p = stack.(!top) in
    if rstep.(p) < 0 then begin
      let c = ref (-1) in
      for s = rptr.(p) to rptr.(p + 1) - 1 do
        if step.(rpos.(s)) < 0 then c := rpos.(s)
      done;
      let c = !c in
      let rows = col_rows.(basis.(c)) and coefs = col_coefs.(basis.(c)) in
      let v = ref 0.0 and cmax = ref 0.0 in
      for s = 0 to Array.length rows - 1 do
        let i = rows.(s) in
        if rstep.(i) < 0 then begin
          let a = Float.abs coefs.(s) in
          if a > !cmax then cmax := a;
          if i = p then v := coefs.(s)
        end
      done;
      let v = !v in
      if Float.abs v >= piv_floor && Float.abs v >= markowitz_u *. !cmax then begin
        pivot_on f ~row:p ~pos:c ~value:v !k;
        incr k;
        open_eta f p;
        for s = 0 to Array.length rows - 1 do
          let i = rows.(s) in
          if rstep.(i) < 0 then begin
            push_eta f i (coefs.(s) /. v);
            let n = rcount.(i) - 1 in
            rcount.(i) <- n;
            if n = 0 then singular ();
            if n = 1 then begin
              stack.(!top) <- i;
              incr top
            end
          end
        done;
        close_eta f;
        f.n_l <- f.n_eta
      end
    end
  done;
  (* The nucleus: kn rows and positions still active, indexed locally
     ([nrow], [ncol]) and held densely in [dense] (kn x kn, row-major).
     Its lines are numbered: row li is line li, position lc is line
     kn + lc.  Line l lists the local indices of its nonzeros in
     [lidx] from l * kn, [lcount.(l)] of them, and an active line is
     chained ([lnext], [lprev]) in the bucket of its count, rows' from
     [lhead.(count)] and positions' from [lhead.(kn + 1 + count)], so
     a search starts at the shortest lines without scanning.  A
     position's bound in [colmax] goes stale (negative) when an
     elimination step changes it. *)
  let singles = !k in
  let kn = m - singles in
  let nrow = f.nrow and ncol = f.ncol and colmax = f.colmax in
  let lcount = f.lcount and lnext = f.lnext and lprev = f.lprev in
  let lhead = f.lhead in
  let nr = ref 0 and nc = ref 0 in
  for i = 0 to m - 1 do
    if rstep.(i) < 0 then begin
      nrow.(!nr) <- i;
      incr nr
    end;
    if step.(i) < 0 then begin
      ncol.(!nc) <- i;
      incr nc
    end
  done;
  if !nr <> kn || !nc <> kn then singular ();
  f.dense <- grow_floats f.dense (kn * kn);
  f.lidx <- grow_ints f.lidx (2 * kn * kn);
  reserve f (kn * kn);
  let a = f.dense and lidx = f.lidx in
  Array.fill a 0 (kn * kn) 0.0;
  Array.fill lcount 0 (2 * kn) 0;
  Array.fill lhead 0 ((2 * kn) + 2) (-1);
  let bucket l = if l < kn then lcount.(l) else kn + 1 + lcount.(l) in
  let link l =
    if lcount.(l) = 0 then singular ();
    let b = bucket l in
    let first = lhead.(b) in
    lnext.(l) <- first;
    lprev.(l) <- -1;
    if first >= 0 then lprev.(first) <- l;
    lhead.(b) <- l
  in
  let unlink l =
    let p = lprev.(l) and n = lnext.(l) in
    if p >= 0 then lnext.(p) <- n else lhead.(bucket l) <- n;
    if n >= 0 then lprev.(n) <- p
  in
  let add l x =
    lidx.((l * kn) + lcount.(l)) <- x;
    lcount.(l) <- lcount.(l) + 1
  in
  let remove l x =
    let s = ref (l * kn) in
    while lidx.(!s) <> x do
      incr s
    done;
    let last = (l * kn) + lcount.(l) - 1 in
    lidx.(!s) <- lidx.(last);
    lcount.(l) <- lcount.(l) - 1
  in
  for li = 0 to kn - 1 do
    loc.(nrow.(li)) <- li
  done;
  for lc = 0 to kn - 1 do
    let rows = col_rows.(basis.(ncol.(lc)))
    and coefs = col_coefs.(basis.(ncol.(lc))) in
    let cmax = ref 0.0 in
    for s = 0 to Array.length rows - 1 do
      let i = rows.(s) in
      if rstep.(i) < 0 then begin
        let li = loc.(i) in
        let x = coefs.(s) in
        a.((li * kn) + lc) <- x;
        add li lc;
        add (kn + lc) li;
        if Float.abs x > !cmax then cmax := Float.abs x
      end
    done;
    if !cmax < piv_floor then singular ();
    colmax.(lc) <- !cmax
  done;
  for l = 0 to (2 * kn) - 1 do
    link l
  done;
  let col_bound lc =
    let b = colmax.(lc) in
    if b >= 0.0 then b
    else begin
      let l = kn + lc in
      let cmax = ref 0.0 in
      for s = l * kn to (l * kn) + lcount.(l) - 1 do
        let x = Float.abs a.((lidx.(s) * kn) + lc) in
        if x > !cmax then cmax := x
      done;
      if !cmax < piv_floor then singular ();
      colmax.(lc) <- !cmax;
      !cmax
    end
  in
  for _ = 0 to kn - 1 do
    (* Markowitz search: the positions, then the rows, of c = 1, 2, ...
       entries, until [markowitz_lines] lines have been searched with a
       pivot found, or no entry left unsearched can cost less than the
       best (past every line of at most c entries, at least c * c). *)
    let best_li = ref (-1) and best_lc = ref (-1) in
    let best_cost = ref max_int and best_abs = ref 0.0 in
    let lines = ref 0 in
    let cnt = ref 1 in
    while
      !cnt <= kn
      && not (!best_li >= 0
              && (!lines >= markowitz_lines
                 || !best_cost <= (!cnt - 1) * (!cnt - 1)))
    do
      let c = !cnt in
      let l = ref lhead.(kn + 1 + c) in
      while !l >= 0 && (!best_li < 0 || !lines < markowitz_lines) do
        incr lines;
        let lc = !l - kn in
        let floor = Float.max piv_floor (markowitz_u *. col_bound lc) in
        for s = !l * kn to (!l * kn) + c - 1 do
          let li = lidx.(s) in
          let x = Float.abs a.((li * kn) + lc) in
          if x >= floor then begin
            let cost = (lcount.(li) - 1) * (c - 1) in
            if cost < !best_cost || (cost = !best_cost && x > !best_abs)
            then begin
              best_cost := cost;
              best_abs := x;
              best_li := li;
              best_lc := lc
            end
          end
        done;
        l := lnext.(!l)
      done;
      if !best_li < 0 || (!lines < markowitz_lines && !best_cost > c * (c - 1))
      then begin
        let l = ref lhead.(c) in
        while !l >= 0 && (!best_li < 0 || !lines < markowitz_lines) do
          incr lines;
          let li = !l in
          for s = li * kn to (li * kn) + c - 1 do
            let lc = lidx.(s) in
            let x = Float.abs a.((li * kn) + lc) in
            if x >= piv_floor && x >= markowitz_u *. col_bound lc then begin
              let cost = (c - 1) * (lcount.(kn + lc) - 1) in
              if cost < !best_cost || (cost = !best_cost && x > !best_abs)
              then begin
                best_cost := cost;
                best_abs := x;
                best_li := li;
                best_lc := lc
              end
            end
          done;
          l := lnext.(!l)
        done
      end;
      incr cnt
    done;
    if !best_li < 0 then singular ();
    let li = !best_li and lc = !best_lc in
    let prow = li * kn in
    let v = a.(prow + lc) in
    pivot_on f ~row:nrow.(li) ~pos:ncol.(lc) ~value:v !k;
    incr k;
    unlink li;
    unlink (kn + lc);
    (* The pivot row's other positions lose its entry and may change;
       they are relinked once the step is done.  Its list is not
       touched again: it becomes the row's U entries. *)
    let r0 = li * kn and r1 = (li * kn) + lcount.(li) - 1 in
    for s = r0 to r1 do
      let lc' = lidx.(s) in
      if lc' <> lc then begin
        unlink (kn + lc');
        remove (kn + lc') li;
        colmax.(lc') <- -1.0
      end
    done;
    open_eta f nrow.(li);
    let l = kn + lc in
    for s = l * kn to (l * kn) + lcount.(l) - 1 do
      let li' = lidx.(s) in
      if li' <> li then begin
        let row = li' * kn in
        let x = a.(row + lc) /. v in
        push_eta f nrow.(li') x;
        unlink li';
        remove li' lc;
        for s' = r0 to r1 do
          let lc' = lidx.(s') in
          if lc' <> lc then begin
            let old = a.(row + lc') in
            let nw = old -. (x *. a.(prow + lc')) in
            a.(row + lc') <- nw;
            if old = 0.0 then begin
              if nw <> 0.0 then begin
                add li' lc';
                add (kn + lc') li'
              end
            end
            else if nw = 0.0 then begin
              remove li' lc';
              remove (kn + lc') li'
            end
          end
        done;
        link li'
      end
    done;
    close_eta f;
    f.n_l <- f.n_eta;
    for s = r0 to r1 do
      let lc' = lidx.(s) in
      if lc' <> lc then link (kn + lc')
    done
  done;
  (* U by position, counted, then laid out: B's entries on rows pivoted
     earlier, except a nucleus row's on a nucleus position, which come
     from the eliminated nucleus. *)
  let ustart = f.ustart and ulen = f.ulen in
  for c = 0 to m - 1 do
    let rows = col_rows.(basis.(c)) in
    let kc = step.(c) in
    let lim = if kc >= singles then singles else kc in
    let cnt = ref 0 in
    for s = 0 to Array.length rows - 1 do
      if rstep.(rows.(s)) < lim then incr cnt
    done;
    ulen.(c) <- !cnt
  done;
  for li = 0 to kn - 1 do
    for s = li * kn to (li * kn) + lcount.(li) - 1 do
      let c = ncol.(lidx.(s)) in
      if step.(c) > rstep.(nrow.(li)) then ulen.(c) <- ulen.(c) + 1
    done
  done;
  let total = ref 0 in
  for c = 0 to m - 1 do
    ustart.(c) <- !total;
    total := !total + ulen.(c);
    ulen.(c) <- 0
  done;
  f.uend <- !total;
  reserve f 0;
  let uidx = f.uidx and uval = f.uval in
  for c = 0 to m - 1 do
    let rows = col_rows.(basis.(c)) and coefs = col_coefs.(basis.(c)) in
    let kc = step.(c) in
    let lim = if kc >= singles then singles else kc in
    for s = 0 to Array.length rows - 1 do
      let i = rows.(s) in
      if rstep.(i) < lim then begin
        let j = ustart.(c) + ulen.(c) in
        uidx.(j) <- i;
        uval.(j) <- coefs.(s);
        ulen.(c) <- ulen.(c) + 1
      end
    done
  done;
  for li = 0 to kn - 1 do
    let i = nrow.(li) in
    for s = li * kn to (li * kn) + lcount.(li) - 1 do
      let lc = lidx.(s) in
      let c = ncol.(lc) in
      if step.(c) > rstep.(i) then begin
        let j = ustart.(c) + ulen.(c) in
        uidx.(j) <- i;
        uval.(j) <- a.((li * kn) + lc);
        ulen.(c) <- ulen.(c) + 1
      end
    done
  done;
  f.fresh <- f.uend + f.estart.(f.n_eta);
  f.grown <- 0;
  f.updates <- 0

(* Refactorize the basis, then recompute xb exactly.  The updated basic
   values must agree with the recomputed ones to 1e-6 of the largest,
   the residual check's relative tolerance: a wider gap means the
   factors or xb were corrupted since the last factorization, which a
   silent refresh would hide. *)
let refactorize h =
  if Faults.fire Faults.Refactor_singular then
    raise (Numerical_trouble "injected singular refactorization");
  let trace_t0 = Dpv_obs.Trace.begin_ns () in
  factorize h;
  let fresh = h.lu.work in
  compute_xb_into h fresh;
  let scale = ref 1.0 in
  for i = 0 to h.m - 1 do
    scale := Float.max !scale (Float.abs fresh.(i))
  done;
  for i = 0 to h.m - 1 do
    if Float.abs (fresh.(i) -. h.xb.(i)) > 1e-6 *. !scale then
      raise (Numerical_trouble "basic values drifted from the basis")
  done;
  Array.blit fresh 0 h.xb 0 h.m;
  Dpv_obs.Trace.complete ~name:"simplex.refactorize" trace_t0

(* Forrest-Tomlin update: the column whose spike [ftran] saved enters at
   position r, with pivot element [alpha_r] = (B^-1 a_q)_r.  Position r
   moves to the end of the pivot order with its spike as its U column;
   its pivot row p keeps only the diagonal, its entries to the right
   eliminated by the rows pivoted after it, recorded as the row eta
   x_p -= sum mu_i x_i.  Returns false when the caller must refactorize
   instead: after [max_updates] updates, once the updates have added
   more than twice the fresh factors' entries plus 2m, or when the new
   diagonal fails its check against alpha_r times the old one (exact in
   exact arithmetic: det B changes by alpha_r).  The file never
   overflows: it holds at most m L etas and [max_updates] row etas. *)
let ft_update f m ~r ~alpha_r =
  reserve f (2 * m);
  let order = f.order and step = f.step in
  let urow = f.urow and udiag = f.udiag in
  let ustart = f.ustart and ulen = f.ulen in
  let uidx = f.uidx and uval = f.uval in
  let eidx = f.eidx and evals = f.evals in
  let mu = f.mu and spike = f.spike in
  let t = step.(r) and p = urow.(r) in
  let old_len = ulen.(r) and removed = ref 0 in
  let old_diag = udiag.(r) in
  let start = f.estart.(f.n_eta) in
  open_eta f p;
  for k = t + 1 to m - 1 do
    let c = order.(k) in
    let w = ref 0.0 and acc = ref 0.0 in
    let j = ref ustart.(c) and stop = ref (ustart.(c) + ulen.(c)) in
    while !j < !stop do
      let i = uidx.(!j) in
      if i = p then begin
        w := uval.(!j);
        incr removed;
        decr stop;
        uidx.(!j) <- uidx.(!stop);
        uval.(!j) <- uval.(!stop);
        ulen.(c) <- ulen.(c) - 1
      end
      else begin
        acc := !acc +. (uval.(!j) *. mu.(i));
        incr j
      end
    done;
    let v = !w -. !acc in
    if v <> 0.0 then begin
      let q = urow.(c) in
      let x = v /. udiag.(c) in
      mu.(q) <- x;
      push_eta f q x
    end
  done;
  let diag = ref spike.(p) in
  for k = start to f.estart.(f.n_eta + 1) - 1 do
    let i = eidx.(k) in
    diag := !diag -. (evals.(k) *. spike.(i));
    mu.(i) <- 0.0
  done;
  close_eta f;
  let diag = !diag in
  let s = f.uend in
  for i = 0 to m - 1 do
    if i <> p && spike.(i) <> 0.0 then push_u f i spike.(i)
  done;
  ustart.(r) <- s;
  ulen.(r) <- f.uend - s;
  udiag.(r) <- diag;
  for k = t to m - 2 do
    let c = order.(k + 1) in
    order.(k) <- c;
    step.(c) <- k
  done;
  order.(m - 1) <- r;
  step.(r) <- m - 1;
  f.spike_of <- -1;
  f.updates <- f.updates + 1;
  f.grown <-
    f.grown + (f.uend - s) - old_len - !removed
    + (f.estart.(f.n_eta) - start);
  let expect = alpha_r *. old_diag in
  Float.abs diag >= piv_floor
  && Float.abs (diag -. expect) <= update_check *. Float.abs expect
  && f.updates < max_updates
  && f.grown <= 2 * (f.fresh + m)

(* Column q enters the basis in row r: update the factors, or
   refactorize when the update asks for it. *)
let apply_pivot h ~r ~q ~newval =
  let piv = h.alpha.(r) in
  if Float.abs piv < piv_floor then
    raise (Numerical_trouble "pivot element below floor");
  let f = h.lu in
  if f.spike_of <> q then ftran h q;
  h.in_row.(h.basis.(r)) <- -1;
  h.basis.(r) <- q;
  h.in_row.(q) <- r;
  h.n_pivots <- h.n_pivots + 1;
  let updated = ft_update f h.m ~r ~alpha_r:piv in
  h.xb.(r) <- newval;
  (* Injected silent corruption: scribble on one diagonal entry of U
     (and the matching basic value) without raising.  Only the checks
     that compare against the constraint columns can catch this — the
     next refactorization's basic-value check or the post-solve
     residual check — which is the point. *)
  if Faults.fire Faults.Pivot_corrupt then begin
    let s = abs (Faults.seed ()) in
    let c = ((s * 31) + 17) mod h.m in
    let magnitude = 2.0 +. float_of_int (s mod 7) in
    f.udiag.(c) <- f.udiag.(c) *. (1.0 +. magnitude);
    h.xb.(c) <- h.xb.(c) +. magnitude
  end;
  if not updated then refactorize h

(* A pivot element computed down its column by FTRAN and along its row
   by BTRAN agrees in exact arithmetic; on updated factors a
   disagreement means they have drifted from the basis, and the
   iteration is redone on fresh ones. *)
let drifted h ~col ~row =
  h.lu.updates > 0
  && Float.abs (col -. row)
     > pivot_check *. Float.min (Float.abs col) (Float.abs row)

let max_iters h = 200 * (h.m + h.ncols + 100)
let bland_threshold h = h.m + h.ncols + 20

(* Stall detection of the dual simplex.  Its total bound violation is
   not monotone, so progress is a new minimum of that total, not a drop
   below the previous iteration's: a cycle whose violation dips once
   per lap (3, 2, 3, 2, ...) reaches no new minimum after its first
   lap, so its streak runs on into Bland's rule. *)
module Stall = struct
  type t = { mutable best : float; mutable streak : int }

  let create () = { best = infinity; streak = 0 }

  let step s ~threshold total =
    if total < s.best -. 1e-12 then begin
      s.best <- total;
      s.streak <- 0
    end
    else s.streak <- s.streak + 1;
    s.streak > threshold
end

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
          let row () =
            btran_unit h r h.yrow;
            row_dot_col h h.yrow q
          in
          if h.lu.updates > 0 && drifted h ~col:h.alpha.(r) ~row:(row ())
          then begin
            refactorize h;
            compute_d h;
            loop (iter + 1)
          end
          else begin
            let newval = nb_value h q +. (dir *. t) in
            for i = 0 to h.m - 1 do
              if i <> r then h.xb.(i) <- h.xb.(i) -. (dir *. t *. h.alpha.(i))
            done;
            h.at_upper.(h.basis.(r)) <- !leave_up;
            apply_pivot h ~r ~q ~newval;
            compute_d h;
            loop (iter + 1)
          end
        end
      end
    end
  in
  loop 0

(* ---- Dual simplex.  Requires a dual-feasible basis ([~zero:true]
   pins the costs at 0, for which every basis is dual feasible — that is
   the cold-start feasibility phase, and every warm resolve of an LP
   without costs).  Chases primal bound violations; returns [`Feasible]
   or [`Infeasible]. ---- *)
let dual_simplex ~zero h =
  let tol = h.tol in
  let basis = h.basis and lo = h.lo and up = h.up and xb = h.xb in
  let bland = ref false in
  let stall = Stall.create () in
  let rec loop iter =
    if iter > max_iters h then
      raise (Numerical_trouble "dual iteration limit");
    (* Leaving row: largest bound violation (min basic index in Bland
       mode).  Also track the total violation to detect stalling. *)
    let bl = !bland in
    let r = ref (-1) in
    let below = ref false in
    let best_v = ref feas_tol in
    let total_v = ref 0.0 in
    for i = 0 to h.m - 1 do
      let k = basis.(i) in
      let x = xb.(i) in
      let v_below = lo.(k) -. x in
      let v_above = x -. up.(k) in
      if v_below > feas_tol then begin
        total_v := !total_v +. v_below;
        let take =
          if bl then !r < 0 || k < basis.(!r) else v_below > !best_v
        in
        if take then begin
          r := i;
          below := true;
          if not bl then best_v := v_below
        end
      end
      else if v_above > feas_tol then begin
        total_v := !total_v +. v_above;
        let take =
          if bl then !r < 0 || k < basis.(!r) else v_above > !best_v
        in
        if take then begin
          r := i;
          below := false;
          if not bl then best_v := v_above
        end
      end
    done;
    if !r < 0 then `Feasible
    else begin
      if Stall.step stall ~threshold:(bland_threshold h) !total_v then
        bland := true;
      let r = !r in
      let below = !below in
      let k = h.basis.(r) in
      let target = if below then h.lo.(k) else h.up.(k) in
      let beta = h.yrow in
      btran_unit h r beta;
      (* Entering variable: dual ratio test.  A nonbasic j moving by
         t >= 0 in its admissible direction dir changes xb_r by
         -dir*t*a_rj; we need xb_r to move toward [target]. *)
      let q = ref (-1) in
      let q_dir = ref 1.0 in
      let q_row = ref 0.0 in
      let best_ratio = ref infinity in
      let best_abs = ref 0.0 in
      let in_row = h.in_row in
      let col_rows = h.col_rows and col_coefs = h.col_coefs in
      for j = 0 to h.ncols - 1 do
        if in_row.(j) < 0 && lo.(j) <> up.(j) then begin
          let rows = col_rows.(j) and coefs = col_coefs.(j) in
          let acc = ref 0.0 in
          for k = 0 to Array.length rows - 1 do
            acc := !acc +. (beta.(rows.(k)) *. coefs.(k))
          done;
          let a = !acc in
          if Float.abs a > tol then begin
            let eligible, dir =
              if is_free h j then
                let s = Float.of_int (compare a 0.0) in
                (true, if below then -.s else s)
              else if h.at_upper.(j) then
                if below then (a > tol, -1.0) else (a < -.tol, -1.0)
              else if below then (a < -.tol, 1.0)
              else (a > tol, 1.0)
            in
            if eligible then begin
              let ratio =
                if zero then 0.0 else Float.abs h.d.(j) /. Float.abs a
              in
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
                q_row := a;
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
        if drifted h ~col:h.alpha.(r) ~row:!q_row then begin
          refactorize h;
          if not zero then compute_d h;
          loop (iter + 1)
        end
        else begin
          let denom = dir *. h.alpha.(r) in
          if Float.abs denom < piv_floor then
            raise (Numerical_trouble "dual pivot element below floor");
          let t = Float.max 0.0 ((xb.(r) -. target) /. denom) in
          let newval = nb_value h q +. (dir *. t) in
          let alpha = h.alpha in
          for i = 0 to h.m - 1 do
            if i <> r then xb.(i) <- xb.(i) -. (dir *. t *. alpha.(i))
          done;
          h.at_upper.(k) <- not below;
          apply_pivot h ~r ~q ~newval;
          if not zero then compute_d h;
          loop (iter + 1)
        end
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
  identity_factors h;
  compute_xb h

(* Concrete row residual of the candidate basic solution over ALL
   columns (structural + slacks), computed straight from the constraint
   columns — deliberately not through the factors, because corrupted
   factors cannot vouch for themselves.  In the bounded-slack
   formulation [Ax = rhs] holds exactly at any consistent basic point,
   and every basic value lies within its bounds, so a large residual or
   a bound violation means the revised state is lying and the resolve
   must fall back instead of reporting a fabricated optimum.  (A
   refactorization makes corrupted values consistent again, but the
   basis they led to may no longer be feasible.) *)
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
  done;
  for i = 0 to h.m - 1 do
    let k = h.basis.(i) and x = h.xb.(i) in
    if
      x < h.lo.(k) -. (1e-6 *. (1.0 +. Float.abs h.lo.(k)))
      || x > h.up.(k) +. (1e-6 *. (1.0 +. Float.abs h.up.(k)))
    then raise (Numerical_trouble "solution bound check failed")
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

(* No cost at all: then d = 0 in every basis. *)
let costless h =
  let rec from j = j >= h.ncols || (h.cost.(j) = 0.0 && from (j + 1)) in
  from 0

let bounds_conflict h =
  let conflict = ref false in
  for j = 0 to h.ncols - 1 do
    if h.lo.(j) > h.up.(j) +. h.tol then conflict := true
  done;
  !conflict

let resolve ?(bound_changes = []) h =
  if h.lu == released_lu then invalid_arg "Simplex.resolve: released handle";
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
          match dual_simplex ~zero:(costless h) h with
          | `Infeasible -> Infeasible
          | `Feasible -> finish_primal h
        else if primal_feasible h then finish_primal h
        else feasibility_then_primal h
      with Numerical_trouble _ ->
        (* The revised state may be arbitrarily corrupted at this point
           (mid-pivot rest statuses, singular or scribbled factors).  Drop
           the basis entirely: with [has_basis] cleared the next resolve
           rebuilds from the all-slack basis via [reset_basis] — fresh
           factors from scratch — and [set_var_bounds] stops routing
           incremental updates through the dead factors, so a corrupted
           basis is never reused. *)
        h.n_fallbacks <- h.n_fallbacks + 1;
        h.has_basis <- false;
        solve_dense ~tol:h.tol (current_model h)
  in
  if trace_t0 <> 0 then
    Dpv_obs.Trace.complete
      ~args:[ ("start", if warm then "warm" else "cold") ]
      ~name:"simplex.resolve" trace_t0;
  result

let release h =
  let f = h.lu in
  if f != released_lu then begin
    h.lu <- released_lu;
    put_slot spare_lu ~size:lu_cap f
  end

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
