type var = int
type kind = Continuous | Integer | Binary
type relation = Le | Ge | Eq
type term = float * var
type objective_sense = Minimize | Maximize

type var_info = {
  name : string;
  lo : float option;
  up : float option;
  kind : kind;
}

type constr = { cname : string; terms : term list; rel : relation; rhs : float }

type definition =
  | Affine of term list * float
  | Relu of { pre : var; phase : var }

(* A definition as [complete] evaluates it.  An affine one keeps its
   terms as two arrays, built once when it is recorded, so its dot
   product runs in a loop with an unboxed accumulator. *)
type step =
  | Dot of {
      target : var;
      coefs : float array;
      vars : var array;
      const : float;
    }
  | Max0 of { target : var; pre : var; phase : var }

module Imap = Map.Make (Int)

type t = {
  nvars : int;
  vars : var_info Imap.t;
  (* Constraints kept in reverse insertion order. *)
  constrs : constr list;
  nconstrs : int;
  sense : objective_sense;
  obj : term list;
  (* Bound-change history, most recent first: one entry per
     [set_var_bounds] call since [create].  A child model built from a
     parent shares the parent's tail physically, so two models derived
     from a common ancestor can be diffed in time proportional to their
     distance in the derivation tree — see [bounds_delta]. *)
  trail : var list;
  trail_len : int;
  (* Definitions, the last recorded first. *)
  defs : step list;
  ndefs : int;
}

let create () =
  {
    nvars = 0;
    vars = Imap.empty;
    constrs = [];
    nconstrs = 0;
    sense = Minimize;
    obj = [];
    trail = [];
    trail_len = 0;
    defs = [];
    ndefs = 0;
  }

let add_var ?name ?lo ?up ?(kind = Continuous) m =
  let v = m.nvars in
  let name = match name with Some n -> n | None -> Printf.sprintf "x%d" v in
  let lo, up =
    match kind with
    | Binary ->
        let lo' = match lo with Some l -> Float.max l 0.0 | None -> 0.0 in
        let up' = match up with Some u -> Float.min u 1.0 | None -> 1.0 in
        (Some lo', Some up')
    | Continuous | Integer -> (lo, up)
  in
  let info = { name; lo; up; kind } in
  ({ m with nvars = v + 1; vars = Imap.add v info m.vars }, v)

(* Merge duplicate variables inside a term list. *)
let normalize_terms terms =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (c, v) ->
      let cur = try Hashtbl.find tbl v with Not_found -> 0.0 in
      Hashtbl.replace tbl v (cur +. c))
    terms;
  Hashtbl.fold (fun v c acc -> (c, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let add_constraint ?name m terms rel rhs =
  let cname =
    match name with Some n -> n | None -> Printf.sprintf "c%d" m.nconstrs
  in
  List.iter
    (fun (_, v) ->
      if v < 0 || v >= m.nvars then invalid_arg "Lp.add_constraint: bad var")
    terms;
  let c = { cname; terms = normalize_terms terms; rel; rhs } in
  { m with constrs = c :: m.constrs; nconstrs = m.nconstrs + 1 }

let set_objective m sense obj =
  List.iter
    (fun (_, v) ->
      if v < 0 || v >= m.nvars then invalid_arg "Lp.set_objective: bad var")
    obj;
  { m with sense; obj = normalize_terms obj }

let define m v d =
  let check v =
    if v < 0 || v >= m.nvars then invalid_arg "Lp.define: bad var"
  in
  check v;
  let step =
    match d with
    | Affine (terms, const) ->
        List.iter (fun (_, u) -> check u) terms;
        Dot
          {
            target = v;
            coefs = Array.of_list (List.map fst terms);
            vars = Array.of_list (List.map snd terms);
            const;
          }
    | Relu { pre; phase } ->
        check pre;
        check phase;
        Max0 { target = v; pre; phase }
  in
  { m with defs = step :: m.defs; ndefs = m.ndefs + 1 }

let definitions m =
  List.rev_map
    (function
      | Dot { target; coefs; vars; const } ->
          (target, Affine (Array.to_list (Array.combine coefs vars), const))
      | Max0 { target; pre; phase } -> (target, Relu { pre; phase }))
    m.defs

let num_vars m = m.nvars
let num_constraints m = m.nconstrs
let num_definitions m = m.ndefs

let find_var m v =
  match Imap.find_opt v m.vars with
  | Some info -> info
  | None -> invalid_arg "Lp: unknown variable"

let var_bounds m v =
  let i = find_var m v in
  (i.lo, i.up)

let integer_vars m =
  Imap.fold
    (fun v info acc ->
      match info.kind with
      | Integer | Binary -> v :: acc
      | Continuous -> acc)
    m.vars []
  |> List.rev

let set_var_bounds m v ~lo ~up =
  let info = find_var m v in
  {
    m with
    vars = Imap.add v { info with lo; up } m.vars;
    trail = v :: m.trail;
    trail_len = m.trail_len + 1;
  }

let bounds_delta ?cap a b =
  let cap = match cap with Some c -> c | None -> max_int in
  (* Walk both trails back to their longest physically-shared suffix:
     every entry dropped on either side names a variable whose bounds
     may differ between [a] and [b]; all other variables provably have
     identical bounds (their infos were inherited untouched from the
     common ancestor).  [None] when the models share no recent history
     within [cap] steps — the caller should fall back to a full scan. *)
  let rec strip n t count acc =
    if count > cap then None
    else if n = 0 then Some (t, count, acc)
    else
      match t with
      | [] -> Some ([], count, acc)
      | v :: rest -> strip (n - 1) rest (count + 1) (v :: acc)
  in
  let rec walk ta tb count acc =
    if count > cap then None
    else if ta == tb then Some acc
    else
      match (ta, tb) with
      | va :: ra, vb :: rb -> walk ra rb (count + 2) (va :: vb :: acc)
      | [], [] -> Some acc
      | _ -> None
  in
  if a.trail_len >= b.trail_len then
    match strip (a.trail_len - b.trail_len) a.trail 0 [] with
    | None -> None
    | Some (ta, count, acc) -> walk ta b.trail count acc
  else
    match strip (b.trail_len - a.trail_len) b.trail 0 [] with
    | None -> None
    | Some (tb, count, acc) -> walk a.trail tb count acc

let relax_integrality m =
  {
    m with
    vars = Imap.map (fun info -> { info with kind = Continuous }) m.vars;
  }

let constraints m =
  List.rev_map (fun c -> (c.cname, c.terms, c.rel, c.rhs)) m.constrs

let iter_rows_rev f m =
  let rec go i = function
    | [] -> ()
    | c :: rest ->
        f i c.terms c.rel c.rhs;
        go (i - 1) rest
  in
  go (m.nconstrs - 1) m.constrs

let iter_var_bounds f m = Imap.iter (fun v info -> f v info.lo info.up) m.vars

let objective m = (m.sense, m.obj)

let complete m =
  let lo = Array.make m.nvars neg_infinity
  and up = Array.make m.nvars infinity in
  Imap.iter
    (fun v info ->
      (match info.lo with Some l -> lo.(v) <- l | None -> ());
      match info.up with Some u -> up.(v) <- u | None -> ())
    m.vars;
  let steps = Array.of_list (List.rev m.defs) in
  fun x ->
    if Array.length x <> m.nvars then invalid_arg "Lp.complete: point size";
    let y = Array.copy x in
    for v = 0 to m.nvars - 1 do
      if y.(v) < lo.(v) then y.(v) <- lo.(v);
      if y.(v) > up.(v) then y.(v) <- up.(v)
    done;
    Array.iter
      (function
        | Dot { target; coefs; vars; const } ->
            let acc = ref const in
            for k = 0 to Array.length coefs - 1 do
              acc := !acc +. (coefs.(k) *. y.(vars.(k)))
            done;
            y.(target) <- !acc
        | Max0 { target; pre; phase } ->
            let p = y.(pre) in
            if p > 0.0 then begin
              y.(target) <- p;
              y.(phase) <- 1.0
            end
            else begin
              y.(target) <- 0.0;
              y.(phase) <- 0.0
            end)
      steps;
    y

let eval_term_list terms x =
  List.fold_left (fun acc (c, v) -> acc +. (c *. x.(v))) 0.0 terms

(* Rows first, the newest first: a point that misses the query's last
   rows fails before the bounds are read. *)
let check_feasible ?(tol = 1e-6) m x =
  Array.length x = m.nvars
  && List.for_all
       (fun c ->
         let lhs = eval_term_list c.terms x in
         match c.rel with
         | Le -> lhs <= c.rhs +. tol
         | Ge -> lhs >= c.rhs -. tol
         | Eq -> Float.abs (lhs -. c.rhs) <= tol)
       m.constrs
  && Imap.for_all
       (fun v info ->
         (match info.lo with None -> true | Some l -> x.(v) >= l -. tol)
         && match info.up with None -> true | Some u -> x.(v) <= u +. tol)
       m.vars
