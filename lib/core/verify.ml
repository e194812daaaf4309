module Lp = Dpv_linprog.Lp
module Milp = Dpv_linprog.Milp
module Milp_par = Dpv_linprog.Milp_par
module Clock = Dpv_linprog.Clock
module Network = Dpv_nn.Network
module Layer = Dpv_nn.Layer
module Box_domain = Dpv_absint.Box_domain
module Propagate = Dpv_absint.Propagate
module Box_monitor = Dpv_monitor.Box_monitor
module Polyhedron = Dpv_monitor.Polyhedron
module Risk = Dpv_spec.Risk
module Vec = Dpv_tensor.Vec
module Mat = Dpv_tensor.Mat
module Trace = Dpv_obs.Trace

type bounds_spec =
  | Static_bounds of Propagate.domain * Box_domain.t
  | Data_box of Vec.t array
  | Data_octagon of Vec.t array
  | Feature_box of Box_domain.t

type verdict =
  | Safe of { conditional : bool }
  | Unsafe of { features : Vec.t; output : Vec.t; logit : float }
  | Unknown of string

type result = {
  verdict : verdict;
  milp_stats : Milp.stats;
  encoding : string;
  num_binaries : int;
  wall_time_s : float;
}

let is_conditional = function
  | Data_box _ | Data_octagon _ -> true
  | Static_bounds _ | Feature_box _ -> false

(* Resolve the bounds specification into a feature box plus optional
   extra polyhedron faces over the feature variables. *)
let resolve_bounds ~perception ~cut spec =
  let kind =
    match spec with
    | Static_bounds _ -> "static"
    | Data_box _ -> "data-box"
    | Data_octagon _ -> "data-octagon"
    | Feature_box _ -> "feature-box"
  in
  Trace.with_span ~args:[ ("spec", kind) ] "verify.resolve-bounds" @@ fun () ->
  match spec with
  | Static_bounds (domain, input_box) ->
      (Propagate.layer_bounds domain perception ~input_box ~cut, [])
  | Data_box points -> (Box_monitor.to_box (Box_monitor.fit points), [])
  | Data_octagon points ->
      (* Pruning box-implied faces keeps the LP rows proportional to the
         genuinely correlated coordinate pairs. *)
      let poly = Polyhedron.prune_redundant (Polyhedron.fit_octagon points) in
      (Polyhedron.bounding_box poly, Polyhedron.halfspaces poly)
  | Feature_box box -> (box, [])

let default_milp_options = { Milp.default_options with find_first = true }

(* The one Unknown reason that is a scheduling artifact rather than a
   verdict about the query: the retry ladder keys on it. *)
let deadline_reason = "deadline exceeded"

let concrete_tol = 1e-5

let run_query ?(milp_options = default_milp_options) ?(absint = false)
    ?absint_seed ~characterizer_margin ~shared ~head ~psi ~conditional () =
  Trace.with_span "verify.query" @@ fun () ->
  let started = Clock.now_s () in
  let suffix = Encode.suffix_of_shared shared in
  let encoding = Encode.complete shared ~head ~characterizer_margin ~psi () in
  let milp_options =
    if not absint then milp_options
    else
      let guide =
        Absguide.factory ?seed:absint_seed ~suffix ~head
          ~feature_box:(Encode.feature_box_of_shared shared)
          ~suffix_relus:(Encode.suffix_relu_vars_of_shared shared)
          ~head_relus:encoding.Encode.head_relu_vars ~psi ~characterizer_margin
          ()
      in
      { milp_options with Milp.absint = Some guide }
  in
  let milp_result, milp_stats =
    Milp_par.solve_with_stats ~options:milp_options encoding.Encode.model
  in
  let wall_time_s = Clock.now_s () -. started in
  let verdict =
    match milp_result with
    | Milp.Infeasible -> Safe { conditional }
    | Milp.Node_limit -> Unknown "branch-and-bound node limit reached"
    | Milp.Timeout -> Unknown deadline_reason
    | Milp.Unbounded -> Unknown "LP relaxation unbounded (missing bounds)"
    | Milp.Optimal { solution; _ } | Milp.Feasible { solution; _ } ->
        (* A [Feasible] incumbent (find_first, or a truncated search that
           still found a point) is as good as [Optimal] here: any
           integer-feasible point is a violation candidate, and it is
           re-validated concretely below before being reported. *)
        let features =
          Array.map (fun v -> solution.(v)) encoding.Encode.feature_vars
        in
        (* Re-validate the witness with concrete execution: the MILP works
           over the encoded constraints, the report must hold on the real
           network. *)
        let output = Network.forward suffix features in
        let logit = (Network.forward head features).(0) in
        if
          Risk.holds ~tol:concrete_tol psi output
          && logit >= characterizer_margin -. concrete_tol
        then Unsafe { features; output; logit }
        else
          Unknown
            (Printf.sprintf
               "MILP witness failed concrete validation (logit %g, psi %s)"
               logit
               (if Risk.holds ~tol:concrete_tol psi output then "holds"
                else "violated"))
  in
  {
    verdict;
    milp_stats;
    encoding = Encode.size_description encoding;
    num_binaries = encoding.Encode.num_binaries;
    wall_time_s;
  }

(* ---------------- input bisection ---------------- *)

type bisect_options = { max_depth : int; subbox_time_limit_s : float option }

let default_bisect_options = { max_depth = 2; subbox_time_limit_s = None }

module Metrics = Dpv_obs.Metrics

let m_subboxes = Metrics.counter "bisect.subboxes"
let m_discharged = Metrics.counter "bisect.discharged"

(* Leaf discharge: the sub-box is safe when DeepPoly alone separates it
   from the query — [verify_incomplete]'s conditions, applied to the
   sub-box instead of the whole region.  The propagation runs once,
   through the resumable engine (bit-identical to the immutable one);
   a leaf that survives keeps it as [Some seed], which the MILP guide
   later adopts as its root state instead of propagating the same
   restricted box a second time. *)
let subbox_discharged ~suffix ~head ~psi ~characterizer_margin box =
  let sd = Absguide.root_propagation ~suffix ~head ~feature_box:box in
  if
    Absguide.query_unreachable ~psi ~characterizer_margin
      ~output_box:(Absguide.seed_output_box sd)
      ~logit_box:(Absguide.seed_logit_box sd)
  then None
  else Some sd

(* Split at the midpoint of the widest dimension; [None] when the box
   is degenerate (a point, or midpoint rounding cannot make progress). *)
let split_box (box : Box_domain.t) =
  let d = Array.length box in
  let widest = ref 0 and w = ref neg_infinity in
  for i = 0 to d - 1 do
    let wi = Dpv_absint.Interval.width box.(i) in
    if wi > !w then begin
      w := wi;
      widest := i
    end
  done;
  if d = 0 || !w <= 0.0 then None
  else begin
    let i = !widest in
    let { Dpv_absint.Interval.lo; hi } = box.(i) in
    let mid = 0.5 *. (lo +. hi) in
    if (not (Float.is_finite mid)) || mid <= lo || mid >= hi then None
    else begin
      let a = Array.copy box and b = Array.copy box in
      a.(i) <- Dpv_absint.Interval.make ~lo ~hi:mid;
      b.(i) <- Dpv_absint.Interval.make ~lo:mid ~hi;
      Some (a, b)
    end
  end

type bisect_plan = {
  survivors : (Box_domain.t * Absguide.seed) list;
  discharged : int;
}

let plan_total p = p.discharged + List.length p.survivors

(* Recursively split the feature box, discharging cheap sub-boxes with
   DeepPoly as they appear; whatever survives to [max_depth] (or cannot
   be split further) goes to the MILP, carrying the propagation that
   failed to discharge it as the guide's root seed.  The union of
   discharged and surviving sub-boxes covers the input box exactly, so
   any verdict merge over the plan is a verdict about the whole
   region. *)
let bisect_plan ~max_depth ~suffix ~head ~psi ~characterizer_margin
    feature_box =
  let discharged = ref 0 in
  let survivors = ref [] in
  let keep box sd = survivors := (box, sd) :: !survivors in
  let rec go depth box =
    match subbox_discharged ~suffix ~head ~psi ~characterizer_margin box with
    | None -> incr discharged
    | Some sd ->
        if depth >= max_depth then keep box sd
        else (
          match split_box box with
          | None -> keep box sd
          | Some (a, b) ->
              go (depth + 1) a;
              go (depth + 1) b)
  in
  go 0 feature_box;
  let plan = { survivors = List.rev !survivors; discharged = !discharged } in
  Metrics.incr m_subboxes (plan_total plan);
  Metrics.incr m_discharged plan.discharged;
  plan

(* Sound verdict merge across a plan's sub-boxes: any (already
   concretely re-validated) UNSAFE witness decides the query; Safe
   requires every sub-box Safe or discharged; anything else stays
   Unknown.  [unsolved] counts survivors that never ran (budget). *)
let merge_bisected ~conditional ~discharged ~total_subboxes ~wall_time_s
    ~unsolved results =
  let stats =
    List.fold_left
      (fun acc r -> Milp.add_stats acc r.milp_stats)
      Milp.empty_stats results
  in
  let num_binaries =
    List.fold_left (fun acc r -> max acc r.num_binaries) 0 results
  in
  let verdict =
    match
      List.find_opt
        (fun r -> match r.verdict with Unsafe _ -> true | _ -> false)
        results
    with
    | Some r -> r.verdict
    | None ->
        let unknowns =
          List.filter_map
            (fun r ->
              match r.verdict with Unknown reason -> Some reason | _ -> None)
            results
        in
        if unsolved > 0 then
          Unknown
            (Printf.sprintf "%d of %d sub-boxes not solved (budget exhausted)"
               unsolved total_subboxes)
        else if List.exists (fun reason -> reason = deadline_reason) unknowns
        then
          (* Keep the exact deadline reason: the retry ladder keys on it. *)
          Unknown deadline_reason
        else (
          match unknowns with
          | [] -> Safe { conditional }
          | [ reason ] -> Unknown ("sub-box inconclusive: " ^ reason)
          | reason :: _ ->
              Unknown
                (Printf.sprintf "%d sub-boxes inconclusive (first: %s)"
                   (List.length unknowns) reason))
  in
  {
    verdict;
    milp_stats = stats;
    encoding =
      Printf.sprintf
        "bisection: %d sub-boxes (%d discharged by propagation, %d to MILP)"
        total_subboxes discharged
        (total_subboxes - discharged);
    num_binaries;
    wall_time_s;
  }

let verify ?milp_options ?(characterizer_margin = 0.0) ?(tighten = false)
    ?(absint = false) ?bisect ~perception ~characterizer ~psi ~bounds () =
  let started = Clock.now_s () in
  let cut = characterizer.Characterizer.cut in
  let suffix = Network.suffix perception ~cut in
  let head = characterizer.Characterizer.head in
  let feature_box, extra_faces = resolve_bounds ~perception ~cut bounds in
  let conditional = is_conditional bounds in
  (* One deadline covers tightening *and* the MILP: [time_limit_s] is
     the budget for the whole call, not per phase. *)
  let time_limit_s = Option.bind milp_options (fun o -> o.Milp.time_limit_s) in
  let deadline = Clock.deadline_after time_limit_s in
  (* Build the shared prefix on the incoming box first: tightening reuses
     it (instead of re-encoding the suffix), and when OBBT ends up not
     shrinking anything the MILP reuses it too. *)
  let shared = Encode.build_shared ~suffix ~feature_box ~extra_faces () in
  let shared =
    if tighten then begin
      let tightened_box =
        fst
          (Tighten.feature_box ~deadline ~shared ~suffix ~head ~feature_box
             ~extra_faces ~characterizer_margin ())
      in
      if tightened_box = feature_box then shared
      else
        Encode.build_shared ~suffix ~feature_box:tightened_box ~extra_faces ()
    end
    else shared
  in
  match bisect with
  | None ->
      let milp_options =
        Option.map
          (fun o ->
            { o with Milp.time_limit_s = Clock.carve deadline o.Milp.time_limit_s })
          milp_options
      in
      run_query ?milp_options ~absint ~characterizer_margin ~shared ~head ~psi
        ~conditional ()
  | Some b ->
      let box = Encode.feature_box_of_shared shared in
      let plan =
        bisect_plan ~max_depth:b.max_depth ~suffix ~head ~psi
          ~characterizer_margin box
      in
      let sub_options () =
        let o = Option.value milp_options ~default:default_milp_options in
        let budget = Clock.carve deadline o.Milp.time_limit_s in
        let budget =
          match (budget, b.subbox_time_limit_s) with
          | Some t, Some s -> Some (Float.min t s)
          | None, s -> s
          | t, None -> t
        in
        { o with Milp.time_limit_s = budget }
      in
      let results = ref [] in
      let unsafe_found = ref false in
      List.iter
        (fun (sub, sd) ->
          (* A validated witness settles the whole query: later sub-boxes
             cannot change the verdict, so skip their MILPs. *)
          if not !unsafe_found then begin
            let sub_shared = Encode.restrict_shared shared ~feature_box:sub in
            let r =
              run_query ~milp_options:(sub_options ()) ~absint ~absint_seed:sd
                ~characterizer_margin ~shared:sub_shared ~head ~psi
                ~conditional ()
            in
            results := r :: !results;
            match r.verdict with
            | Unsafe _ -> unsafe_found := true
            | _ -> ()
          end)
        plan.survivors;
      merge_bisected ~conditional ~discharged:plan.discharged
        ~total_subboxes:(plan_total plan)
        ~wall_time_s:(Clock.now_s () -. started)
        ~unsolved:0 (List.rev !results)

let verify_incomplete ?(domain = Propagate.Deeppoly)
    ?(characterizer_margin = 0.0) ~perception ~characterizer ~psi ~bounds () =
  let started = Clock.now_s () in
  let cut = characterizer.Characterizer.cut in
  let suffix = Network.suffix perception ~cut in
  let head = characterizer.Characterizer.head in
  let feature_box, _faces = resolve_bounds ~perception ~cut bounds in
  let conditional = is_conditional bounds in
  let output_box = Propagate.output_bounds domain suffix ~input_box:feature_box in
  let logit_box =
    (Propagate.output_bounds domain head ~input_box:feature_box).(0)
  in
  let verdict =
    if
      Absguide.query_unreachable ~psi ~characterizer_margin ~output_box
        ~logit_box
    then Safe { conditional }
    else
      Unknown
        (Printf.sprintf
           "bound propagation (%s) cannot separate psi from the reachable \
            outputs"
           (Propagate.domain_name domain))
  in
  {
    verdict;
    milp_stats = Milp.empty_stats;
    encoding =
      Printf.sprintf "bound propagation over %d suffix + %d head layers"
        (Network.num_layers suffix) (Network.num_layers head);
    num_binaries = 0;
    wall_time_s = Clock.now_s () -. started;
  }

(* A head whose logit is the constant 1: "phi always holds". *)
let trivial_head ~dim =
  Network.create ~input_dim:dim
    [
      Layer.dense
        ~weights:(Mat.zeros ~rows:1 ~cols:dim)
        ~bias:[| 1.0 |];
    ]

let verify_without_characterizer ?milp_options ~perception ~cut ~psi ~bounds () =
  let suffix = Network.suffix perception ~cut in
  let feature_box, extra_faces = resolve_bounds ~perception ~cut bounds in
  let shared = Encode.build_shared ~suffix ~feature_box ~extra_faces () in
  run_query ?milp_options ~characterizer_margin:0.0 ~shared
    ~head:(trivial_head ~dim:(Network.input_dim suffix))
    ~psi ~conditional:(is_conditional bounds) ()

type optimum = {
  value : float;
  opt_features : Vec.t;
  opt_output : Vec.t;
  opt_logit : float;
}

let optimize_output ?(milp_options = { Milp.default_options with find_first = false })
    ?(characterizer_margin = 0.0) ~perception ~characterizer ~objective ~sense
    ~bounds () =
  let cut = characterizer.Characterizer.cut in
  let suffix = Network.suffix perception ~cut in
  let head = characterizer.Characterizer.head in
  let feature_box, extra_faces = resolve_bounds ~perception ~cut bounds in
  let encoding =
    Encode.build ~suffix ~head ~feature_box ~extra_faces ~characterizer_margin ()
  in
  let lp_sense =
    match sense with `Maximize -> Lp.Maximize | `Minimize -> Lp.Minimize
  in
  let encoding = Encode.set_output_objective encoding ~sense:lp_sense objective in
  match Milp_par.solve ~options:milp_options encoding.Encode.model with
  | Milp.Infeasible ->
      Error "characterizer never fires inside S (query infeasible)"
  | Milp.Unbounded -> Error "objective unbounded over S"
  | Milp.Node_limit -> Error "node limit reached"
  | Milp.Timeout -> Error "deadline exceeded"
  | Milp.Feasible { objective = value; _ } ->
      (* An incumbent from a truncated search bounds the frontier but
         does not locate it; claiming it as the optimum would overstate
         the proof. *)
      Error
        (Printf.sprintf
           "search truncated with incumbent %g: value is a bound on the \
            optimum, not the optimum (raise max_nodes or time_limit_s)"
           (value +. objective.Dpv_spec.Linexpr.const))
  | Milp.Optimal { objective = value; solution } ->
      let opt_features =
        Array.map (fun v -> solution.(v)) encoding.Encode.feature_vars
      in
      let opt_output = Network.forward suffix opt_features in
      let opt_logit = (Network.forward head opt_features).(0) in
      (* The Lp objective drops the expression's constant term. *)
      Ok
        {
          value = value +. objective.Dpv_spec.Linexpr.const;
          opt_features;
          opt_output;
          opt_logit;
        }

let pp_verdict fmt = function
  | Safe { conditional } ->
      Format.fprintf fmt "SAFE%s"
        (if conditional then " (conditional: monitor S~ at runtime)" else "")
  | Unsafe { logit; output; _ } ->
      Format.fprintf fmt "UNSAFE (witness: output %a, logit %.4f)"
        Vec.pp output logit
  | Unknown reason -> Format.fprintf fmt "UNKNOWN (%s)" reason
