(* Completing a branching node's LP point through the encoding's
   definitions: the network's own values at the point's features.

   - Property: on random Dense/BatchNorm/ReLU suffixes and heads, the
     completion of any point of the feature box is a feasible point of
     the encoding whose outputs and logit are the networks' forward
     passes.
   - Differential: against the same model rebuilt without definitions,
     a search that never completes a feasible point is the same search,
     counts included; one that finds a witness finds a concretely valid
     one in no more nodes.
   - A definition that disagrees with its row never yields an
     incumbent. *)

module Lp = Dpv_linprog.Lp
module Milp = Dpv_linprog.Milp
module Milp_par = Dpv_linprog.Milp_par
module Rng = Dpv_tensor.Rng
module Mat = Dpv_tensor.Mat
module Layer = Dpv_nn.Layer
module Network = Dpv_nn.Network
module Box_domain = Dpv_absint.Box_domain
module Interval = Dpv_absint.Interval
module Encode = Dpv_core.Encode
module Absguide = Dpv_core.Absguide
module Verify = Dpv_core.Verify
module Risk = Dpv_spec.Risk
module Trace = Dpv_obs.Trace

(* ---- property: completions are the forward pass ---- *)

(* A random piecewise-linear network: Dense, BatchNorm and ReLU layers
   in any order that starts and ends with a Dense layer, some weights
   exactly zero. *)
let random_net rng ~input_dim ~output_dim =
  let dense ~inp ~out =
    Layer.dense
      ~weights:
        (Mat.of_rows
           (Array.init out (fun _ ->
                Array.init inp (fun _ ->
                    if Rng.int rng 5 = 0 then 0.0
                    else Rng.uniform rng ~lo:(-1.0) ~hi:1.0))))
      ~bias:(Array.init out (fun _ -> Rng.uniform rng ~lo:(-0.5) ~hi:0.5))
  in
  let batch_norm d =
    let vec lo hi = Array.init d (fun _ -> Rng.uniform rng ~lo ~hi) in
    Layer.Batch_norm
      {
        gamma = vec (-2.0) 2.0;
        beta = vec (-0.5) 0.5;
        mean = vec (-0.5) 0.5;
        var = vec 0.1 2.0;
        eps = 1e-5;
      }
  in
  let rec hidden inp k =
    if k = 0 then [ dense ~inp ~out:output_dim ]
    else
      let out = 1 + Rng.int rng 6 in
      let extra =
        match Rng.int rng 3 with
        | 0 -> [ batch_norm out; Layer.Relu ]
        | 1 -> [ Layer.Relu; batch_norm out ]
        | _ -> [ Layer.Relu ]
      in
      (dense ~inp ~out :: extra) @ hidden out (k - 1)
  in
  Network.create ~input_dim (hidden input_dim (Rng.int rng 4))

let random_box rng ~dim =
  Array.init dim (fun _ ->
      let lo = Rng.uniform rng ~lo:(-1.5) ~hi:0.5 in
      Interval.make ~lo ~hi:(lo +. Rng.uniform rng ~lo:0.0 ~hi:2.0))

let test_completion_is_forward () =
  let rng = Rng.create 20261019 in
  let binaries = ref 0 in
  for case = 1 to 200 do
    let dim = 1 + Rng.int rng 5 in
    let suffix =
      random_net rng ~input_dim:dim ~output_dim:(1 + Rng.int rng 3)
    in
    let head = random_net rng ~input_dim:dim ~output_dim:1 in
    let feature_box = random_box rng ~dim in
    (* Below every reachable logit, so the phi row holds everywhere. *)
    let margin =
      let bounds = Box_domain.propagate_all head feature_box in
      bounds.(Array.length bounds - 1).(0).Interval.lo -. 1.0
    in
    let e =
      Encode.build ~suffix ~head ~feature_box ~characterizer_margin:margin ()
    in
    let model = e.Encode.model in
    let ints = Lp.integer_vars model in
    binaries := !binaries + List.length ints;
    for point = 1 to 5 do
      let ctx = Printf.sprintf "net %d, point %d" case point in
      let features = Box_domain.sample rng feature_box in
      (* Garbage everywhere else: the completion must overwrite it. *)
      let x =
        Array.init (Lp.num_vars model) (fun _ ->
            Rng.uniform rng ~lo:(-3.0) ~hi:3.0)
      in
      Array.iteri (fun i v -> x.(v) <- features.(i)) e.Encode.feature_vars;
      let c = Lp.complete model x in
      Alcotest.(check bool)
        (ctx ^ ": feasible") true (Lp.check_feasible model c);
      List.iter
        (fun v ->
          if c.(v) <> 0.0 && c.(v) <> 1.0 then
            Alcotest.failf "%s: binary %d is %g" ctx v c.(v))
        ints;
      let output = Network.forward suffix features in
      Array.iteri
        (fun i v ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s: output %d" ctx i)
            output.(i) c.(v))
        e.Encode.output_vars;
      Alcotest.(check (float 1e-9))
        (ctx ^ ": logit")
        (Network.forward head features).(0)
        c.(e.Encode.logit_var)
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "crossing ReLUs covered (%d binaries)" !binaries)
    true (!binaries >= 200)

(* ---- differential: the search against a model without definitions ---- *)

(* [m]'s rows, bounds, integer kinds and objective, rebuilt in order
   without its definitions. *)
let without_definitions m =
  let ints = Lp.integer_vars m in
  let r = ref (Lp.create ()) in
  Lp.iter_var_bounds
    (fun v lo up ->
      let kind = if List.mem v ints then Lp.Integer else Lp.Continuous in
      let next, v' = Lp.add_var ?lo ?up ~kind !r in
      assert (v = v');
      r := next)
    m;
  List.iter
    (fun (name, terms, rel, rhs) ->
      r := Lp.add_constraint ~name !r terms rel rhs)
    (Lp.constraints m);
  let sense, obj = Lp.objective m in
  Lp.set_objective !r sense obj

(* A verification query: the networks, the prefix over their box, psi,
   and how to search it. *)
type query = {
  label : string;
  suffix : Network.t;
  head : Network.t;
  shared : Encode.shared;
  psi : Risk.t;
  absint : bool;
  branch_rule : Milp.branch_rule;
  max_nodes : int;
}

let query ?(absint = false) ?(branch_rule = Milp.Most_fractional)
    ?(max_nodes = Milp.default_options.Milp.max_nodes) label ~suffix ~head
    ~feature_box psi =
  {
    label;
    suffix;
    head;
    shared = Encode.build_shared ~suffix ~feature_box ();
    psi;
    absint;
    branch_rule;
    max_nodes;
  }

let options q ~workers (e : Encode.t) =
  let absint =
    if not q.absint then None
    else
      Some
        (Absguide.factory ~suffix:q.suffix ~head:q.head
           ~feature_box:(Encode.feature_box_of_shared q.shared)
           ~suffix_relus:(Encode.suffix_relu_vars_of_shared q.shared)
           ~head_relus:e.Encode.head_relu_vars ~psi:q.psi
           ~characterizer_margin:0.0 ())
  in
  {
    Verify.default_milp_options with
    Milp.workers;
    absint;
    branch_rule = q.branch_rule;
    max_nodes = q.max_nodes;
  }

let encoding q = Encode.complete q.shared ~head:q.head ~psi:q.psi ()

(* The reference: the same search on the model without definitions. *)
let reference q ~workers =
  let e = encoding q in
  Milp_par.solve_with_stats ~options:(options q ~workers e)
    (without_definitions e.Encode.model)

(* Everything a search counts but its timings and steals. *)
let work (st : Milp.stats) =
  [
    st.Milp.nodes_explored;
    st.Milp.lp_solved;
    st.Milp.incumbent_updates;
    st.Milp.max_queue_depth;
    st.Milp.pivots;
    st.Milp.warm_starts;
    st.Milp.cold_starts;
    st.Milp.fallbacks;
    st.Milp.absint_phase_fixes;
    st.Milp.absint_prunes;
    st.Milp.absint_incr_hits;
    st.Milp.absint_layers_propagated;
    st.Milp.absint_layers_saved;
    st.Milp.absint_cache_evictions;
  ]

let result_word = function
  | Milp.Infeasible -> "safe"
  | Milp.Optimal _ | Milp.Feasible _ -> "unsafe"
  | Milp.Node_limit | Milp.Timeout | Milp.Unbounded -> "unknown"

let verdict_word = Dpv_core.Campaign.verdict_word

let run_verify q ~workers =
  let milp_options =
    {
      Verify.default_milp_options with
      Milp.workers;
      branch_rule = q.branch_rule;
      max_nodes = q.max_nodes;
    }
  in
  Verify.run_query ~milp_options ~absint:q.absint ~characterizer_margin:0.0
    ~shared:q.shared ~head:q.head ~psi:q.psi ~conditional:false ()

(* One worker: where the reference ends Infeasible or at the node cap
   without an incumbent, the search is the reference's, counts and
   all; where it finds a witness, [Verify] finds a concretely valid one
   in no more nodes.  Returns whether the reference found a witness and
   whether the completion ended the search sooner. *)
let check_one_worker q =
  let want, want_st = reference q ~workers:1 in
  let got = run_verify q ~workers:1 in
  let st = got.Verify.milp_stats in
  match want with
  | Milp.Infeasible | Milp.Node_limit ->
      Alcotest.(check string)
        (q.label ^ ": verdict")
        (result_word want)
        (verdict_word got.Verify.verdict);
      Alcotest.(check (list int)) (q.label ^ ": work") (work want_st) (work st);
      (false, false)
  | Milp.Optimal _ | Milp.Feasible _ ->
      (match got.Verify.verdict with
      | Verify.Unsafe _ -> ()
      | v -> Alcotest.failf "%s: %s, not a witness" q.label (verdict_word v));
      if st.Milp.nodes_explored > want_st.Milp.nodes_explored then
        Alcotest.failf "%s: %d nodes, the reference took %d" q.label
          st.Milp.nodes_explored want_st.Milp.nodes_explored;
      (true, st.Milp.nodes_explored < want_st.Milp.nodes_explored)
  | Milp.Timeout | Milp.Unbounded ->
      Alcotest.failf "%s: reference ended %s" q.label (result_word want)

let golden_1305_queries () =
  let suffix, head, feature_box = Test_simplex_warm.golden_nets 1305 in
  let q = query ~suffix ~head ~feature_box in
  [
    q "1305/infeasible" (Risk.make ~name:"a" [ Risk.output_ge 0 2.0 ]);
    q "1305/capped" ~max_nodes:40
      (Risk.make ~name:"a" [ Risk.output_ge 0 2.0 ]);
    q "1305/guided" ~absint:true (Risk.make ~name:"a" [ Risk.output_ge 0 2.0 ]);
    q "1305/low" (Risk.make ~name:"b" [ Risk.output_le 1 (-1.0) ]);
    q "1305/reachable" (Risk.make ~name:"c" [ Risk.output_ge 0 0.5 ]);
    q "1305/reachable-guided" ~absint:true ~branch_rule:Milp.Bound_width
      (Risk.make ~name:"c" [ Risk.output_ge 0 0.5 ]);
  ]

(* The EXT8 rows under their three searches and the EXT9 rows under
   the guide-order search, as in their goldens. *)
let golden_guide_queries () =
  let ext8 =
    List.concat_map
      (fun (name, seed, blend) ->
        let suffix, head, feature_box, psi =
          Test_absint_guided.golden_query ~name ~seed ~dims:[ 5; 10; 8; 1 ]
            ~blend
        in
        let q = query ~suffix ~head ~feature_box in
        [
          q (name ^ "/plain") psi;
          q (name ^ "/guided") ~absint:true psi;
          q (name ^ "/width") ~absint:true ~branch_rule:Milp.Bound_width psi;
        ])
      [
        ("ext8/relu18-hard-safe", 7, 0.2);
        ("ext8/relu18-mid-safe", 1, 0.2);
        ("ext8/relu18-easy-safe", 4, 0.6);
        ("ext8/relu18-boxgap", 1, 1.05);
        ("ext8/relu18-unsafe", 5, -0.2);
      ]
  in
  let deep = [ 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 1 ] in
  let ext9 =
    List.map
      (fun (name, seed, dims, blend) ->
        let suffix, head, feature_box, psi =
          Test_absint_guided.golden_query ~name ~seed ~dims ~blend
        in
        query (name ^ "/order") ~suffix ~head ~feature_box ~absint:true
          ~branch_rule:Milp.Guide_order psi)
      [
        ("ext9/relu18-safe", 7, [ 5; 10; 8; 1 ], 0.2);
        ("ext9/relu64-hard-safe", 13, deep, 0.05);
        ("ext9/relu64-mid-safe", 19, deep, 0.05);
        ("ext9/relu64-unsafe", 23, deep, 0.05);
      ]
  in
  ext8 @ ext9

let test_differential_one_worker () =
  let outcomes =
    List.map check_one_worker (golden_1305_queries () @ golden_guide_queries ())
  in
  let count p = List.length (List.filter p outcomes) in
  Alcotest.(check bool) "witness and no-witness queries covered" true
    (count fst >= 5 && count (fun (w, _) -> not w) >= 10);
  Alcotest.(check bool) "some completion ended a search sooner" true
    (count snd >= 2)

(* Two workers explore in a scheduling-dependent order, so only the
   verdict is compared.  The width-rule searches are left out to keep
   the test short; they branch on the same guide as the guided ones. *)
let test_differential_two_workers () =
  List.iter
    (fun q ->
      let want, _ = reference q ~workers:2 in
      let got = run_verify q ~workers:2 in
      Alcotest.(check string) (q.label ^ ": verdict") (result_word want)
        (verdict_word got.Verify.verdict))
    (List.filter
       (fun q -> q.branch_rule <> Milp.Bound_width)
       (golden_1305_queries () @ golden_guide_queries ()))

(* ---- a definition that disagrees with its row ---- *)

(* The model without definitions, then every definition again, the
   [k]th affine one with its constant shifted by [delta]. *)
let with_shifted_definition m ~k ~delta =
  let seen = ref 0 in
  List.fold_left
    (fun acc (v, d) ->
      match d with
      | Lp.Affine (terms, c) ->
          let c = if !seen = k then c +. delta else c in
          incr seen;
          Lp.define acc v (Lp.Affine (terms, c))
      | Lp.Relu _ -> Lp.define acc v d)
    (without_definitions m) (Lp.definitions m)

let test_wrong_definition_never_an_incumbent () =
  let deep = [ 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 1 ] in
  let suffix, head, feature_box, psi =
    Test_absint_guided.golden_query ~name:"ext9/relu64-unsafe" ~seed:23
      ~dims:deep ~blend:0.05
  in
  let q =
    query "ext9/relu64-unsafe" ~suffix ~head ~feature_box ~absint:true
      ~branch_rule:Milp.Guide_order psi
  in
  let e = encoding q in
  let want, want_st = reference q ~workers:1 in
  let completed, completed_st =
    Milp_par.solve_with_stats ~options:(options q ~workers:1 e) e.Encode.model
  in
  Alcotest.(check bool) "the completion ends the true model's search sooner"
    true
    (completed_st.Milp.nodes_explored < want_st.Milp.nodes_explored
    && result_word completed = "unsafe");
  let affine =
    List.length
      (List.filter
         (function _, Lp.Affine _ -> true | _, Lp.Relu _ -> false)
         (Lp.definitions e.Encode.model))
  in
  List.iter
    (fun (k, delta) ->
      let k = if k < 0 then affine + k else k in
      let m = with_shifted_definition e.Encode.model ~k ~delta in
      let got, st =
        Milp_par.solve_with_stats ~options:(options q ~workers:1 e) m
      in
      let ctx = Printf.sprintf "affine definition %d shifted by %g" k delta in
      Alcotest.(check bool)
        (ctx ^ ": the reference's result") true (got = want);
      Alcotest.(check (list int)) (ctx ^ ": the reference's work")
        (work want_st) (work st))
    [ (0, 0.5); (affine / 2, -1e-3); (-1, 1e-4) ]

(* ---- the trace says where the incumbent came from ---- *)

let completed_at q =
  let tag = "completion-" ^ q.label in
  Fun.protect ~finally:Trace.disable (fun () ->
      Trace.configure ();
      Trace.with_context tag (fun () -> ignore (run_verify q ~workers:1));
      match
        List.find_map
          (function
            | Trace.Complete { name = "milp.solve"; args; _ } -> Some args
            | _ -> None)
          (Trace.tagged_events tag)
      with
      | Some args -> List.assoc_opt "completed_at" args
      | None -> Alcotest.failf "%s: no milp.solve span" q.label)

let test_trace_completed_at () =
  let deep = [ 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 1 ] in
  let ext9 name seed blend =
    let suffix, head, feature_box, psi =
      Test_absint_guided.golden_query ~name ~seed ~dims:deep ~blend
    in
    query name ~suffix ~head ~feature_box ~absint:true
      ~branch_rule:Milp.Guide_order psi
  in
  Alcotest.(check (option string)) "a root completion" (Some "1")
    (completed_at (ext9 "ext9/relu64-unsafe" 23 0.05));
  Alcotest.(check (option string)) "a SAFE search has none" None
    (completed_at (ext9 "ext9/relu64-mid-safe" 19 0.05))

let tests =
  [
    Alcotest.test_case "completion is the forward pass" `Quick
      test_completion_is_forward;
    Alcotest.test_case "differential vs no definitions (one worker)" `Quick
      test_differential_one_worker;
    Alcotest.test_case "differential vs no definitions (two workers)" `Quick
      test_differential_two_workers;
    Alcotest.test_case "a wrong definition is never an incumbent" `Quick
      test_wrong_definition_never_an_incumbent;
    Alcotest.test_case "trace: milp.solve completed_at" `Quick
      test_trace_completed_at;
  ]
