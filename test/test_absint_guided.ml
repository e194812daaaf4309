(* Abstraction-guided branch-and-bound, input bisection, and the
   unbounded-relaxation soundness fix.

   - A non-root LP relaxation reporting Unbounded is a numerical
     artifact (a child's feasible set is contained in the bounded
     root's): the solver must truncate that subtree, never report the
     whole MILP Unbounded, and never claim Optimal afterwards.  The
     regression tests drive that path deterministically through the
     lp-unbounded fault site.
   - DeepPoly transfers must survive degenerate inputs (overflowing
     crossing intervals, non-finite batch-norm parameters) without
     producing unsound or NaN bounds.
   - DeepPoly under ReLU phase fixings must enclose every concrete
     execution consistent with the fixings.
   - The absint guide and input bisection are search optimizations:
     verdicts must match the unguided, unbisected solver. *)

module Lp = Dpv_linprog.Lp
module Milp = Dpv_linprog.Milp
module Milp_par = Dpv_linprog.Milp_par
module Faults = Dpv_linprog.Faults
module Interval = Dpv_absint.Interval
module Deeppoly = Dpv_absint.Deeppoly
module Network = Dpv_nn.Network
module Layer = Dpv_nn.Layer
module Mat = Dpv_tensor.Mat
module Rng = Dpv_tensor.Rng
module Risk = Dpv_spec.Risk
module Verify = Dpv_core.Verify
module Campaign = Dpv_core.Campaign
module Journal = Dpv_core.Journal
module Characterizer = Dpv_core.Characterizer
module Metrics = Dpv_obs.Metrics

let check_float = Alcotest.(check (float 1e-6))

let with_faults ?seed plan f =
  Fun.protect ~finally:Faults.disable (fun () ->
      Faults.configure ?seed plan;
      f ())

let classification = function
  | Milp.Optimal _ -> "optimal"
  | Milp.Feasible _ -> "feasible"
  | Milp.Infeasible -> "infeasible"
  | Milp.Unbounded -> "unbounded"
  | Milp.Node_limit -> "node-limit"
  | Milp.Timeout -> "timeout"

(* ---- unbounded-relaxation regression ------------------------------ *)

(* max x + y over binaries with x + y <= 1.5: the root relaxation is
   fractional (1.5), both children still hold integer points, and the
   integer optimum is 1.  Nodes: root, two children, grandchildren —
   enough tree for "occurrence 2 of the LP solve" to be a non-root
   node. *)
let branching_model () =
  let m = Lp.create () in
  let m, x = Lp.add_var ~kind:Lp.Binary m in
  let m, y = Lp.add_var ~kind:Lp.Binary m in
  let m = Lp.add_constraint m [ (1.0, x); (1.0, y) ] Lp.Le 1.5 in
  Lp.set_objective m Lp.Maximize [ (1.0, x); (1.0, y) ]

let seq_options = { Milp.default_options with workers = 1 }

let test_root_unbounded_still_unbounded () =
  (* At the root an Unbounded relaxation is an honest report and must
     keep surfacing as the Unbounded verdict. *)
  with_faults [ ("lp-unbounded", 1) ] @@ fun () ->
  match Milp_par.solve ~options:seq_options (branching_model ()) with
  | Milp.Unbounded -> ()
  | r -> Alcotest.failf "expected root Unbounded, got %s" (classification r)

let test_nonroot_unbounded_truncates_sequential () =
  (* Occurrence 2 is the first child.  The old solver returned
     [Unbounded] for the whole MILP here — unsound, the model is a
     bounded 0/1 program.  The fixed solver drops the subtree, keeps
     the sibling's incumbent, and reports Feasible (a truncated search
     may never claim Optimal). *)
  with_faults [ ("lp-unbounded", 2) ] @@ fun () ->
  let model = branching_model () in
  match Milp_par.solve ~options:seq_options model with
  | Milp.Feasible { objective; solution } ->
      check_float "sibling incumbent survives" 1.0 objective;
      Alcotest.(check bool) "incumbent is feasible" true
        (Lp.check_feasible ~tol:1e-6 model solution)
  | Milp.Optimal _ ->
      Alcotest.fail "truncated search must not claim Optimal"
  | Milp.Unbounded ->
      Alcotest.fail
        "non-root unbounded relaxation leaked out as an Unbounded verdict"
  | r -> Alcotest.failf "expected Feasible, got %s" (classification r)

let test_nonroot_unbounded_infeasible_model_inconclusive () =
  (* 2x = 1 over a binary is infeasible, but when one child's subtree
     was truncated the solver no longer visited the whole tree: the
     honest answer is Node_limit (inconclusive), not Infeasible and
     certainly not Unbounded. *)
  with_faults [ ("lp-unbounded", 2) ] @@ fun () ->
  let m = Lp.create () in
  let m, x = Lp.add_var ~kind:Lp.Binary m in
  let m = Lp.add_constraint m [ (2.0, x) ] Lp.Eq 1.0 in
  match Milp_par.solve ~options:seq_options m with
  | Milp.Node_limit -> ()
  | r ->
      Alcotest.failf "expected inconclusive Node_limit, got %s"
        (classification r)

let test_nonroot_unbounded_truncates_parallel () =
  (* Same property under the work-stealing solver: the root is always
     LP-solve occurrence 1 (workers start from the seeded root alone),
     so occurrence 2 is some non-root node in whichever subtree. *)
  with_faults [ ("lp-unbounded", 2) ] @@ fun () ->
  let model = branching_model () in
  let options = { Milp.default_options with workers = 2 } in
  match Milp_par.solve ~options model with
  | Milp.Feasible { objective; solution } ->
      check_float "sibling incumbent survives" 1.0 objective;
      Alcotest.(check bool) "incumbent is feasible" true
        (Lp.check_feasible ~tol:1e-6 model solution)
  | Milp.Optimal _ ->
      Alcotest.fail "truncated parallel search must not claim Optimal"
  | Milp.Unbounded ->
      Alcotest.fail "non-root unbounded leaked out of the parallel solver"
  | r -> Alcotest.failf "expected Feasible, got %s" (classification r)

let test_genuinely_unbounded_root_unchanged () =
  (* No injection: a model whose root relaxation really is unbounded
     still reports Unbounded. *)
  let m = Lp.create () in
  let m, x = Lp.add_var ~lo:0.0 ~kind:Lp.Integer m in
  let m = Lp.set_objective m Lp.Maximize [ (1.0, x) ] in
  match Milp_par.solve ~options:seq_options m with
  | Milp.Unbounded -> ()
  | r -> Alcotest.failf "expected Unbounded, got %s" (classification r)

(* ---- DeepPoly degenerate guards ----------------------------------- *)

let test_relu_overflowing_crossing_interval_sound () =
  (* u - l overflows to infinity for [-1e308, 1e308], which used to
     collapse the chord slope to 0 and report an upper bound near 0 —
     unsound, relu(1e308) = 1e308.  The guard falls back to the box
     relaxation [0, u]. *)
  let t = Deeppoly.of_box [| Interval.make ~lo:(-1e308) ~hi:1e308 |] in
  let out = Deeppoly.to_box (Deeppoly.transfer_layer Layer.Relu t) in
  Alcotest.(check bool) "no NaN bounds" false
    (Float.is_nan out.(0).Interval.lo || Float.is_nan out.(0).Interval.hi);
  Alcotest.(check bool) "upper bound covers relu(1e308)" true
    (out.(0).Interval.hi >= 1e308);
  Alcotest.(check bool) "lower bound covers relu of negatives" true
    (out.(0).Interval.lo <= 0.0)

let batch_norm_with gamma =
  Layer.Batch_norm
    {
      gamma = [| gamma |];
      beta = [| 0.0 |];
      mean = [| 0.0 |];
      var = [| 1.0 |];
      eps = 0.0;
    }

let test_batch_norm_nonfinite_scale_no_nan () =
  List.iter
    (fun gamma ->
      let t = Deeppoly.of_box [| Interval.make ~lo:(-1.0) ~hi:1.0 |] in
      let out = Deeppoly.to_box (Deeppoly.transfer_layer (batch_norm_with gamma) t) in
      let iv = out.(0) in
      Alcotest.(check bool)
        (Printf.sprintf "gamma=%h: bounds are not NaN" gamma)
        false
        (Float.is_nan iv.Interval.lo || Float.is_nan iv.Interval.hi);
      Alcotest.(check bool)
        (Printf.sprintf "gamma=%h: bounds are ordered" gamma)
        true
        (iv.Interval.lo <= iv.Interval.hi))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_relu_fixed_contradiction_is_empty () =
  let always_pos = Deeppoly.of_box [| Interval.make ~lo:1.0 ~hi:2.0 |] in
  (match Deeppoly.transfer_relu_fixed [| Deeppoly.Inactive |] always_pos with
  | None -> ()
  | Some _ -> Alcotest.fail "Inactive fixing on lo > 0 must be empty");
  let always_neg = Deeppoly.of_box [| Interval.make ~lo:(-2.0) ~hi:(-1.0) |] in
  (match Deeppoly.transfer_relu_fixed [| Deeppoly.Active |] always_neg with
  | None -> ()
  | Some _ -> Alcotest.fail "Active fixing on hi < 0 must be empty");
  (* The x = 0 boundary belongs to both phases: neither fixing may
     declare [0, 0] empty. *)
  let zero = Deeppoly.of_box [| Interval.make ~lo:0.0 ~hi:0.0 |] in
  List.iter
    (fun phase ->
      match Deeppoly.transfer_relu_fixed [| phase |] zero with
      | Some _ -> ()
      | None -> Alcotest.fail "x = 0 must stay feasible under either phase")
    [ Deeppoly.Active; Deeppoly.Inactive ]

(* ---- phased propagation encloses concrete executions -------------- *)

let random_net rng ~input_dim ~relu_layers =
  let layers = ref [] in
  let prev = ref input_dim in
  for _ = 1 to relu_layers do
    let d = 1 + Rng.int rng 3 in
    let rows =
      Array.init d (fun _ ->
          Array.init !prev (fun _ -> Rng.uniform rng ~lo:(-1.5) ~hi:1.5))
    in
    let bias = Array.init d (fun _ -> Rng.uniform rng ~lo:(-0.5) ~hi:0.5) in
    layers := Layer.Relu :: Layer.dense ~weights:(Mat.of_rows rows) ~bias :: !layers;
    prev := d
  done;
  Network.create ~input_dim (List.rev !layers)

(* Phases the execution of [x] actually takes, indexed by layer
   position; the pre-activation vector at each ReLU decides. *)
let actual_phases net x =
  let v = ref x in
  let acc = ref [] in
  List.iteri
    (fun idx layer ->
      (match layer with
      | Layer.Relu ->
          acc :=
            ( idx,
              Array.map
                (fun p ->
                  if p >= 0.0 then Deeppoly.Active else Deeppoly.Inactive)
                !v )
            :: !acc
      | _ -> ());
      v := Layer.forward layer !v)
    (Network.layers net);
  (List.rev !acc, !v)

let test_phased_propagation_encloses_executions () =
  let rng = Rng.create 20260808 in
  for _ = 1 to 60 do
    let input_dim = 1 + Rng.int rng 3 in
    let net = random_net rng ~input_dim ~relu_layers:(1 + Rng.int rng 2) in
    let box =
      Array.init input_dim (fun _ ->
          let lo = Rng.uniform rng ~lo:(-1.0) ~hi:0.0 in
          Interval.make ~lo ~hi:(lo +. Rng.uniform rng ~lo:0.1 ~hi:2.0))
    in
    let x =
      Array.map (fun iv -> Rng.uniform rng ~lo:iv.Interval.lo ~hi:iv.Interval.hi) box
    in
    let phases_by_layer, out = actual_phases net x in
    (* Fix a random consistent subset of the execution's phases, leave
       the rest Unknown: the abstraction must still contain x's run. *)
    let phases_by_layer =
      List.map
        (fun (idx, phases) ->
          ( idx,
            Array.map
              (fun p -> if Rng.int rng 2 = 0 then p else Deeppoly.Unknown)
              phases ))
        phases_by_layer
    in
    let t = ref (Deeppoly.of_box box) in
    List.iteri
      (fun idx layer ->
        match layer with
        | Layer.Relu -> (
            match
              Deeppoly.transfer_relu_fixed (List.assoc idx phases_by_layer) !t
            with
            | Some t' -> t := t'
            | None ->
                Alcotest.fail
                  "fixings consistent with a concrete run reported empty")
        | layer -> t := Deeppoly.transfer_layer layer !t)
      (Network.layers net);
    let bounds = Deeppoly.to_box !t in
    Array.iteri
      (fun i y ->
        Alcotest.(check bool)
          (Printf.sprintf "output %d enclosed" i)
          true
          (y >= bounds.(i).Interval.lo -. 1e-7
          && y <= bounds.(i).Interval.hi +. 1e-7))
      out
  done

(* ---- neutral guide is bit-for-bit the plain solver ---------------- *)

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

let test_neutral_guide_identical_to_plain () =
  (* A guide that never prunes, fixes or scores must leave the search
     untouched: same classification, same objective, same node count.
     This is the [workers = 1, absint off ≡ today's solver] guarantee
     approached from the other side — the guided code path degenerates
     to the plain one. *)
  let neutral =
    Some
      (Milp.stateless_guide (fun _ ->
           { Milp.prune = false; fix = []; widths = [] }))
  in
  let rng = Rng.create 4711 in
  for _ = 1 to 30 do
    let model = random_milp rng in
    let plain, ps = Milp_par.solve_with_stats ~options:seq_options model in
    let guided, gs =
      Milp_par.solve_with_stats
        ~options:{ seq_options with Milp.absint = neutral }
        model
    in
    Alcotest.(check string) "classification agrees" (classification plain)
      (classification guided);
    Alcotest.(check int) "same tree explored" ps.Milp.nodes_explored
      gs.Milp.nodes_explored;
    Alcotest.(check int) "no fixes from the neutral guide" 0
      gs.Milp.absint_phase_fixes;
    Alcotest.(check int) "no prunes from the neutral guide" 0
      gs.Milp.absint_prunes;
    match (plain, guided) with
    | Milp.Optimal { objective = o1; _ }, Milp.Optimal { objective = o2; _ } ->
        check_float "objective agrees" o1 o2
    | _ -> ()
  done

(* ---- guided verify / bisection equivalence ------------------------ *)

(* Same hand-built pipeline as test_campaign:
   perception x -> Dense [[1];[-1]] -> ReLU -> Dense [1,-1], cut 2, so
   the features are (relu(x), relu(-x)) and the suffix output is
   f1 - f2 in [-1, 1] over the visited box. *)
let perception =
  Network.create ~input_dim:1
    [
      Layer.dense
        ~weights:(Mat.of_rows [| [| 1.0 |]; [| -1.0 |] |])
        ~bias:[| 0.0; 0.0 |];
      Layer.Relu;
      Layer.dense ~weights:(Mat.of_rows [| [| 1.0; -1.0 |] |]) ~bias:[| 0.0 |];
    ]

let cut = 2

let head =
  Network.create ~input_dim:2
    [ Layer.dense ~weights:(Mat.of_rows [| [| 1.0; 0.0 |] |]) ~bias:[| -0.5 |] ]

let characterizer =
  { Characterizer.head; cut; property_name = "x-at-least-half" }

let visited_features =
  Array.init 41 (fun i ->
      let x = -1.0 +. (float_of_int i /. 20.0) in
      Network.forward_upto perception ~cut [| x |])

let risk_ge threshold =
  Risk.make
    ~name:(Printf.sprintf "out>=%g" threshold)
    [ Risk.output_ge 0 threshold ]

let risk_le threshold =
  Risk.make
    ~name:(Printf.sprintf "out<=%g" threshold)
    [ Risk.output_le 0 threshold ]

(* Reachable and unreachable queries over both bounds strategies; the
   first is UNSAFE with a concretely re-validated witness. *)
let battery () =
  [
    ("reach-box", risk_ge 0.9, Verify.Data_box visited_features);
    ("unreach-box", risk_ge 1.5, Verify.Data_box visited_features);
    ("neg-oct", risk_le (-0.2), Verify.Data_octagon visited_features);
    ("neg-oct-deep", risk_le (-0.8), Verify.Data_octagon visited_features);
  ]

let verdict_word = Campaign.verdict_word

let test_absint_guided_verify_matches_plain () =
  List.iter
    (fun (label, psi, bounds) ->
      let plain = Verify.verify ~perception ~characterizer ~psi ~bounds () in
      let guided =
        Verify.verify ~absint:true ~perception ~characterizer ~psi ~bounds ()
      in
      let widest =
        Verify.verify ~absint:true
          ~milp_options:
            {
              Verify.default_milp_options with
              Milp.branch_rule = Milp.Bound_width;
            }
          ~perception ~characterizer ~psi ~bounds ()
      in
      let ordered =
        Verify.verify ~absint:true
          ~milp_options:
            {
              Verify.default_milp_options with
              Milp.branch_rule = Milp.Guide_order;
            }
          ~perception ~characterizer ~psi ~bounds ()
      in
      Alcotest.(check string)
        (label ^ ": guided verdict matches plain")
        (verdict_word plain.Verify.verdict)
        (verdict_word guided.Verify.verdict);
      Alcotest.(check string)
        (label ^ ": bound-width branching matches too")
        (verdict_word plain.Verify.verdict)
        (verdict_word widest.Verify.verdict);
      Alcotest.(check string)
        (label ^ ": guide-order branching matches too")
        (verdict_word plain.Verify.verdict)
        (verdict_word ordered.Verify.verdict))
    (battery ())

let test_absint_prunes_unreachable_query () =
  (* out = f1 - f2 can reach at most 1.0 over the feature box, so
     psi : out >= 1.2 is dead on arrival: the guide must prune at the
     root, before any LP is solved. *)
  let result =
    Verify.verify ~absint:true ~perception ~characterizer ~psi:(risk_ge 1.2)
      ~bounds:(Verify.Data_box visited_features) ()
  in
  (match result.Verify.verdict with
  | Verify.Safe _ -> ()
  | v -> Alcotest.failf "expected safe, got %a" Verify.pp_verdict v);
  Alcotest.(check bool) "the guide pruned at least one node" true
    (result.Verify.milp_stats.Milp.absint_prunes >= 1);
  Alcotest.(check int) "no LP was ever solved" 0
    result.Verify.milp_stats.Milp.lp_solved

let bisect2 = { Verify.max_depth = 2; subbox_time_limit_s = None }

let test_bisected_verify_matches_unbisected () =
  List.iter
    (fun (label, psi, bounds) ->
      let whole = Verify.verify ~perception ~characterizer ~psi ~bounds () in
      let bisected =
        Verify.verify ~bisect:bisect2 ~perception ~characterizer ~psi ~bounds ()
      in
      let both =
        Verify.verify ~absint:true ~bisect:bisect2 ~perception ~characterizer
          ~psi ~bounds ()
      in
      Alcotest.(check string)
        (label ^ ": bisected verdict matches whole-box")
        (verdict_word whole.Verify.verdict)
        (verdict_word bisected.Verify.verdict);
      Alcotest.(check string)
        (label ^ ": bisect+absint matches too")
        (verdict_word whole.Verify.verdict)
        (verdict_word both.Verify.verdict))
    (battery ())

let test_bisected_unsafe_witness_revalidates () =
  (* The UNSAFE query of the battery: the witness surviving the merge
     must replay concretely into psi through the suffix, exactly like
     the unbisected path guarantees. *)
  let psi = risk_ge 0.9 in
  let result =
    Verify.verify ~bisect:bisect2 ~perception ~characterizer ~psi
      ~bounds:(Verify.Data_box visited_features) ()
  in
  match result.Verify.verdict with
  | Verify.Unsafe { features; output; logit } ->
      let suffix = Network.suffix perception ~cut in
      let replayed = Network.forward suffix features in
      check_float "witness output replays through the suffix" replayed.(0)
        output.(0);
      Alcotest.(check bool) "witness really violates psi" true
        (output.(0) >= 0.9 -. 1e-6);
      Alcotest.(check bool) "characterizer fires on the witness" true
        (logit >= -1e-9)
  | v -> Alcotest.failf "expected unsafe, got %a" Verify.pp_verdict v

let test_campaign_bisect_matches_plain () =
  let queries () =
    List.map
      (fun (label, psi, bounds) ->
        Campaign.query ~label ~characterizer ~psi ~bounds ())
      (battery ())
  in
  let plain = Campaign.run ~runners:1 ~perception (queries ()) in
  let bisected =
    Campaign.run ~runners:2 ~absint:true ~bisect:bisect2 ~perception
      (queries ())
  in
  Alcotest.(check bool) "bisected campaign is clean" false
    bisected.Campaign.degraded;
  List.iter2
    (fun (pq : Campaign.query_report) (bq : Campaign.query_report) ->
      match (pq.Campaign.outcome, bq.Campaign.outcome) with
      | Campaign.Done p, Campaign.Done b ->
          Alcotest.(check string)
            (pq.Campaign.query.Campaign.label ^ ": verdict matches")
            (verdict_word p.Verify.verdict)
            (verdict_word b.Verify.verdict)
      | _ -> Alcotest.fail "expected Done outcomes on a clean run")
    plain.Campaign.query_reports bisected.Campaign.query_reports;
  (* The bisection counters surface in the campaign's metrics delta —
     the same property CI asserts on the smoke campaign. *)
  match Metrics.counter_in bisected.Campaign.metrics "bisect.subboxes" with
  | Some n when n > 0 -> ()
  | Some n -> Alcotest.failf "bisect.subboxes counter stuck at %d" n
  | None -> Alcotest.fail "bisect.subboxes counter missing from metrics"

let battery_queries () =
  List.map
    (fun (label, psi, bounds) ->
      Campaign.query ~label ~characterizer ~psi ~bounds ())
    (battery ())

let run_bisected ?budget_s ?journal ?resume ?on_settled () =
  Campaign.run ~runners:1 ~absint:true ~bisect:bisect2 ?budget_s ?journal
    ?resume ?on_settled ~perception (battery_queries ())

(* Sub-boxes a merged bisection result sent to the MILP. *)
let subbox_solves (r : Verify.result) =
  Scanf.sscanf r.Verify.encoding
    "bisection: %d sub-boxes (%d discharged by propagation, %d to MILP)"
    (fun _ _ solved -> solved)

let test_campaign_bisect_skipped_attempts () =
  (* Zero budget: plans still run, so queries whose plan discharges
     everything settle Safe, and every query with survivors is Skipped
     without a single solve attempt. *)
  let report = run_bisected ~budget_s:0.0 () in
  let skipped =
    List.filter
      (fun (qr : Campaign.query_report) ->
        match qr.Campaign.outcome with Campaign.Skipped _ -> true | _ -> false)
      report.Campaign.query_reports
  in
  Alcotest.(check bool) "some query has survivors to skip" true (skipped <> []);
  List.iter
    (fun (qr : Campaign.query_report) ->
      Alcotest.(check int)
        (qr.Campaign.query.Campaign.label ^ ": skipped query made no attempt")
        0 qr.Campaign.attempts)
    skipped

let test_campaign_bisect_settles_at_last_subbox () =
  (* Each query with sub-box solves reads the global solve counter as
     it settles: a query streamed at its own last sub-box reads fewer
     solves than the run ends with, one held back until the whole pool
     finished reads them all. *)
  let solves = Metrics.counter "milp.solves" in
  let readings = ref [] in
  let on_settled (qr : Campaign.query_report) =
    match qr.Campaign.outcome with
    | Campaign.Done r when subbox_solves r > 0 ->
        readings := Metrics.counter_value solves :: !readings
    | _ -> ()
  in
  let report = run_bisected ~on_settled () in
  let final = Metrics.counter_value solves in
  Alcotest.(check bool) "clean run" false report.Campaign.degraded;
  match List.rev !readings with
  | first :: _ :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "first settle (%d solves) precedes the last solve (%d)"
           first final)
        true (first < final)
  | _ -> Alcotest.fail "expected at least two queries with sub-box solves"

let test_campaign_bisect_crash_and_resume () =
  let verdict (qr : Campaign.query_report) =
    match qr.Campaign.outcome with
    | Campaign.Done r -> verdict_word r.Verify.verdict
    | Campaign.Crashed _ -> "crashed"
    | Campaign.Skipped _ -> "skipped"
  in
  let clean = List.map verdict (run_bisected ()).Campaign.query_reports in
  let path = Filename.temp_file "dpv_test_bisect" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* One runner takes the units last-first, so the first task is a
     sub-box of the last query with survivors: "neg-oct-deep", which
     has no witness to decide it despite the crash. *)
  let crashed =
    with_faults [ ("task-crash", 1) ] (fun () ->
        run_bisected ~journal:path ())
  in
  Alcotest.(check int) "one crashed query" 1 crashed.Campaign.crashed;
  List.iter2
    (fun (qr : Campaign.query_report) clean_verdict ->
      let label = qr.Campaign.query.Campaign.label in
      match qr.Campaign.outcome with
      | Campaign.Crashed reason ->
          Alcotest.(check bool) (label ^ ": crash names its sub-box") true
            (String.starts_with ~prefix:"sub-box crashed: " reason);
          Alcotest.(check string) (label ^ ": crashed query has no witness")
            "safe" clean_verdict
      | _ ->
          Alcotest.(check string) (label ^ ": sibling keeps its verdict")
            clean_verdict (verdict qr))
    crashed.Campaign.query_reports clean;
  let entries =
    match Journal.load ~path with
    | Ok entries -> entries
    | Error e -> Alcotest.failf "journal unreadable: %s" e
  in
  Alcotest.(check int) "one journal entry per query"
    (List.length clean) (List.length entries);
  let resumed = run_bisected ~resume:entries () in
  Alcotest.(check int) "every settled query replays"
    (List.length clean - 1) resumed.Campaign.resumed;
  List.iter2
    (fun (before : Campaign.query_report) (after : Campaign.query_report) ->
      let label = after.Campaign.query.Campaign.label in
      let was_crashed =
        match before.Campaign.outcome with Campaign.Crashed _ -> true | _ -> false
      in
      Alcotest.(check bool) (label ^ ": only the crashed query re-solves")
        (not was_crashed) after.Campaign.from_journal)
    crashed.Campaign.query_reports resumed.Campaign.query_reports;
  Alcotest.(check (list string)) "resumed verdicts are the clean ones" clean
    (List.map verdict resumed.Campaign.query_reports)

(* ---- incremental guide: scratch ≡ incremental, stale fault, seeds -- *)

module Absguide = Dpv_core.Absguide
module Propagate = Dpv_absint.Propagate

(* A pipeline whose suffix and head both hold crossing ReLUs, so the
   guided search genuinely branches on relu binaries: consecutive DFS
   nodes share phase-fixing prefixes (incrementality pays off) and
   sibling switches roll the prefix cache back (the absint-stale site
   accrues occurrences). *)
let make_deep seed =
  let rng = Rng.create seed in
  let dense ~rows ~cols =
    Layer.dense
      ~weights:
        (Mat.of_rows
           (Array.init rows (fun _ ->
                Array.init cols (fun _ -> Rng.uniform rng ~lo:(-1.2) ~hi:1.2))))
      ~bias:(Array.init rows (fun _ -> Rng.uniform rng ~lo:(-0.3) ~hi:0.3))
  in
  let perception =
    Network.create ~input_dim:2
      [
        dense ~rows:2 ~cols:2;
        (* cut here: features are this layer's 2-dim output *)
        dense ~rows:3 ~cols:2;
        Layer.Relu;
        dense ~rows:3 ~cols:3;
        Layer.Relu;
        dense ~rows:1 ~cols:3;
      ]
  in
  let head =
    Network.create ~input_dim:2
      [ dense ~rows:2 ~cols:2; Layer.Relu; dense ~rows:1 ~cols:2 ]
  in
  (perception, head)

let deep_perception, deep_head = make_deep 27
let deep_cut = 1

let deep_characterizer =
  { Characterizer.head = deep_head; cut = deep_cut; property_name = "deep" }

let deep_box =
  [| Interval.make ~lo:(-1.0) ~hi:1.0; Interval.make ~lo:(-1.0) ~hi:1.0 |]

let deep_bounds = Verify.Feature_box deep_box

(* A threshold strictly between the concretely sampled maximum and the
   DeepPoly upper bound: propagation alone cannot discharge the query,
   so the solver must branch on the relu binaries to prove it safe.
   [blend] slides the threshold from the sampled maximum (0.0, hardest
   to discharge) to the DeepPoly bound (1.0, trivially discharged). *)
let deep_psi_of ?(blend = 0.5) perception =
  let suffix = Network.suffix perception ~cut:deep_cut in
  let hi =
    (Propagate.output_bounds Propagate.Deeppoly suffix ~input_box:deep_box).(0)
      .Interval.hi
  in
  let sampled = ref neg_infinity in
  for i = 0 to 20 do
    for j = 0 to 20 do
      let f =
        [|
          -1.0 +. (float_of_int i /. 10.0); -1.0 +. (float_of_int j /. 10.0);
        |]
      in
      sampled := Stdlib.max !sampled (Network.forward suffix f).(0)
    done
  done;
  risk_ge (!sampled +. (blend *. (hi -. !sampled)))

let deep_psi = deep_psi_of deep_perception

let guided_verify ?(workers = 1) ?(scratch = false) () =
  Fun.protect
    ~finally:(fun () -> Absguide.set_scratch false)
    (fun () ->
      Absguide.set_scratch scratch;
      Verify.verify ~absint:true
        ~milp_options:{ Verify.default_milp_options with Milp.workers }
        ~perception:deep_perception ~characterizer:deep_characterizer
        ~psi:deep_psi ~bounds:deep_bounds ())

let test_incremental_matches_scratch_sequential () =
  (* The whole point of the prefix cache: from-scratch and incremental
     propagation are the same function, so every solver-visible number
     is identical — only the layers-transferred work counters differ. *)
  let inc = guided_verify () in
  let scr = guided_verify ~scratch:true () in
  let is_ = inc.Verify.milp_stats and ss = scr.Verify.milp_stats in
  Alcotest.(check string) "verdict identical"
    (verdict_word scr.Verify.verdict)
    (verdict_word inc.Verify.verdict);
  Alcotest.(check bool) "the search actually branches" true
    (is_.Milp.nodes_explored >= 3);
  Alcotest.(check int) "same tree" ss.Milp.nodes_explored
    is_.Milp.nodes_explored;
  Alcotest.(check int) "same LPs" ss.Milp.lp_solved is_.Milp.lp_solved;
  Alcotest.(check int) "same prunes" ss.Milp.absint_prunes
    is_.Milp.absint_prunes;
  Alcotest.(check int) "same phase fixes" ss.Milp.absint_phase_fixes
    is_.Milp.absint_phase_fixes;
  Alcotest.(check bool) "incremental consults resume cached prefixes" true
    (is_.Milp.absint_incr_hits > 0 && is_.Milp.absint_layers_saved > 0);
  Alcotest.(check int) "scratch mode saves nothing" 0
    ss.Milp.absint_layers_saved;
  Alcotest.(check int) "scratch mode scores no hits" 0
    ss.Milp.absint_incr_hits;
  Alcotest.(check bool) "incremental transfers strictly fewer layers" true
    (is_.Milp.absint_layers_propagated < ss.Milp.absint_layers_propagated)

let test_incremental_matches_scratch_parallel () =
  (* Same equivalence through the work-stealing solver, where each
     worker domain owns a private guide instance.  The explored tree of
     an infeasible query is schedule-independent, so node counts still
     line up between the two modes. *)
  let seq = guided_verify () in
  let inc = guided_verify ~workers:2 () in
  let scr = guided_verify ~workers:2 ~scratch:true () in
  Alcotest.(check string) "parallel verdict matches sequential"
    (verdict_word seq.Verify.verdict)
    (verdict_word inc.Verify.verdict);
  Alcotest.(check string) "parallel scratch verdict identical"
    (verdict_word inc.Verify.verdict)
    (verdict_word scr.Verify.verdict);
  Alcotest.(check int) "parallel modes explore the same tree"
    scr.Verify.milp_stats.Milp.nodes_explored
    inc.Verify.milp_stats.Milp.nodes_explored;
  Alcotest.(check bool) "per-worker guides report incremental work" true
    (inc.Verify.milp_stats.Milp.absint_layers_propagated > 0)

let test_absint_stale_detected_and_recovered () =
  (* Chaos: serve one stale cached layer state.  The debug cross-check
     (armed whenever the fault harness is) must catch the divergence
     against a from-scratch reference, count a fallback, and leave the
     search bit-identical to a clean run. *)
  let clean = guided_verify () in
  let fallbacks = Metrics.counter "absint.stale_fallbacks" in
  with_faults [ ("absint-stale", 1) ] @@ fun () ->
  let before = Metrics.counter_value fallbacks in
  let faulted =
    Verify.verify ~absint:true ~perception:deep_perception
      ~characterizer:deep_characterizer ~psi:deep_psi ~bounds:deep_bounds ()
  in
  Alcotest.(check int) "the stale site fired exactly once" 1
    (Faults.fired "absint-stale");
  Alcotest.(check bool) "cross-check caught the stale state" true
    (Metrics.counter_value fallbacks - before >= 1);
  Alcotest.(check string) "verdict survives the injection"
    (verdict_word clean.Verify.verdict)
    (verdict_word faulted.Verify.verdict);
  Alcotest.(check int) "the repaired search explores the same tree"
    clean.Verify.milp_stats.Milp.nodes_explored
    faulted.Verify.milp_stats.Milp.nodes_explored

let test_bisection_seeds_guide_roots () =
  (* Regression for the bisection double-propagation: every surviving
     leaf hands its plan-time root propagation to the guide as a seed,
     so no survivor propagates its root twice. *)
  let seeded = Metrics.counter "absint.seeded_roots" in
  let subboxes = Metrics.counter "bisect.subboxes" in
  let discharged = Metrics.counter "bisect.discharged" in
  (* A tighter threshold than [deep_psi]: the quarter boxes of the
     depth-2 plan propagate tighter bounds, so the midpoint threshold
     would discharge every leaf and the seed hand-off would go
     unexercised. *)
  let psi = deep_psi_of ~blend:0.02 deep_perception in
  let whole =
    Verify.verify ~absint:true ~perception:deep_perception
      ~characterizer:deep_characterizer ~psi ~bounds:deep_bounds ()
  in
  let sr0 = Metrics.counter_value seeded in
  let sb0 = Metrics.counter_value subboxes in
  let dc0 = Metrics.counter_value discharged in
  let bis =
    Verify.verify ~absint:true ~bisect:bisect2 ~perception:deep_perception
      ~characterizer:deep_characterizer ~psi ~bounds:deep_bounds ()
  in
  let survivors =
    Metrics.counter_value subboxes
    - sb0
    - (Metrics.counter_value discharged - dc0)
  in
  Alcotest.(check bool) "some sub-box survives to MILP" true (survivors >= 1);
  Alcotest.(check int) "every survivor adopts its seed instead of redoing it"
    survivors
    (Metrics.counter_value seeded - sr0);
  Alcotest.(check string) "verdict matches the whole-box guided query"
    (verdict_word whole.Verify.verdict)
    (verdict_word bis.Verify.verdict)

(* ---- golden guide rows --------------------------------------------- *)

module Box_domain = Dpv_absint.Box_domain
module Encode = Dpv_core.Encode

(* Random Dense/ReLU stack: dims = [input; hidden...; output]. *)
let golden_stack ~seed dims =
  let rng = Rng.create seed in
  let dense ~inp ~out =
    Layer.dense
      ~weights:
        (Mat.of_rows
           (Array.init out (fun _ ->
                Array.init inp (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0))))
      ~bias:(Array.init out (fun _ -> Rng.uniform rng ~lo:(-0.3) ~hi:0.3))
  in
  let rec build inp = function
    | [] -> []
    | [ out ] -> [ dense ~inp ~out ]
    | out :: rest -> dense ~inp ~out :: Layer.Relu :: build out rest
  in
  match dims with
  | inp :: rest when rest <> [] -> Network.create ~input_dim:inp (build inp rest)
  | _ -> invalid_arg "golden_stack"

(* A characterizer head whose logit is constant 1: the phi-side
   constraint is inert, so the query is purely "can the suffix output
   reach psi over the box". *)
let inert_head dim =
  Network.create ~input_dim:dim
    [ Layer.dense ~weights:(Mat.create ~rows:1 ~cols:dim 0.0) ~bias:[| 1.0 |] ]

let sampled_max suffix ~dim =
  let rng = Rng.create 4242 in
  let box = Box_domain.uniform ~dim ~lo:(-1.0) ~hi:1.0 in
  let best = ref neg_infinity in
  for _ = 1 to 2000 do
    let y = Network.forward suffix (Box_domain.sample rng box) in
    if y.(0) > !best then best := y.(0)
  done;
  !best

(* One synthetic guided query: [blend] places the psi threshold between
   the sampled concrete maximum (blend = 0) and the DeepPoly output
   upper bound (blend = 1).  Thresholds past the DeepPoly bound are
   root-prunable by the guide but still force the plain solver to
   branch (its big-M LP relaxation uses the looser box bounds).
   Returns the suffix, the inert head, the feature box and psi. *)
let golden_query ~name ~seed ~dims ~blend =
  let suffix = golden_stack ~seed dims in
  let dim = List.hd dims in
  let feature_box = Box_domain.uniform ~dim ~lo:(-1.0) ~hi:1.0 in
  let dp_hi =
    (Propagate.output_bounds Propagate.Deeppoly suffix ~input_box:feature_box).(0)
      .Interval.hi
  in
  let sampled = sampled_max suffix ~dim in
  let threshold = sampled +. (blend *. (dp_hi -. sampled)) in
  let psi = Risk.make ~name [ Risk.output_ge 0 threshold ] in
  (suffix, inert_head dim, feature_box, psi)

(* The guide only discharges provably dead subtrees, so plain, guided
   and guided-with-width-branching searches return the same verdict;
   their node counts, the guided phase fixes and prunes are pinned.
   Row: verdict, plain / guided / width nodes, fixes, prunes. *)
let test_golden_guide_rows () =
  List.iter
    (fun (name, seed, blend, verdict, counts) ->
      let suffix, head, feature_box, psi =
        golden_query ~name ~seed ~dims:[ 5; 10; 8; 1 ] ~blend
      in
      let shared = Encode.build_shared ~suffix ~feature_box () in
      let solve ~absint ~branch_rule =
        let milp_options =
          { Verify.default_milp_options with Milp.workers = 1; branch_rule }
        in
        Verify.run_query ~milp_options ~absint ~characterizer_margin:0.0 ~shared
          ~head ~psi ~conditional:false ()
      in
      let plain = solve ~absint:false ~branch_rule:Milp.Most_fractional in
      let guided = solve ~absint:true ~branch_rule:Milp.Most_fractional in
      let width = solve ~absint:true ~branch_rule:Milp.Bound_width in
      let word r = verdict_word r.Verify.verdict in
      let nodes r = r.Verify.milp_stats.Milp.nodes_explored in
      Alcotest.(check string) (name ^ ": guided verdict") (word plain)
        (word guided);
      Alcotest.(check string) (name ^ ": width verdict") (word plain)
        (word width);
      Alcotest.(check string) (name ^ ": verdict") verdict (word plain);
      Alcotest.(check (list int))
        (name ^ ": plain, guided, width nodes, fixes, prunes") counts
        [
          nodes plain;
          nodes guided;
          nodes width;
          guided.Verify.milp_stats.Milp.absint_phase_fixes;
          guided.Verify.milp_stats.Milp.absint_prunes;
        ])
    [
      (* Threshold above the reachable set but below the DeepPoly root
         bound: both solvers search, the guided one prunes subtrees as
         phase fixings tighten bounds. *)
      ("ext8/relu18-hard-safe", 7, 0.2, "safe", [ 1047; 880; 210; 19; 133 ]);
      ("ext8/relu18-mid-safe", 1, 0.2, "safe", [ 179; 112; 34; 1; 27 ]);
      ("ext8/relu18-easy-safe", 4, 0.6, "safe", [ 31; 24; 4; 0; 3 ]);
      (* Past the DeepPoly bound: the guide discharges the root. *)
      ("ext8/relu18-boxgap", 1, 1.05, "safe", [ 1; 0; 0; 0; 1 ]);
      (* A reachable threshold: every search finds a witness. *)
      ("ext8/relu18-unsafe", 5, -0.2, "unsafe", [ 25; 43; 540; 3; 1 ]);
    ]

(* One guide-order search of a golden query with the guide in scratch
   or incremental mode; returns the result, the stats and the number of
   guide consults. *)
let consult_counted_solve ~scratch ~suffix ~head ~feature_box ~psi =
  let shared = Encode.build_shared ~suffix ~feature_box () in
  let encoding =
    Encode.complete shared ~head ~characterizer_margin:0.0 ~psi ()
  in
  let factory =
    Absguide.factory ~suffix ~head ~feature_box
      ~suffix_relus:(Encode.suffix_relu_vars_of_shared shared)
      ~head_relus:encoding.Encode.head_relu_vars ~psi
      ~characterizer_margin:0.0 ()
  in
  let consults = ref 0 in
  let counted =
    {
      Milp.new_guide =
        (fun () ->
          let g = factory.Milp.new_guide () in
          fun node ->
            incr consults;
            g node);
      stats = factory.Milp.stats;
    }
  in
  let options =
    {
      Verify.default_milp_options with
      Milp.workers = 1;
      absint = Some counted;
      branch_rule = Milp.Guide_order;
    }
  in
  Fun.protect
    ~finally:(fun () -> Absguide.set_scratch false)
    (fun () ->
      Absguide.set_scratch scratch;
      let result, stats =
        Milp_par.solve_with_stats ~options encoding.Encode.model
      in
      (result, stats, !consults))

(* Scratch and incremental guides run the same engine (scratch only
   invalidates back to layer 1 at every consult), so everything but the
   layers propagated is identical.  Row: verdict, nodes, consults,
   prunes, fixes, then scratch / incremental layers. *)
let test_golden_incremental_rows () =
  let milp_word = function
    | Milp.Infeasible -> "safe"
    | Milp.Optimal _ | Milp.Feasible _ -> "unsafe"
    | _ -> "unknown"
  in
  let deep = [ 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 1 ] in
  List.iter
    (fun (name, seed, dims, blend, verdict, counts, layers) ->
      let suffix, head, feature_box, psi =
        golden_query ~name ~seed ~dims ~blend
      in
      let solve scratch =
        consult_counted_solve ~scratch ~suffix ~head ~feature_box ~psi
      in
      let row (result, (st : Milp.stats), consults) =
        ( milp_word result,
          [
            st.Milp.nodes_explored;
            consults;
            st.Milp.absint_prunes;
            st.Milp.absint_phase_fixes;
          ] )
      in
      let ((_, s_stats, _) as scratch) = solve true in
      let ((_, i_stats, _) as incremental) = solve false in
      let s_word, s_counts = row scratch in
      let i_word, i_counts = row incremental in
      Alcotest.(check string) (name ^ ": scratch verdict") i_word s_word;
      Alcotest.(check (list int))
        (name ^ ": scratch nodes, consults, prunes, fixes") i_counts s_counts;
      Alcotest.(check string) (name ^ ": verdict") verdict i_word;
      Alcotest.(check (list int))
        (name ^ ": nodes, consults, prunes, fixes") counts i_counts;
      Alcotest.(check (pair int int))
        (name ^ ": scratch / incremental layers") layers
        ( s_stats.Milp.absint_layers_propagated,
          i_stats.Milp.absint_layers_propagated ))
    [
      ( "ext9/relu18-safe", 7, [ 5; 10; 8; 1 ], 0.2, "safe",
        [ 38; 39; 1; 0 ], (234, 82) );
      ( "ext9/relu64-hard-safe", 13, deep, 0.05, "safe",
        [ 188; 201; 13; 4 ], (6767, 1502) );
      ( "ext9/relu64-mid-safe", 19, deep, 0.05, "safe",
        [ 39; 41; 2; 9 ], (1394, 232) );
      ( "ext9/relu64-unsafe", 23, deep, 0.05, "unsafe",
        [ 1; 1; 0; 0 ], (34, 34) );
    ]

let tests =
  [
    Alcotest.test_case "root unbounded stays Unbounded" `Quick
      test_root_unbounded_still_unbounded;
    Alcotest.test_case "non-root unbounded truncates (sequential)" `Quick
      test_nonroot_unbounded_truncates_sequential;
    Alcotest.test_case "non-root unbounded -> inconclusive, not Infeasible"
      `Quick test_nonroot_unbounded_infeasible_model_inconclusive;
    Alcotest.test_case "non-root unbounded truncates (parallel)" `Quick
      test_nonroot_unbounded_truncates_parallel;
    Alcotest.test_case "genuinely unbounded root unchanged" `Quick
      test_genuinely_unbounded_root_unchanged;
    Alcotest.test_case "ReLU overflowing crossing interval is sound" `Quick
      test_relu_overflowing_crossing_interval_sound;
    Alcotest.test_case "batch-norm with non-finite scale yields no NaN" `Quick
      test_batch_norm_nonfinite_scale_no_nan;
    Alcotest.test_case "contradictory phase fixing is empty" `Quick
      test_relu_fixed_contradiction_is_empty;
    Alcotest.test_case "phased propagation encloses executions" `Quick
      test_phased_propagation_encloses_executions;
    Alcotest.test_case "neutral guide is the plain solver" `Quick
      test_neutral_guide_identical_to_plain;
    Alcotest.test_case "absint-guided verify matches plain" `Quick
      test_absint_guided_verify_matches_plain;
    Alcotest.test_case "absint prunes an unreachable query before any LP"
      `Quick test_absint_prunes_unreachable_query;
    Alcotest.test_case "bisected verify matches unbisected" `Quick
      test_bisected_verify_matches_unbisected;
    Alcotest.test_case "bisected UNSAFE witness re-validates" `Quick
      test_bisected_unsafe_witness_revalidates;
    Alcotest.test_case "campaign with bisect matches plain campaign" `Quick
      test_campaign_bisect_matches_plain;
    Alcotest.test_case "bisected skipped query reports zero attempts" `Quick
      test_campaign_bisect_skipped_attempts;
    Alcotest.test_case "bisected query settles at its last sub-box" `Quick
      test_campaign_bisect_settles_at_last_subbox;
    Alcotest.test_case "bisected crash isolation and resume" `Quick
      test_campaign_bisect_crash_and_resume;
    Alcotest.test_case "incremental ≡ scratch (sequential)" `Quick
      test_incremental_matches_scratch_sequential;
    Alcotest.test_case "incremental ≡ scratch (parallel)" `Quick
      test_incremental_matches_scratch_parallel;
    Alcotest.test_case "stale cache injection detected and recovered" `Quick
      test_absint_stale_detected_and_recovered;
    Alcotest.test_case "bisection survivors seed the guide roots" `Quick
      test_bisection_seeds_guide_roots;
    Alcotest.test_case "golden: EXT8 guide rows" `Quick test_golden_guide_rows;
    Alcotest.test_case "golden: EXT9 incremental rows" `Quick
      test_golden_incremental_rows;
  ]
