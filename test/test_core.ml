(* Tests for the paper's core: MILP encoding, verification verdicts,
   characterizer training, statistical tables and the workflow.

   The deterministic verification tests use a hand-built perception
   network whose exact semantics are known:

     perception: x -> Dense [[1];[-1]] -> ReLU -> Dense [1,-1]
     i.e. f(x) = relu(x) - relu(-x) = x, with cut layer 2 exposing the
     feature pair (relu(x), relu(-x)).

   Training data x in [-1,1] gives feature box [0,1]^2, but the visited
   features live on the curve {(relu(x), relu(-x))}, whose octagon hull
   adds y0 + y1 <= 1 — which is exactly what separates box-provable from
   octagon-provable properties below. *)

module Characterizer = Dpv_core.Characterizer
module Encode = Dpv_core.Encode
module Verify = Dpv_core.Verify
module Statistical = Dpv_core.Statistical
module Workflow = Dpv_core.Workflow
module Lp = Dpv_linprog.Lp
module Milp = Dpv_linprog.Milp
module Milp_par = Dpv_linprog.Milp_par
module Layer = Dpv_nn.Layer
module Network = Dpv_nn.Network
module Init = Dpv_nn.Init
module Box_domain = Dpv_absint.Box_domain
module Interval = Dpv_absint.Interval
module Risk = Dpv_spec.Risk
module Linexpr = Dpv_spec.Linexpr
module Mat = Dpv_tensor.Mat
module Vec = Dpv_tensor.Vec
module Rng = Dpv_tensor.Rng

let check_float = Alcotest.(check (float 1e-6))

(* -- the hand-built model -- *)

let perception =
  Network.create ~input_dim:1
    [
      Layer.dense ~weights:(Mat.of_rows [| [| 1.0 |]; [| -1.0 |] |]) ~bias:[| 0.0; 0.0 |];
      Layer.Relu;
      Layer.dense ~weights:(Mat.of_rows [| [| 1.0; -1.0 |] |]) ~bias:[| 0.0 |];
    ]

let cut = 2

(* Characterizer head: logit = y0 - 0.5, i.e. fires iff relu(x) >= 0.5. *)
let head =
  Network.create ~input_dim:2
    [ Layer.dense ~weights:(Mat.of_rows [| [| 1.0; 0.0 |] |]) ~bias:[| -0.5 |] ]

let characterizer = { Characterizer.head; cut; property_name = "x-at-least-half" }

let visited_features =
  (* features of x in [-1, 1] sampled densely *)
  Array.init 41 (fun i ->
      let x = -1.0 +. (float_of_int i /. 20.0) in
      Network.forward_upto perception ~cut [| x |])

let feature_box = Box_domain.of_points visited_features

let risk_ge threshold =
  Risk.make ~name:(Printf.sprintf "out>=%g" threshold) [ Risk.output_ge 0 threshold ]

let risk_le threshold =
  Risk.make ~name:(Printf.sprintf "out<=%g" threshold) [ Risk.output_le 0 threshold ]

(* -- encode -- *)

let test_encode_builds () =
  let suffix = Network.suffix perception ~cut in
  let e = Encode.build ~suffix ~head ~feature_box ~psi:(risk_ge 0.9) () in
  Alcotest.(check int) "feature vars" 2 (Array.length e.Encode.feature_vars);
  Alcotest.(check int) "output vars" 1 (Array.length e.Encode.output_vars);
  Alcotest.(check bool) "some constraints" true (Lp.num_constraints e.Encode.model > 0)

let test_encode_rejects_sigmoid () =
  let bad = Network.create ~input_dim:2 [ Layer.Sigmoid ] in
  Alcotest.check_raises "sigmoid"
    (Invalid_argument "Encode: layer sigmoid is not piecewise-linear; cannot encode")
    (fun () ->
      ignore (Encode.build ~suffix:bad ~head ~feature_box ~psi:(risk_ge 0.0) ()))

let test_encode_rejects_dim_mismatch () =
  let suffix = Network.suffix perception ~cut in
  Alcotest.check_raises "box dim"
    (Invalid_argument "Encode.build_shared: feature box dimension mismatch")
    (fun () ->
      ignore
        (Encode.build ~suffix ~head
           ~feature_box:(Box_domain.uniform ~dim:3 ~lo:0.0 ~hi:1.0)
           ~psi:(risk_ge 0.0) ()))

(* Encoding completeness on concrete points: pinning the feature variables
   to a concrete vector must leave the MILP feasible, with output and
   logit variables matching concrete execution. *)
let encoding_matches_concrete net head_net feature_box x =
  let e =
    Encode.build ~suffix:net ~head:head_net ~feature_box
      ~characterizer_margin:(-1e9) ()
  in
  let model = ref e.Encode.model in
  Array.iteri
    (fun i v ->
      model := Lp.add_constraint !model [ (1.0, e.Encode.feature_vars.(i)) ] Lp.Eq v)
    x;
  match Milp_par.solve ~options:{ Milp.default_options with find_first = true } !model with
  | Milp.Optimal { solution; _ } | Milp.Feasible { solution; _ } ->
      let out_concrete = Network.forward net x in
      let logit_concrete = (Network.forward head_net x).(0) in
      let ok = ref true in
      Array.iteri
        (fun i v ->
          if Float.abs (solution.(v) -. out_concrete.(i)) > 1e-5 then ok := false)
        e.Encode.output_vars;
      if Float.abs (solution.(e.Encode.logit_var) -. logit_concrete) > 1e-5 then
        ok := false;
      !ok
  | Milp.Infeasible | Milp.Unbounded | Milp.Node_limit | Milp.Timeout -> false

let test_encode_complete_on_concrete_points () =
  let suffix = Network.suffix perception ~cut in
  List.iter
    (fun x ->
      Alcotest.(check bool)
        (Printf.sprintf "point (%g, %g)" x.(0) x.(1))
        true
        (encoding_matches_concrete suffix head feature_box x))
    [ [| 0.0; 0.0 |]; [| 1.0; 0.0 |]; [| 0.3; 0.7 |]; [| 0.5; 0.5 |] ]

let qcheck_encoding_complete_random_nets =
  QCheck.Test.make ~count:40
    ~name:"big-M encoding agrees with concrete execution on random nets"
    QCheck.(pair small_int (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (seed, (u, v)) ->
      let rng = Rng.create (seed + 17) in
      let suffix = Init.mlp rng ~input_dim:2 ~hidden:[ 3 ] ~output_dim:2 in
      let head_net = Init.mlp rng ~input_dim:2 ~hidden:[ 2 ] ~output_dim:1 in
      let box = Box_domain.uniform ~dim:2 ~lo:(-1.0) ~hi:1.0 in
      let x = [| (2.0 *. u) -. 1.0; (2.0 *. v) -. 1.0 |] in
      encoding_matches_concrete suffix head_net box x)

(* -- verify on the hand-built model -- *)

let verify_with bounds psi =
  (Verify.verify ~perception ~characterizer ~psi ~bounds ()).Verify.verdict

let feature_bounds = Verify.Feature_box feature_box

let test_verify_unsafe_reachable () =
  (* max out given y0 >= 0.5 over the box is 1.0, so out >= 0.9 is hit *)
  match verify_with feature_bounds (risk_ge 0.9) with
  | Verify.Unsafe { features; output; logit } ->
      Alcotest.(check bool) "witness fires" true (logit >= -1e-6);
      Alcotest.(check bool) "witness reaches psi" true (output.(0) >= 0.9 -. 1e-6);
      Alcotest.(check bool) "witness in box" true
        (Box_domain.contains feature_box features)
  | v -> Alcotest.failf "expected unsafe, got %a" Verify.pp_verdict v

let test_verify_safe_unreachable () =
  (* max out over the box is 1.0 < 1.5 *)
  match verify_with feature_bounds (risk_ge 1.5) with
  | Verify.Safe { conditional } ->
      Alcotest.(check bool) "feature box is unconditional" false conditional
  | v -> Alcotest.failf "expected safe, got %a" Verify.pp_verdict v

let test_verify_characterizer_blocks () =
  (* out <= -0.8 needs y0 - y1 <= -0.8; with y0 >= 0.5 (h fires) and
     y1 <= 1 the minimum is -0.5: safe BECAUSE of the characterizer. *)
  (match verify_with feature_bounds (risk_le (-0.8)) with
  | Verify.Safe _ -> ()
  | v -> Alcotest.failf "expected safe, got %a" Verify.pp_verdict v);
  (* without the characterizer the same psi is reachable (y0=0, y1=1) *)
  match
    (Verify.verify_without_characterizer ~perception ~cut ~psi:(risk_le (-0.8))
       ~bounds:feature_bounds ())
      .Verify.verdict
  with
  | Verify.Unsafe _ -> ()
  | v -> Alcotest.failf "expected unsafe without phi, got %a" Verify.pp_verdict v

let test_verify_octagon_tighter_than_box () =
  (* out <= -0.2: box S~ admits (0.5, 1.0) -> unsafe; the octagon adds
     y0 + y1 <= 1 so the minimum becomes 0 -> safe. *)
  (match verify_with (Verify.Data_box visited_features) (risk_le (-0.2)) with
  | Verify.Unsafe _ -> ()
  | v -> Alcotest.failf "expected unsafe with box, got %a" Verify.pp_verdict v);
  match verify_with (Verify.Data_octagon visited_features) (risk_le (-0.2)) with
  | Verify.Safe { conditional } ->
      Alcotest.(check bool) "data bounds are conditional" true conditional
  | v -> Alcotest.failf "expected safe with octagon, got %a" Verify.pp_verdict v

let test_verify_static_bounds () =
  (* Lemma 2 with the input box [-1,1]: feature box becomes [0,1]^2
     soundly via interval propagation; out >= 1.5 is still safe. *)
  let bounds = Verify.Static_bounds (Dpv_absint.Propagate.Box, [| Interval.make ~lo:(-1.0) ~hi:1.0 |]) in
  match verify_with bounds (risk_ge 1.5) with
  | Verify.Safe { conditional } ->
      Alcotest.(check bool) "static is unconditional" false conditional
  | v -> Alcotest.failf "expected safe, got %a" Verify.pp_verdict v

let test_verify_margin () =
  (* Requiring logit >= 0.6 forces y0 >= 1.1, outside the box: the
     characterizer can never fire that confidently, so any psi is safe. *)
  match
    (Verify.verify ~characterizer_margin:0.6 ~perception ~characterizer
       ~psi:(risk_ge 0.0) ~bounds:feature_bounds ())
      .Verify.verdict
  with
  | Verify.Safe _ -> ()
  | v -> Alcotest.failf "expected safe, got %a" Verify.pp_verdict v

let test_optimize_output () =
  match
    Verify.optimize_output ~perception ~characterizer
      ~objective:(Linexpr.output 0) ~sense:`Maximize ~bounds:feature_bounds ()
  with
  | Ok opt ->
      check_float "max out given h fires" 1.0 opt.Verify.value;
      Alcotest.(check bool) "witness logit fires" true (opt.Verify.opt_logit >= -1e-6)
  | Error e -> Alcotest.failf "optimize failed: %s" e

let test_optimize_minimize () =
  match
    Verify.optimize_output ~perception ~characterizer
      ~objective:(Linexpr.output 0) ~sense:`Minimize ~bounds:feature_bounds ()
  with
  | Ok opt -> check_float "min out given h fires" (-0.5) opt.Verify.value
  | Error e -> Alcotest.failf "optimize failed: %s" e

let test_incomplete_proves_unreachable () =
  (* out = y0 - y1 over [0,1]^2 is [-1,1]: 1.5 is disprovable by bounds. *)
  let r =
    Verify.verify_incomplete ~perception ~characterizer ~psi:(risk_ge 1.5)
      ~bounds:feature_bounds ()
  in
  (match r.Verify.verdict with
  | Verify.Safe _ -> ()
  | v -> Alcotest.failf "expected safe, got %a" Verify.pp_verdict v);
  Alcotest.(check int) "no milp nodes" 0
    r.Verify.milp_stats.Dpv_linprog.Milp.nodes_explored

let test_incomplete_cannot_use_characterizer () =
  (* out <= -0.8 is reachable in the box (0,1) but only OUTSIDE the
     h-fires region; the MILP proves it, bound propagation cannot. *)
  (match
     (Verify.verify_incomplete ~perception ~characterizer ~psi:(risk_le (-0.8))
        ~bounds:feature_bounds ())
       .Verify.verdict
   with
  | Verify.Unknown _ -> ()
  | v -> Alcotest.failf "expected unknown, got %a" Verify.pp_verdict v);
  match verify_with feature_bounds (risk_le (-0.8)) with
  | Verify.Safe _ -> ()
  | v -> Alcotest.failf "milp should prove it, got %a" Verify.pp_verdict v

let test_incomplete_mute_characterizer () =
  (* max logit over the box is 0.5 < margin 0.6: phi can never fire, any
     psi is vacuously safe. *)
  match
    (Verify.verify_incomplete ~characterizer_margin:0.6 ~perception
       ~characterizer ~psi:(risk_ge 0.0) ~bounds:feature_bounds ())
      .Verify.verdict
  with
  | Verify.Safe _ -> ()
  | v -> Alcotest.failf "expected safe, got %a" Verify.pp_verdict v

let qcheck_incomplete_safe_implies_milp_safe =
  QCheck.Test.make ~count:30
    ~name:"incomplete Safe implies complete Safe (soundness alignment)"
    QCheck.(pair small_int (float_range (-3.0) 3.0))
    (fun (seed, threshold) ->
      let rng = Rng.create (seed + 601) in
      let p = Init.mlp rng ~input_dim:2 ~hidden:[ 3 ] ~output_dim:1 in
      let h = Init.mlp rng ~input_dim:3 ~hidden:[ 2 ] ~output_dim:1 in
      let chr = { Characterizer.head = h; cut = 2; property_name = "rand" } in
      let bounds =
        Verify.Feature_box (Box_domain.uniform ~dim:3 ~lo:0.0 ~hi:1.0)
      in
      let psi = risk_ge threshold in
      match
        (Verify.verify_incomplete ~perception:p ~characterizer:chr ~psi ~bounds ())
          .Verify.verdict
      with
      | Verify.Unknown _ | Verify.Unsafe _ -> true
      | Verify.Safe _ -> (
          match
            (Verify.verify ~perception:p ~characterizer:chr ~psi ~bounds ())
              .Verify.verdict
          with
          | Verify.Safe _ -> true
          | Verify.Unsafe _ | Verify.Unknown _ -> false))

let test_milp_node_limit_reported () =
  let options = { Milp.default_options with max_nodes = 0 } in
  let result =
    Verify.verify ~milp_options:options ~perception ~characterizer
      ~psi:(risk_ge 0.9) ~bounds:feature_bounds ()
  in
  match result.Verify.verdict with
  | Verify.Unknown _ -> ()
  | v -> Alcotest.failf "expected unknown at node limit, got %a" Verify.pp_verdict v

let test_verify_tighten_shares_budget () =
  (* One deadline must cover OBBT *and* the MILP: a [time_limit_s] of
     [T] may not burn ~2T (tightening exhausting its own T, then the
     search getting a fresh T).  The suffix below is large enough that
     untruncated OBBT alone (2 LPs per feature coordinate on a dense
     relaxation) far exceeds the budget. *)
  let rng = Rng.create 424242 in
  let p = Init.mlp rng ~input_dim:6 ~hidden:[ 24; 24; 24 ] ~output_dim:2 in
  let h = Init.mlp rng ~input_dim:24 ~hidden:[ 12 ] ~output_dim:1 in
  let chr = { Characterizer.head = h; cut = 2; property_name = "big" } in
  let bounds =
    Verify.Feature_box (Box_domain.uniform ~dim:24 ~lo:(-1.0) ~hi:1.0)
  in
  let options =
    { Verify.default_milp_options with Milp.time_limit_s = Some 1.0 }
  in
  let started = Dpv_linprog.Clock.now_s () in
  let r =
    Verify.verify ~milp_options:options ~tighten:true ~perception:p
      ~characterizer:chr ~psi:(risk_ge 1e6) ~bounds ()
  in
  let elapsed = Dpv_linprog.Clock.now_s () -. started in
  (* 1.1x the budget plus slack for the straddling LP / encoding work. *)
  Alcotest.(check bool)
    (Printf.sprintf "tighten + solve fit one budget (took %.2fs)" elapsed)
    true (elapsed < 1.8);
  match r.Verify.verdict with
  | Verify.Safe _ | Verify.Unknown _ -> ()
  | Verify.Unsafe _ -> Alcotest.fail "out >= 1e6 cannot be reachable"

(* -- characterizer training -- *)

let test_characterizer_trains_separable () =
  (* Features are 1-d; label is [x >= 0].  Trivially separable: the
     trained head must hit 100% and flag perfect_on_train. *)
  let rng = Rng.create 71 in
  let features = Array.init 60 (fun _ -> [| Rng.uniform rng ~lo:(-1.0) ~hi:1.0 |]) in
  let labels = Array.map (fun f -> if f.(0) >= 0.0 then 1.0 else 0.0) features in
  let c, report =
    Characterizer.train_on_features ~rng ~cut:0 ~property_name:"sign"
      ~features ~labels ()
  in
  Alcotest.(check bool) "perfect" true report.Characterizer.perfect_on_train;
  Alcotest.(check bool) "decides a clear positive" true (Characterizer.decide c [| 0.9 |]);
  Alcotest.(check bool) "rejects a clear negative" false (Characterizer.decide c [| -0.9 |])

let test_characterizer_coin_flip_on_noise () =
  (* Labels independent of features: accuracy must stay well below 1 on
     held-out data (the information-bottleneck behaviour). *)
  let rng = Rng.create 72 in
  let features = Array.init 120 (fun _ -> [| Rng.gaussian rng |]) in
  let labels = Array.init 120 (fun i -> if i mod 2 = 0 then 1.0 else 0.0) in
  let config = { Characterizer.default_train_config with epochs = 60 } in
  let c, _ =
    Characterizer.train_on_features ~config ~rng ~cut:0 ~property_name:"noise"
      ~features:(Array.sub features 0 60)
      ~labels:(Array.sub labels 0 60) ()
  in
  let correct = ref 0 in
  for i = 60 to 119 do
    let p = if Characterizer.decide c features.(i) then 1.0 else 0.0 in
    if p = labels.(i) then incr correct
  done;
  let acc = float_of_int !correct /. 60.0 in
  Alcotest.(check bool) "near coin flip" true (acc < 0.75)

let test_characterizer_early_stop () =
  let rng = Rng.create 73 in
  let features = Array.init 40 (fun i -> [| float_of_int (i mod 2) |]) in
  let labels = Array.map (fun f -> f.(0)) features in
  let config = { Characterizer.default_train_config with epochs = 500 } in
  let _, report =
    Characterizer.train_on_features ~config ~rng ~cut:0 ~property_name:"sep"
      ~features ~labels ()
  in
  Alcotest.(check bool) "stopped well before the budget" true
    (report.Characterizer.epochs_run < 500)

let test_characterizer_accuracy_api () =
  let acc =
    Characterizer.accuracy characterizer ~perception
      ~images:[| [| 0.9 |]; [| 0.1 |]; [| -0.9 |] |]
      ~labels:[| 1.0; 0.0; 0.0 |]
  in
  check_float "all correct" 1.0 acc

(* -- statistical tables -- *)

let test_statistical_cells () =
  (* characterizer fires iff x >= 0.5; ground truth phi iff x >= 0.25.
     On the 4 points below: alpha (fires & phi) = x=0.75; beta = none;
     gamma (quiet & phi) = x=0.3; delta = x=0, x=-0.5. *)
  let images = [| [| 0.75 |]; [| 0.3 |]; [| 0.0 |]; [| -0.5 |] |] in
  let ground_truth = [| 1.0; 1.0; 0.0; 0.0 |] in
  let t = Statistical.estimate ~characterizer ~perception ~images ~ground_truth in
  check_float "alpha" 0.25 t.Statistical.alpha;
  check_float "beta" 0.0 t.Statistical.beta;
  check_float "gamma" 0.25 t.Statistical.gamma;
  check_float "delta" 0.5 t.Statistical.delta;
  check_float "guarantee" 0.75 (Statistical.guarantee t)

let test_statistical_cells_sum_to_one () =
  let rng = Rng.create 74 in
  let images = Array.init 50 (fun _ -> [| Rng.uniform rng ~lo:(-1.0) ~hi:1.0 |]) in
  let ground_truth = Array.map (fun x -> if x.(0) >= 0.25 then 1.0 else 0.0) images in
  let t = Statistical.estimate ~characterizer ~perception ~images ~ground_truth in
  check_float "sum" 1.0
    (t.Statistical.alpha +. t.Statistical.beta +. t.Statistical.gamma
   +. t.Statistical.delta)

let test_omitted_unsafe_count () =
  (* gamma cell is x = 0.3 (phi holds, h quiet).  psi := out >= 0.25 holds
     there (out = x), so the footnote-4 side condition counts 1. *)
  let images = [| [| 0.75 |]; [| 0.3 |]; [| 0.0 |] |] in
  let ground_truth = [| 1.0; 1.0; 0.0 |] in
  let n =
    Statistical.omitted_unsafe_count ~characterizer ~perception
      ~psi:(risk_ge 0.25) ~images ~ground_truth
  in
  Alcotest.(check int) "one omitted unsafe point" 1 n;
  let n2 =
    Statistical.omitted_unsafe_count ~characterizer ~perception
      ~psi:(risk_ge 10.0) ~images ~ground_truth
  in
  Alcotest.(check int) "none for unreachable psi" 0 n2

let test_gamma_confidence_contains_estimate () =
  let images = Array.init 40 (fun i -> [| float_of_int i /. 40.0 |]) in
  let ground_truth = Array.map (fun x -> if x.(0) >= 0.25 then 1.0 else 0.0) images in
  let t = Statistical.estimate ~characterizer ~perception ~images ~ground_truth in
  let lo, hi = Statistical.gamma_confidence t ~z:1.96 in
  Alcotest.(check bool) "interval brackets gamma" true
    (lo <= t.Statistical.gamma && t.Statistical.gamma <= hi)

(* -- workflow smoke test (small but end-to-end real) -- *)

let tiny_setup =
  {
    Workflow.default_setup with
    seed = 3;
    hidden = [ 8; 4 ];
    cut = 6;
    train_size = 120;
    val_size = 40;
    perception_epochs = 6;
    characterizer_samples = 80;
    bounds_samples = 80;
    scenario =
      {
        Dpv_scenario.Generator.default_config with
        camera =
          { Dpv_scenario.Camera.default_config with width = 8; height = 6 };
      };
  }

let test_workflow_end_to_end () =
  let prepared = Workflow.prepare tiny_setup in
  Alcotest.(check int) "bounds features at cut dim" 4
    (Vec.dim prepared.Workflow.bounds_features.(0));
  let case =
    Workflow.run_case prepared ~property:Dpv_scenario.Oracle.bends_right
      ~psi:(Workflow.psi_steer_far_left ~threshold:30.0 ())
      ~strategy:Workflow.Data_box
  in
  (* An absurd threshold must be provable even on a tiny model. *)
  (match case.Workflow.result.Verify.verdict with
  | Verify.Safe { conditional } -> Alcotest.(check bool) "conditional" true conditional
  | v -> Alcotest.failf "expected safe at threshold 30, got %a" Verify.pp_verdict v);
  check_float "table sums to 1" 1.0
    (case.Workflow.table.Statistical.alpha +. case.Workflow.table.Statistical.beta
   +. case.Workflow.table.Statistical.gamma +. case.Workflow.table.Statistical.delta)

let test_workflow_cut_options () =
  Alcotest.(check (list int)) "cuts for 2 hidden blocks" [ 6; 3 ]
    (Workflow.cut_options tiny_setup)

let test_workflow_cnn_setup () =
  let setup = Workflow.cnn_setup ~channels:[ 2 ] ~hidden:[ 6 ] tiny_setup in
  (* layout: C R D B R D -> relus at 2 and 5 *)
  Alcotest.(check (list int)) "cnn cuts" [ 5; 2 ] (Workflow.cut_options setup);
  Alcotest.(check int) "default cut is deepest" 5 setup.Workflow.cut

let test_workflow_cnn_end_to_end () =
  let setup = Workflow.cnn_setup ~channels:[ 2 ] ~hidden:[ 6 ] tiny_setup in
  let prepared = Workflow.prepare setup in
  Alcotest.(check (list int)) "relu cuts match the trained net"
    (Workflow.cut_options setup)
    (Workflow.relu_cuts prepared.Workflow.perception);
  let case =
    Workflow.run_case prepared ~property:Dpv_scenario.Oracle.bends_right
      ~psi:(Workflow.psi_steer_far_left ~threshold:30.0 ())
      ~strategy:Workflow.Data_box
  in
  match case.Workflow.result.Verify.verdict with
  | Verify.Safe _ -> ()
  | v -> Alcotest.failf "expected safe at threshold 30, got %a" Verify.pp_verdict v

let test_workflow_prepare_cached_roundtrip () =
  let dir = Filename.temp_file "dpvcache" "" in
  Sys.remove dir;
  let p1 = Workflow.prepare_cached ~cache_dir:dir tiny_setup in
  let p2 = Workflow.prepare_cached ~cache_dir:dir tiny_setup in
  (* identical network function out of the cache *)
  let x = p1.Workflow.bounds_images.(0) in
  Alcotest.(check bool) "cached network identical" true
    (Network.forward p1.Workflow.perception x = Network.forward p2.Workflow.perception x);
  check_float "meta roundtrip" p1.Workflow.final_train_loss p2.Workflow.final_train_loss

let fresh_cache_dir () =
  let dir = Filename.temp_file "dpvcache" "" in
  Sys.remove dir;
  dir

(* Everything [prepare] determines, compared bit for bit. *)
let check_same_pipeline msg (expected : Workflow.prepared)
    (got : Workflow.prepared) =
  let bits = Array.map Int64.bits_of_float in
  Alcotest.(check string) (msg ^ ": network")
    (Dpv_nn.Serialize.to_string expected.Workflow.perception)
    (Dpv_nn.Serialize.to_string got.Workflow.perception);
  Alcotest.(check int64) (msg ^ ": final train loss")
    (Int64.bits_of_float expected.Workflow.final_train_loss)
    (Int64.bits_of_float got.Workflow.final_train_loss);
  Alcotest.(check bool) (msg ^ ": val mae") true
    (bits expected.Workflow.val_mae = bits got.Workflow.val_mae);
  Alcotest.(check bool) (msg ^ ": bounds features") true
    (Array.map bits expected.Workflow.bounds_features
    = Array.map bits got.Workflow.bounds_features)

let cache_entry dir ext =
  match
    List.filter
      (fun f -> Filename.check_suffix f ext)
      (Array.to_list (Sys.readdir dir))
  with
  | [ f ] -> Filename.concat dir f
  | files -> Alcotest.failf "expected one %s entry, found %d" ext (List.length files)

let overwrite path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* A torn entry (what a crash mid-write used to leave) is a miss: it is
   retrained, overwritten and then loads whole. *)
let test_prepare_cached_torn_entry () =
  let expected = Workflow.prepare tiny_setup in
  let dir = Filename.concat (fresh_cache_dir ()) "a/b/c" in
  check_same_pipeline "nested cache dir" expected
    (Workflow.prepare_cached ~cache_dir:dir tiny_setup);
  let net = cache_entry dir ".net" in
  Alcotest.(check int) "entry mode" 0o644 (Unix.stat net).Unix.st_perm;
  let ic = open_in_bin net in
  let whole = really_input_string ic (in_channel_length ic) in
  close_in ic;
  overwrite net (String.sub whole 0 (String.length whole / 2));
  check_same_pipeline "truncated .net" expected
    (Workflow.prepare_cached ~cache_dir:dir tiny_setup);
  overwrite (cache_entry dir ".meta") "";
  check_same_pipeline "empty .meta" expected
    (Workflow.prepare_cached ~cache_dir:dir tiny_setup);
  check_same_pipeline "rewritten entry" expected
    (Workflow.prepare_cached ~cache_dir:dir tiny_setup);
  Alcotest.(check int) "no temporary files left" 2
    (Array.length (Sys.readdir dir))

(* The cache key omits the camera height, so two setups that differ only
   in it share one entry; a network for the other image size is a
   miss. *)
let test_prepare_cached_camera_height () =
  let camera = tiny_setup.Workflow.scenario.Dpv_scenario.Generator.camera in
  let tall =
    {
      tiny_setup with
      Workflow.scenario =
        {
          tiny_setup.Workflow.scenario with
          Dpv_scenario.Generator.camera =
            { camera with Dpv_scenario.Camera.height = 12 };
        };
    }
  in
  let dir = fresh_cache_dir () in
  List.iter
    (fun (name, setup) ->
      check_same_pipeline name (Workflow.prepare setup)
        (Workflow.prepare_cached ~cache_dir:dir setup);
      Alcotest.(check int) (name ^ ": one shared entry") 2
        (Array.length (Sys.readdir dir)))
    [ ("height 6", tiny_setup); ("height 12", tall); ("height 6 again", tiny_setup) ]

(* Digest of a network's exact parameter bits; the golden training
   cases in Test_train pin these. *)
let bits_digest floats =
  let b = Buffer.create 4096 in
  List.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) floats;
  Digest.to_hex (Digest.string (Buffer.contents b))

let layer_floats = function
  | Layer.Dense { weights; bias } | Layer.Conv2d { weights; bias; _ } ->
      List.concat_map Array.to_list (Array.to_list (Mat.to_rows weights))
      @ Array.to_list bias
  | Layer.Batch_norm { gamma; beta; mean; var; eps } ->
      List.concat_map Array.to_list [ gamma; beta; mean; var; [| eps |] ]
  | Layer.Relu | Layer.Sigmoid | Layer.Tanh -> []

let net_digest net =
  bits_digest (List.concat_map layer_floats (Network.layers net))

(* Everything [train_characterizer] returns, compared bit for bit. *)
let check_same_characterizer msg (c1, (r1 : Characterizer.train_report), a1)
    (c2, (r2 : Characterizer.train_report), a2) =
  let bits = Int64.bits_of_float in
  Alcotest.(check string) (msg ^ ": head")
    (Dpv_nn.Serialize.to_string c1.Characterizer.head)
    (Dpv_nn.Serialize.to_string c2.Characterizer.head);
  Alcotest.(check (pair int string)) (msg ^ ": cut and property")
    (c1.Characterizer.cut, c1.Characterizer.property_name)
    (c2.Characterizer.cut, c2.Characterizer.property_name);
  Alcotest.(check (list int64)) (msg ^ ": report and accuracy")
    [ bits r1.train_accuracy; bits r1.final_loss; bits a1 ]
    [ bits r2.train_accuracy; bits r2.final_loss; bits a2 ];
  Alcotest.(check (pair int bool)) (msg ^ ": epochs and perfect")
    (r1.epochs_run, r1.perfect_on_train)
    (r2.epochs_run, r2.perfect_on_train)

let characterizer_entries dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> String.starts_with ~prefix:"characterizer-" f)
  |> List.sort compare

let read_whole path = In_channel.with_open_bin path In_channel.input_all

(* A hit returns exactly what training produced on the miss, which is
   the golden head of Test_train, and reads the entry without
   rewriting it. *)
let test_characterizer_cache_hit () =
  let dir = fresh_cache_dir () in
  let prepared = Workflow.prepare_cached ~cache_dir:dir tiny_setup in
  Alcotest.(check (option string)) "cache dir recorded" (Some dir)
    (Option.map (fun c -> c.Workflow.cache_dir) prepared.Workflow.cache);
  let train () =
    Workflow.train_characterizer prepared
      ~property:Dpv_scenario.Oracle.bends_right
  in
  let ((missed, _, _) as miss) = train () in
  let entries = characterizer_entries dir in
  Alcotest.(check int) "one entry, two files" 2 (List.length entries);
  let inodes () =
    List.map (fun f -> (Unix.stat (Filename.concat dir f)).Unix.st_ino) entries
  in
  let written = inodes () in
  let hit = train () in
  check_same_characterizer "hit" miss hit;
  Alcotest.(check (list int)) "entry not rewritten" written (inodes ());
  Alcotest.(check string) "golden head" "c9582c2b3f5f420ad9c6bec5132aae0b"
    (net_digest missed.Characterizer.head);
  check_same_characterizer "reloaded pipeline"
    miss
    (Workflow.train_characterizer
       (Workflow.prepare_cached ~cache_dir:dir tiny_setup)
       ~property:Dpv_scenario.Oracle.bends_right);
  Alcotest.(check int) "two entries, no temporary files" 4
    (Array.length (Sys.readdir dir))

(* Each input that training reads gives a new entry.  A setup that
   differs only in camera height shares the perception entry and, at
   cut 6, the head's input width, yet must not load the other head. *)
let test_characterizer_cache_keys () =
  let dir = fresh_cache_dir () in
  let cached setup = Workflow.prepare_cached ~cache_dir:dir setup in
  let base = cached tiny_setup in
  let bends_right = Dpv_scenario.Oracle.bends_right in
  let camera = tiny_setup.Workflow.scenario.Dpv_scenario.Generator.camera in
  let tall =
    {
      tiny_setup with
      Workflow.scenario =
        {
          tiny_setup.Workflow.scenario with
          Dpv_scenario.Generator.camera =
            { camera with Dpv_scenario.Camera.height = 12 };
        };
    }
  in
  (* The same network under a setup that differs in what draws the
     characterizer's frames. *)
  let redrawn setup = { base with Workflow.setup } in
  let rainy =
    {
      tiny_setup.Workflow.scenario with
      Dpv_scenario.Generator.rain_probability = 0.5;
    }
  in
  let short_config =
    { Characterizer.default_train_config with Characterizer.epochs = 40 }
  in
  let variants =
    [
      ("base", fun () -> Workflow.train_characterizer base ~property:bends_right);
      ( "other cut",
        fun () -> Workflow.train_characterizer ~cut:3 base ~property:bends_right );
      ( "other property",
        fun () ->
          Workflow.train_characterizer base
            ~property:Dpv_scenario.Oracle.bends_left );
      ( "other sample count",
        fun () ->
          Workflow.train_characterizer
            (redrawn { tiny_setup with characterizer_samples = 60 })
            ~property:bends_right );
      ( "other seed",
        fun () ->
          Workflow.train_characterizer
            (redrawn { tiny_setup with seed = 4 })
            ~property:bends_right );
      ( "other scenario",
        fun () ->
          Workflow.train_characterizer
            (redrawn { tiny_setup with scenario = rainy })
            ~property:bends_right );
      ( "other train config",
        fun () ->
          Workflow.train_characterizer ~config:short_config base
            ~property:bends_right );
      ( "other perception network",
        fun () ->
          Workflow.train_characterizer
            (cached { tiny_setup with perception_epochs = 5 })
            ~property:bends_right );
      ( "other camera height",
        fun () -> Workflow.train_characterizer (cached tall) ~property:bends_right
      );
    ]
  in
  List.iteri
    (fun i (name, train) ->
      let trained = train () in
      Alcotest.(check int) (name ^ ": new entry")
        (2 * (i + 1))
        (List.length (characterizer_entries dir));
      check_same_characterizer (name ^ ": hit") trained (train ()))
    variants;
  let tall_head, _, _ =
    Workflow.train_characterizer (cached tall) ~property:bends_right
  in
  Alcotest.(check int) "tall head reads 4 features" 4
    (Network.input_dim tall_head.Characterizer.head);
  check_same_characterizer "tall head is its own"
    (Workflow.train_characterizer (Workflow.prepare tall) ~property:bends_right)
    (Workflow.train_characterizer (cached tall) ~property:bends_right)

(* A torn or unfitting entry is a miss: it is retrained and overwritten
   with the same bytes, mode 0644, and no temporary file stays. *)
let test_characterizer_cache_torn_entry () =
  let dir = fresh_cache_dir () in
  let prepared = Workflow.prepare_cached ~cache_dir:dir tiny_setup in
  let train () =
    Workflow.train_characterizer prepared
      ~property:Dpv_scenario.Oracle.bends_right
  in
  let expected = train () in
  let net, meta =
    match characterizer_entries dir with
    | [ meta; net ] -> (Filename.concat dir net, Filename.concat dir meta)
    | files -> Alcotest.failf "expected one entry, found %d files" (List.length files)
  in
  let whole_net = read_whole net and whole_meta = read_whole meta in
  let wrong_head ~input_dim ~output_dim =
    Dpv_nn.Serialize.to_string
      (Init.mlp (Rng.create 5) ~input_dim ~hidden:[ 16 ] ~output_dim)
  in
  List.iter
    (fun (name, path, contents) ->
      overwrite path contents;
      check_same_characterizer name expected (train ());
      Alcotest.(check string) (name ^ ": .net rewritten") whole_net (read_whole net);
      Alcotest.(check string) (name ^ ": .meta rewritten") whole_meta
        (read_whole meta);
      List.iter
        (fun path ->
          Alcotest.(check int) (name ^ ": entry mode") 0o644
            (Unix.stat path).Unix.st_perm)
        [ net; meta ])
    [
      ("truncated .net", net, String.sub whole_net 0 (String.length whole_net / 2));
      ("empty .meta", meta, "");
      ("wrong input width", net, wrong_head ~input_dim:5 ~output_dim:1);
      ("two outputs", net, wrong_head ~input_dim:4 ~output_dim:2);
    ];
  Alcotest.(check int) "no temporary files left" 4
    (Array.length (Sys.readdir dir))

(* Without a cache directory, training writes nothing, not even under
   the working directory. *)
let test_prepare_writes_nothing () =
  let prepared = Workflow.prepare tiny_setup in
  Alcotest.(check bool) "no cache" true (prepared.Workflow.cache = None);
  let dir = fresh_cache_dir () in
  Sys.mkdir dir 0o755;
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () -> Sys.chdir cwd)
    (fun () ->
      ignore
        (Workflow.run_case prepared ~property:Dpv_scenario.Oracle.bends_right
           ~psi:(Workflow.psi_steer_far_left ~threshold:30.0 ())
           ~strategy:Workflow.Data_box));
  Alcotest.(check (array string)) "nothing written" [||] (Sys.readdir dir)

(* A cache directory that cannot be created costs only the training:
   the pipeline and its head come back as uncached ones do. *)
let test_unwritable_cache () =
  let dir = Filename.concat (Filename.temp_file "dpvcache" "") "cache" in
  let bends_right = Dpv_scenario.Oracle.bends_right in
  let uncached = Workflow.prepare tiny_setup in
  let prepared = Workflow.prepare_cached ~cache_dir:dir tiny_setup in
  check_same_pipeline "unwritable cache" uncached prepared;
  check_same_characterizer "unwritable cache"
    (Workflow.train_characterizer uncached ~property:bends_right)
    (Workflow.train_characterizer prepared ~property:bends_right)

let test_psi_builders () =
  let far_left = Workflow.psi_steer_far_left ~threshold:2.0 () in
  Alcotest.(check bool) "far left holds" true (Risk.holds far_left [| 2.5; 0.0 |]);
  Alcotest.(check bool) "far left fails" false (Risk.holds far_left [| 1.0; 0.0 |]);
  let far_right = Workflow.psi_steer_far_right ~threshold:2.0 () in
  Alcotest.(check bool) "far right holds" true (Risk.holds far_right [| -2.5; 0.0 |]);
  let straight = Workflow.psi_steer_straight ~halfwidth:0.5 () in
  Alcotest.(check bool) "straight holds" true (Risk.holds straight [| 0.2; 0.0 |]);
  Alcotest.(check bool) "straight fails" false (Risk.holds straight [| 0.9; 0.0 |])

let tests =
  [
    Alcotest.test_case "encode builds" `Quick test_encode_builds;
    Alcotest.test_case "encode rejects sigmoid" `Quick test_encode_rejects_sigmoid;
    Alcotest.test_case "encode rejects dim mismatch" `Quick test_encode_rejects_dim_mismatch;
    Alcotest.test_case "encode complete on points" `Quick test_encode_complete_on_concrete_points;
    QCheck_alcotest.to_alcotest qcheck_encoding_complete_random_nets;
    Alcotest.test_case "verify unsafe reachable" `Quick test_verify_unsafe_reachable;
    Alcotest.test_case "verify safe unreachable" `Quick test_verify_safe_unreachable;
    Alcotest.test_case "characterizer blocks violation" `Quick test_verify_characterizer_blocks;
    Alcotest.test_case "octagon tighter than box" `Quick test_verify_octagon_tighter_than_box;
    Alcotest.test_case "static bounds (Lemma 2)" `Quick test_verify_static_bounds;
    Alcotest.test_case "characterizer margin" `Quick test_verify_margin;
    Alcotest.test_case "optimize maximize" `Quick test_optimize_output;
    Alcotest.test_case "optimize minimize" `Quick test_optimize_minimize;
    Alcotest.test_case "node limit -> unknown" `Quick test_milp_node_limit_reported;
    Alcotest.test_case "tighten shares the time budget" `Slow
      test_verify_tighten_shares_budget;
    Alcotest.test_case "incomplete proves unreachable" `Quick test_incomplete_proves_unreachable;
    Alcotest.test_case "incomplete vs characterizer" `Quick test_incomplete_cannot_use_characterizer;
    Alcotest.test_case "incomplete mute characterizer" `Quick test_incomplete_mute_characterizer;
    QCheck_alcotest.to_alcotest qcheck_incomplete_safe_implies_milp_safe;
    Alcotest.test_case "characterizer trains separable" `Quick test_characterizer_trains_separable;
    Alcotest.test_case "characterizer coin flip on noise" `Quick test_characterizer_coin_flip_on_noise;
    Alcotest.test_case "characterizer early stop" `Quick test_characterizer_early_stop;
    Alcotest.test_case "characterizer accuracy api" `Quick test_characterizer_accuracy_api;
    Alcotest.test_case "statistical cells" `Quick test_statistical_cells;
    Alcotest.test_case "statistical cells sum" `Quick test_statistical_cells_sum_to_one;
    Alcotest.test_case "omitted unsafe count" `Quick test_omitted_unsafe_count;
    Alcotest.test_case "gamma confidence" `Quick test_gamma_confidence_contains_estimate;
    Alcotest.test_case "workflow end-to-end" `Slow test_workflow_end_to_end;
    Alcotest.test_case "workflow cut options" `Quick test_workflow_cut_options;
    Alcotest.test_case "workflow cnn setup" `Quick test_workflow_cnn_setup;
    Alcotest.test_case "workflow cnn end-to-end" `Slow test_workflow_cnn_end_to_end;
    Alcotest.test_case "workflow cache roundtrip" `Slow test_workflow_prepare_cached_roundtrip;
    Alcotest.test_case "workflow cache torn entry" `Slow test_prepare_cached_torn_entry;
    Alcotest.test_case "workflow cache camera height" `Slow test_prepare_cached_camera_height;
    Alcotest.test_case "characterizer cache hit" `Slow test_characterizer_cache_hit;
    Alcotest.test_case "characterizer cache keys" `Slow test_characterizer_cache_keys;
    Alcotest.test_case "characterizer cache torn entry" `Slow
      test_characterizer_cache_torn_entry;
    Alcotest.test_case "prepare writes nothing" `Slow test_prepare_writes_nothing;
    Alcotest.test_case "unwritable cache" `Slow test_unwritable_cache;
    Alcotest.test_case "psi builders" `Quick test_psi_builders;
  ]
