(* Benchmark & experiment harness.

   Regenerates every table/figure of the paper (see DESIGN.md section 5
   for the experiment index) and then times the computational kernels
   with Bechamel (one Test.make per experiment).

   Run with: dune exec bench/main.exe
   First run trains the perception network and caches it under _cache/. *)

module Workflow = Dpv_core.Workflow
module Verify = Dpv_core.Verify
module Encode = Dpv_core.Encode
module Characterizer = Dpv_core.Characterizer
module Statistical = Dpv_core.Statistical
module Report = Dpv_core.Report
module Oracle = Dpv_scenario.Oracle
module Generator = Dpv_scenario.Generator
module Camera = Dpv_scenario.Camera
module Scene = Dpv_scenario.Scene
module Road = Dpv_scenario.Road
module Affordance = Dpv_scenario.Affordance
module Network = Dpv_nn.Network
module Init = Dpv_nn.Init
module Layer = Dpv_nn.Layer
module Box_domain = Dpv_absint.Box_domain
module Zonotope = Dpv_absint.Zonotope
module Propagate = Dpv_absint.Propagate
module Interval = Dpv_absint.Interval
module Box_monitor = Dpv_monitor.Box_monitor
module Polyhedron = Dpv_monitor.Polyhedron
module Runtime = Dpv_monitor.Runtime
module Milp = Dpv_linprog.Milp
module Absguide = Dpv_core.Absguide
module Deeppoly = Dpv_absint.Deeppoly
module Campaign = Dpv_core.Campaign
module Tighten = Dpv_core.Tighten
module Refine = Dpv_core.Refine
module Attack = Dpv_core.Attack
module Property = Dpv_spec.Property
module Linexpr = Dpv_spec.Linexpr
module Risk = Dpv_spec.Risk
module Rng = Dpv_tensor.Rng
module Vec = Dpv_tensor.Vec
module Stats = Dpv_tensor.Stats

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let row = Report.table_row

(* ------------------------------------------------------------------ *)
(* FIG1: the workflow picture — visited-value box at the cut layer and
   verification of the gray close-to-output subnetwork only.           *)

let fig1 prepared =
  section "FIG1: workflow on shared close-to-output neurons (Figure 1)";
  let setup = prepared.Workflow.setup in
  let features = prepared.Workflow.bounds_features in
  let box = Box_monitor.to_box (Box_monitor.fit features) in
  Format.printf
    "bounds of the %d shared neurons at layer %d, from visited values@.\
     (the paper's [-0.1, 0.6]-style intervals):@."
    (Array.length box) setup.Workflow.cut;
  Array.iteri
    (fun i (iv : Interval.t) ->
      Format.printf "  n_%d^%d in [%.3f, %.3f]@." (i + 1) setup.Workflow.cut
        iv.Interval.lo iv.Interval.hi)
    box;
  let case =
    Workflow.run_case prepared ~property:Oracle.bends_right
      ~psi:(Workflow.psi_steer_far_left ()) ~strategy:Workflow.Data_octagon
  in
  Format.printf "gray-subnetwork verification: %a@." Verify.pp_verdict
    case.Workflow.result.Verify.verdict;
  Format.printf "(only the suffix from layer %d is analyzed: %s)@."
    setup.Workflow.cut case.Workflow.result.Verify.encoding;
  case

(* ------------------------------------------------------------------ *)
(* TAB1: the 2x2 probability table of Section 3.                       *)

let tab1 prepared =
  section "TAB1: statistical table for the bends-right characterizer (Table 1)";
  let characterizer, report, val_acc =
    Workflow.train_characterizer prepared ~property:Oracle.bends_right
  in
  Format.printf "characterizer: train acc %.3f, val acc %.3f@."
    report.Characterizer.train_accuracy val_acc;
  (* Fresh labelled stream, disjoint from training, for the estimate. *)
  let rng = Rng.create 4242 in
  let pairs =
    Generator.scenes_and_images prepared.Workflow.setup.Workflow.scenario rng
      ~n:800
  in
  let images = Array.map snd pairs in
  let ground_truth =
    Array.map
      (fun (scene, _) -> Dpv_spec.Property.label Oracle.bends_right scene)
      pairs
  in
  let table =
    Statistical.estimate ~characterizer
      ~perception:prepared.Workflow.perception ~images ~ground_truth
  in
  Format.printf "%a@." Statistical.pp table;
  let lo, hi = Statistical.gamma_confidence table ~z:1.96 in
  Format.printf "gamma 95%% Wilson interval: [%.4f, %.4f]@." lo hi;
  (characterizer, table)

(* ------------------------------------------------------------------ *)
(* E1 / E5: strategy comparison — verdicts and bound widths.           *)

let e1_e5 prepared =
  section "E1+E5: far-left-while-bending-right, per bounds strategy (S 5, S 2.2)";
  Format.printf "%s@."
    (row [ "strategy"; "mean width"; "verdict"; "milp nodes"; "time (s)" ]);
  Format.printf "%s@." (Report.rule ());
  let cut = prepared.Workflow.setup.Workflow.cut in
  let features = prepared.Workflow.bounds_features in
  let strategies =
    [
      Workflow.Static Propagate.Box;
      Workflow.Static Propagate.Zonotope;
      Workflow.Static Propagate.Deeppoly;
      Workflow.Data_box;
      Workflow.Data_octagon;
    ]
  in
  let cases =
    List.map
      (fun strategy ->
        let width =
          match strategy with
          | Workflow.Static domain ->
              Box_domain.mean_width
                (Propagate.layer_bounds domain prepared.Workflow.perception
                   ~input_box:(Workflow.image_box prepared) ~cut)
          | Workflow.Data_box ->
              Box_domain.mean_width (Box_monitor.to_box (Box_monitor.fit features))
          | Workflow.Data_octagon ->
              Box_domain.mean_width
                (Polyhedron.bounding_box (Polyhedron.fit_octagon features))
        in
        let case =
          Workflow.run_case prepared ~property:Oracle.bends_right
            ~psi:(Workflow.psi_steer_far_left ()) ~strategy
        in
        let verdict_text =
          let s =
            Format.asprintf "%a" Verify.pp_verdict
              case.Workflow.result.Verify.verdict
          in
          String.sub s 0 (min 15 (String.length s))
        in
        Format.printf "%s@."
          (row
             [
               Workflow.strategy_name strategy;
               Printf.sprintf "%.3f" width;
               verdict_text;
               string_of_int
                 case.Workflow.result.Verify.milp_stats.Milp.nodes_explored;
               Printf.sprintf "%.3f" case.Workflow.result.Verify.wall_time_s;
             ]);
        (strategy, case))
      strategies
  in
  Format.printf
    "@.shape check: static bounds are orders of magnitude wider than@.\
     data bounds, and only the octagon S~ proves the property — the@.\
     paper's assume-guarantee observation.@.";
  cases

(* ------------------------------------------------------------------ *)
(* E2: the unprovable property, plus the provable frontier.            *)

let e2 prepared =
  section "E2: straight-while-bending-right is not provable (S 5)";
  let case =
    Workflow.run_case prepared ~property:Oracle.bends_right
      ~psi:(Workflow.psi_steer_straight ()) ~strategy:Workflow.Data_octagon
  in
  Format.printf "%a@." Report.pp_verdict_line case;
  (match
     Verify.optimize_output ~perception:prepared.Workflow.perception
       ~characterizer:case.Workflow.characterizer
       ~objective:(Linexpr.output Affordance.waypoint_index) ~sense:`Maximize
       ~bounds:(Verify.Data_octagon prepared.Workflow.bounds_features) ()
   with
  | Ok opt ->
      Format.printf
        "provable frontier: max suggested waypoint while phi fires = %.2f m@."
        opt.Verify.value
  | Error reason -> Format.printf "frontier query failed: %s@." reason);
  case

(* ------------------------------------------------------------------ *)
(* E2b: complete (MILP) vs incomplete (bound propagation) verification
   across psi thresholds — where the characterizer-aware MILP wins.     *)

let e2b prepared =
  section "E2b: MILP vs bound-propagation baseline, by far-left threshold";
  let characterizer, _, _ =
    Workflow.train_characterizer prepared ~property:Oracle.bends_right
  in
  let bounds = Verify.Data_octagon prepared.Workflow.bounds_features in
  Format.printf "%s@."
    (row [ "threshold (m)"; "milp verdict"; "milp (s)"; "baseline"; "base (s)" ]);
  Format.printf "%s@." (Report.rule ());
  let verdict_word r =
    match r.Verify.verdict with
    | Verify.Safe _ -> "SAFE"
    | Verify.Unsafe _ -> "unsafe"
    | Verify.Unknown _ -> "unknown"
  in
  let results =
    List.map
      (fun threshold ->
        let psi = Workflow.psi_steer_far_left ~threshold () in
        let complete =
          Verify.verify ~perception:prepared.Workflow.perception ~characterizer
            ~psi ~bounds ()
        in
        let incomplete =
          Verify.verify_incomplete ~perception:prepared.Workflow.perception
            ~characterizer ~psi ~bounds ()
        in
        Format.printf "%s@."
          (row
             [
               Printf.sprintf "%.1f" threshold;
               verdict_word complete;
               Printf.sprintf "%.3f" complete.Verify.wall_time_s;
               verdict_word incomplete;
               Printf.sprintf "%.4f" incomplete.Verify.wall_time_s;
             ]);
        (threshold, complete, incomplete))
      [ 0.5; 1.0; 1.5; 3.0; 6.0; 12.0; 20.0 ]
  in
  Format.printf
    "@.shape check: bound propagation only proves thresholds beyond the@.\
     raw output range; the MILP exploits the characterizer conjunction@.\
     and proves everything beyond the ~1.3 m frontier — at a time cost.@.";
  results

(* ------------------------------------------------------------------ *)
(* E3: characterizer trainability (information bottleneck).            *)

let e3 prepared =
  section "E3: characterizer accuracy by property and cut layer (S 5)";
  let cuts = Workflow.cut_options prepared.Workflow.setup in
  let dims = Network.dims prepared.Workflow.perception in
  Format.printf "%s@."
    (row
       ("property"
       :: List.map (fun c -> Printf.sprintf "cut %d (d=%d)" c dims.(c)) cuts));
  Format.printf "%s@." (Report.rule ());
  let results =
    List.map
      (fun (name, property) ->
        let cells =
          List.map
            (fun cut ->
              let _, report, val_acc =
                Workflow.train_characterizer ~cut prepared ~property
              in
              (cut, report.Characterizer.train_accuracy, val_acc))
            cuts
        in
        Format.printf "%s@."
          (row
             (name
             :: List.map
                  (fun (_, tr, va) -> Printf.sprintf "%.2f/%.2f" tr va)
                  cells));
        (name, cells))
      Oracle.all
  in
  Format.printf
    "@.shape check: road-geometry properties stay learnable; the@.\
     traffic-adjacent property hovers near 0.5 (coin flip), as the@.\
     information-bottleneck argument predicts.@.";
  results

(* ------------------------------------------------------------------ *)
(* E4: scalability — verification cost versus cut depth.               *)

let e4 prepared =
  section "E4: MILP cost versus cut layer (scalability claim, S 1/S 5)";
  Format.printf "%s@."
    (row
       [ "cut layer"; "feature dim"; "binaries"; "milp nodes"; "time (s)" ]);
  Format.printf "%s@." (Report.rule ());
  let dims = Network.dims prepared.Workflow.perception in
  let milp_options =
    (* Deep cuts explode; a node cap keeps the sweep bounded and an
       UNKNOWN verdict there is itself the scalability message. *)
    { Milp.default_options with find_first = true; max_nodes = 20_000 }
  in
  let results =
    List.map
      (fun cut ->
        let case =
          Workflow.run_case ~milp_options ~cut prepared
            ~property:Oracle.bends_right
            ~psi:(Workflow.psi_steer_far_left ()) ~strategy:Workflow.Data_box
        in
        Format.printf "%s@."
          (row
             [
               string_of_int cut;
               string_of_int dims.(cut);
               string_of_int case.Workflow.result.Verify.num_binaries;
               string_of_int
                 case.Workflow.result.Verify.milp_stats.Milp.nodes_explored;
               Printf.sprintf "%.3f" case.Workflow.result.Verify.wall_time_s;
             ]);
        (cut, case))
      (Workflow.cut_options prepared.Workflow.setup)
  in
  Format.printf
    "@.shape check: moving the cut toward the input inflates the feature@.\
     dimension, the binary count and the solve cost — the reason the@.\
     paper analyzes close-to-output layers only.@.";
  results

(* ------------------------------------------------------------------ *)
(* E6: statistical guarantee versus characterizer data size.           *)

let e6 prepared =
  section "E6: statistical guarantee vs characterizer training size (S 3)";
  Format.printf "%s@."
    (row [ "train frames"; "val acc"; "gamma"; "1 - gamma" ]);
  Format.printf "%s@." (Report.rule ());
  let results =
    List.map
      (fun n ->
        let setup =
          { prepared.Workflow.setup with Workflow.characterizer_samples = n }
        in
        let smaller = { prepared with Workflow.setup = setup } in
        let characterizer, _, val_acc =
          Workflow.train_characterizer smaller ~property:Oracle.bends_right
        in
        let rng = Rng.create (9000 + n) in
        let pairs =
          Generator.scenes_and_images setup.Workflow.scenario rng ~n:600
        in
        let table =
          Statistical.estimate ~characterizer
            ~perception:prepared.Workflow.perception
            ~images:(Array.map snd pairs)
            ~ground_truth:
              (Array.map
                 (fun (s, _) -> Dpv_spec.Property.label Oracle.bends_right s)
                 pairs)
        in
        Format.printf "%s@."
          (row
             [
               string_of_int n;
               Printf.sprintf "%.3f" val_acc;
               Printf.sprintf "%.4f" table.Statistical.gamma;
               Printf.sprintf "%.4f" (Statistical.guarantee table);
             ]);
        (n, table))
      [ 50; 100; 200; 400; 800 ]
  in
  Format.printf
    "@.shape check: gamma trends down as labelled data grows; the floor@.\
     is set by irreducibly ambiguous frames (fog hides far curvature),@.\
     which is why Section 3's statistical reading is needed at all.@.";
  results

(* ------------------------------------------------------------------ *)
(* E7: runtime monitor warning rates.                                  *)

let e7 prepared =
  section "E7: assume-guarantee monitor warning rates (S 2.2)";
  let setup = prepared.Workflow.setup in
  let features = prepared.Workflow.bounds_features in
  let shifted =
    {
      setup.Workflow.scenario with
      Generator.rain_probability = 0.7;
      fog_probability = 0.3;
      curvature_range = (-0.045, 0.045);
      camera =
        { setup.Workflow.scenario.Generator.camera with Camera.noise_std = 0.08 };
    }
  in
  Format.printf "%s@."
    (row [ "region"; "stream"; "warn rate"; "worst margin" ]);
  Format.printf "%s@." (Report.rule ());
  let results =
    List.concat_map
      (fun (name, region) ->
        let monitor =
          Runtime.create ~network:prepared.Workflow.perception
            ~cut:setup.Workflow.cut ~region
        in
        List.map
          (fun (stream_name, config, seed) ->
            Runtime.reset monitor;
            let rng = Rng.create seed in
            for _ = 1 to 400 do
              let scene = Generator.sample_scene config rng in
              ignore (Runtime.infer monitor (Generator.render_scene config rng scene))
            done;
            let stats = Runtime.stats monitor in
            Format.printf "%s@."
              (row
                 [
                   name;
                   stream_name;
                   Printf.sprintf "%.4f" stats.Runtime.warning_rate;
                   Printf.sprintf "%.3f" stats.Runtime.worst_margin;
                 ]);
            (name, stream_name, stats))
          [
            ("in-distribution", setup.Workflow.scenario, 51);
            ("shifted", shifted, 52);
          ])
      [
        ("box", Runtime.Box (Box_monitor.fit ~margin:0.02 features));
        ("octagon", Runtime.Poly (Polyhedron.fit_octagon ~margin:0.05 features));
      ]
  in
  Format.printf
    "@.shape check: warnings stay near zero in distribution and rise@.\
     sharply under weather/noise shift.@.";
  results

(* ------------------------------------------------------------------ *)
(* EXT1: OBBT ablation — encoding strength with and without LP-based
   bound tightening (ref [3]-style preprocessing).                      *)

let ext1 prepared =
  section "EXT1: LP bound tightening (OBBT) ablation";
  Format.printf "%s@."
    (row [ "variant"; "binaries"; "milp nodes"; "time (s)"; "verdict" ]);
  Format.printf "%s@." (Report.rule ());
  (* Cut 6 (16 features) leaves enough crossing ReLUs for tightening to
     matter; at the deepest cut the data bounds are already sharp. *)
  let characterizer, _, _ =
    Workflow.train_characterizer ~cut:6 prepared ~property:Oracle.bends_right
  in
  let bounds = Verify.Data_box (Workflow.features_at prepared ~cut:6) in
  let psi = Workflow.psi_steer_far_left () in
  let results =
    List.map
      (fun (name, tighten) ->
        let result =
          Verify.verify ~tighten ~perception:prepared.Workflow.perception
            ~characterizer ~psi ~bounds ()
        in
        let verdict_text =
          let s = Format.asprintf "%a" Verify.pp_verdict result.Verify.verdict in
          String.sub s 0 (min 15 (String.length s))
        in
        Format.printf "%s@."
          (row
             [
               name;
               string_of_int result.Verify.num_binaries;
               string_of_int result.Verify.milp_stats.Milp.nodes_explored;
               Printf.sprintf "%.3f" result.Verify.wall_time_s;
               verdict_text;
             ]);
        (name, result))
      [ ("plain", false); ("obbt", true) ]
  in
  Format.printf
    "@.finding: on this workload the data-derived bounds are already@.\
     tight enough that OBBT buys no binary reductions — the classic@.\
     preprocessing only pays when S is loose (static bounds) or the@.\
     suffix is deep.  The verdict never changes (soundness ablation).@.";
  results

(* ------------------------------------------------------------------ *)
(* EXT2: layer-wise abstraction refinement (future-work section).      *)

let ext2 prepared =
  section "EXT2: incremental abstraction refinement";
  let milp_options =
    { Milp.default_options with find_first = true; max_nodes = 20_000 }
  in
  let run name psi =
    let outcome =
      Refine.run ~milp_options ~max_steps:2 prepared
        ~property:Oracle.bends_right ~psi ~strategy:Workflow.Data_octagon
    in
    Format.printf "%s:@.%a@." name Refine.pp_outcome outcome;
    outcome
  in
  let e1 = run "E1 (far-left)" (Workflow.psi_steer_far_left ()) in
  let e2 = run "E2 (straight)" (Workflow.psi_steer_straight ()) in
  Format.printf
    "@.shape check: the provable property is proved at the coarsest@.\
     level; the unprovable one keeps its witness under refinement.@.";
  (e1, e2)

(* ------------------------------------------------------------------ *)
(* EXT3: adversarial realization of feature-level witnesses (S 5).     *)

let ext3 prepared =
  section "EXT3: adversarial counterexample search (PGD)";
  let characterizer, _, _ =
    Workflow.train_characterizer prepared ~property:Oracle.bends_right
  in
  let rng = Rng.create 1513 in
  let seeds =
    Generator.scenes_and_images prepared.Workflow.setup.Workflow.scenario rng
      ~n:300
    |> Array.to_list
    |> List.filter (fun (scene, _) -> Property.holds Oracle.bends_right scene)
    |> List.map snd
    |> Array.of_list
  in
  let psi = Workflow.psi_steer_straight () in
  let config = { Attack.default_config with steps = 150 } in
  let budget = min 25 (Array.length seeds) in
  let successes = ref 0 and iters = ref 0 in
  for i = 0 to budget - 1 do
    match
      Attack.search ~perception:prepared.Workflow.perception ~characterizer
        ~psi ~config ~seeds:[| seeds.(i) |] ()
    with
    | Some c ->
        incr successes;
        iters := !iters + c.Attack.iterations
    | None -> ()
  done;
  Format.printf "%s@." (row [ "seeds tried"; "successes"; "mean PGD steps" ]);
  Format.printf "%s@." (Report.rule ());
  Format.printf "%s@."
    (row
       [
         string_of_int budget;
         string_of_int !successes;
         (if !successes = 0 then "n/a"
          else Printf.sprintf "%.1f" (float_of_int !iters /. float_of_int !successes));
       ]);
  Format.printf
    "@.shape check: the E2 witness is realizable as concrete images from@.\
     many bends-right seeds — evidence the limitation is in the network,@.\
     as the paper suspected, not an artifact of the abstraction.@.";
  (budget, !successes)

(* ------------------------------------------------------------------ *)
(* EXT4: architecture ablation — the paper's networks are CNNs; compare
   a convolutional perception network against the MLP on accuracy and
   verification cost at their deepest cuts.                             *)

let ext4 mlp_prepared =
  section "EXT4: MLP vs CNN perception architecture";
  let cnn_prepared =
    Workflow.prepare_cached ~cache_dir:"_cache"
      (Workflow.cnn_setup Workflow.default_setup)
  in
  Format.printf "%s@."
    (row
       [ "architecture"; "params"; "wp MAE (m)"; "ori MAE (rad)"; "E1 verdict" ]);
  Format.printf "%s@." (Report.rule ());
  let results =
    List.map
      (fun (name, prepared) ->
        let case =
          Workflow.run_case prepared ~property:Oracle.bends_right
            ~psi:(Workflow.psi_steer_far_left ()) ~strategy:Workflow.Data_octagon
        in
        let verdict_text =
          let s =
            Format.asprintf "%a" Verify.pp_verdict case.Workflow.result.Verify.verdict
          in
          String.sub s 0 (min 15 (String.length s))
        in
        Format.printf "%s@."
          (row
             [
               name;
               string_of_int (Network.num_parameters prepared.Workflow.perception);
               Printf.sprintf "%.3f" prepared.Workflow.val_mae.(0);
               Printf.sprintf "%.4f" prepared.Workflow.val_mae.(1);
               verdict_text;
             ]);
        (name, prepared, case))
      [ ("mlp", mlp_prepared); ("cnn", cnn_prepared) ]
  in
  Format.printf
    "@.shape check: the convolutional network reaches comparable accuracy@.\
     with ~3x fewer parameters, and verification at the deepest cut is@.\
     unaffected by the prefix architecture — the layer abstraction at@.\
     work, exactly as the paper argues for million-neuron networks.@.";
  results

(* ------------------------------------------------------------------ *)
(* EXT5: parallel branch-and-bound — sequential vs work-stealing search
   on the same queries, plus the deadline degradation path.  Also emits
   the machine-readable BENCH_milp.json so later changes can be checked
   against this baseline.                                              *)

module Milp_par = Dpv_linprog.Milp_par
module Clock = Dpv_linprog.Clock

let bench_json_path = "BENCH_milp.json"

(* Subset-sum of even weights against an odd target: every deep LP
   relaxation stays fractional-feasible while no integer point exists,
   so branch-and-bound faces an astronomically large proof tree — the
   deliberately hard instance for the deadline row. *)
let hard_milp n =
  let m = ref (Dpv_linprog.Lp.create ()) in
  let vars =
    Array.init n (fun _ ->
        let model, v = Dpv_linprog.Lp.add_var ~kind:Dpv_linprog.Lp.Binary !m in
        m := model;
        v)
  in
  let terms = Array.to_list (Array.map (fun v -> (2.0, v)) vars) in
  m :=
    Dpv_linprog.Lp.add_constraint !m terms Dpv_linprog.Lp.Eq
      (float_of_int (n + 1));
  !m

let verdict_word r =
  match r.Verify.verdict with
  | Verify.Safe _ -> "SAFE"
  | Verify.Unsafe _ -> "unsafe"
  | Verify.Unknown _ -> "unknown"

let milp_result_word = function
  | Dpv_linprog.Milp.Optimal _ -> "optimal"
  | Dpv_linprog.Milp.Feasible _ -> "feasible"
  | Dpv_linprog.Milp.Infeasible -> "infeasible"
  | Dpv_linprog.Milp.Unbounded -> "unbounded"
  | Dpv_linprog.Milp.Node_limit -> "node-limit"
  | Dpv_linprog.Milp.Timeout -> "timeout"

(* One measured MILP query for the JSON baseline — either a full
   verification query or a synthetic smoke instance. *)
type bench_query = {
  bq_name : string;
  bq_workers : int;
  bq_verdict : string;
  bq_wall : float;
  bq_stats : Milp.stats;
}

let warm_rate (s : Milp.stats) =
  let total = s.Milp.warm_starts + s.Milp.cold_starts in
  if total = 0 then 0.0
  else float_of_int s.Milp.warm_starts /. float_of_int total

(* Pure-LP microbench: one deterministic sparse bounded LP, timed three
   ways — fresh revised-engine solves, fresh dense-reference solves, and
   persistent-handle re-solves after a bound flip (the branch-and-bound
   inner loop).  The warm:cold ratio is the headline number of this PR. *)
type lp_micro = {
  mb_vars : int;
  mb_rows : int;
  mb_reps : int;
  mb_cold_s : float;
  mb_dense_s : float;
  mb_warm_s : float;
}

let micro_lp ~vars ~rows =
  let rng = Rng.create 4242 in
  let m = ref (Dpv_linprog.Lp.create ()) in
  let vs =
    Array.init vars (fun _ ->
        let model, v =
          Dpv_linprog.Lp.add_var ~lo:0.0
            ~up:(Rng.uniform rng ~lo:1.0 ~hi:10.0)
            !m
        in
        m := model;
        v)
  in
  for _ = 1 to rows do
    (* ~4 variables per row: the sparsity of a big-M ReLU encoding. *)
    let terms =
      List.init 4 (fun _ ->
          (Rng.uniform rng ~lo:(-2.0) ~hi:3.0, Rng.pick rng vs))
    in
    m :=
      Dpv_linprog.Lp.add_constraint !m terms Dpv_linprog.Lp.Le
        (Rng.uniform rng ~lo:1.0 ~hi:10.0)
  done;
  let obj =
    Array.to_list
      (Array.map (fun v -> (Rng.uniform rng ~lo:(-1.0) ~hi:1.0, v)) vs)
  in
  m := Dpv_linprog.Lp.set_objective !m Dpv_linprog.Lp.Maximize obj;
  (!m, vs.(0))

let lp_microbench ~reps () =
  let vars = 80 and rows = 60 in
  let model, flip_var = micro_lp ~vars ~rows in
  let time f =
    let started = Clock.now_s () in
    f ();
    Clock.now_s () -. started
  in
  let cold_s =
    time (fun () ->
        for _ = 1 to reps do
          ignore (Dpv_linprog.Simplex.solve model)
        done)
  in
  let dense_s =
    time (fun () ->
        for _ = 1 to reps do
          ignore (Dpv_linprog.Simplex.solve_dense model)
        done)
  in
  let handle = Dpv_linprog.Simplex.create model in
  ignore (Dpv_linprog.Simplex.resolve handle);
  let lo0, up0 = Dpv_linprog.Lp.var_bounds model flip_var in
  let halved = Option.map (fun u -> u /. 2.0) up0 in
  let warm_s =
    time (fun () ->
        for i = 1 to reps do
          let up = if i mod 2 = 0 then up0 else halved in
          ignore
            (Dpv_linprog.Simplex.resolve
               ~bound_changes:[ (flip_var, lo0, up) ]
               handle)
        done)
  in
  Format.printf
    "lp-microbench (%d vars, %d rows, %d reps): cold %.1fms, dense %.1fms, \
     warm re-solve %.1fms (%.1fx vs cold)@."
    vars rows reps (1e3 *. cold_s) (1e3 *. dense_s) (1e3 *. warm_s)
    (cold_s /. Float.max 1e-9 warm_s);
  {
    mb_vars = vars;
    mb_rows = rows;
    mb_reps = reps;
    mb_cold_s = cold_s;
    mb_dense_s = dense_s;
    mb_warm_s = warm_s;
  }

let knapsack_milp n =
  let rng = Rng.create 99 in
  let m = ref (Dpv_linprog.Lp.create ()) in
  let vars =
    Array.init n (fun _ ->
        let model, v = Dpv_linprog.Lp.add_var ~kind:Dpv_linprog.Lp.Binary !m in
        m := model;
        v)
  in
  let weights = Array.map (fun _ -> Rng.uniform rng ~lo:1.0 ~hi:9.0) vars in
  let values = Array.map (fun _ -> Rng.uniform rng ~lo:1.0 ~hi:9.0) vars in
  let terms f = Array.to_list (Array.mapi (fun i v -> (f.(i), v)) vars) in
  m :=
    Dpv_linprog.Lp.add_constraint !m (terms weights) Dpv_linprog.Lp.Le
      (0.4 *. Array.fold_left ( +. ) 0.0 weights);
  Dpv_linprog.Lp.set_objective !m Dpv_linprog.Lp.Maximize (terms values)

(* Fault-injection overhead: the same knapsack instance solved clean,
   with an injected pivot corruption (caught by the post-solve residual
   check and rescued in-engine by the dense fallback), and with injected
   numerical trouble that escapes the engine (re-solved via the
   query-level dense-retry rung).  The deltas are the price of each
   recovery layer. *)
type fault_bench = {
  fb_clean_s : float;
  fb_fallback_s : float;
  fb_fallbacks : int;   (** in-engine dense rescues during the solve *)
  fb_retry_s : float;   (** wall including the failed attempt *)
  fb_retries : int;     (** query-level dense re-solves (0 or 1) *)
}

let fault_injection_bench () =
  let module Faults = Dpv_linprog.Faults in
  let model = knapsack_milp 16 in
  let options = { Milp.default_options with workers = 1 } in
  let timed f =
    let started = Clock.now_s () in
    let r = f () in
    (r, Clock.now_s () -. started)
  in
  let (_, clean_stats), clean_s =
    timed (fun () -> Milp_par.solve_with_stats ~options model)
  in
  ignore clean_stats;
  let (_, fb_stats), fallback_s =
    Fun.protect ~finally:Faults.disable (fun () ->
        Faults.configure ~seed:7 [ (Faults.Pivot_corrupt, 1) ];
        timed (fun () -> Milp_par.solve_with_stats ~options model))
  in
  let retries = ref 0 in
  let (_, _), retry_s =
    Fun.protect ~finally:Faults.disable (fun () ->
        Faults.configure ~seed:7 [ (Faults.Lp_trouble, 1) ];
        timed (fun () ->
            try Milp_par.solve_with_stats ~options model
            with Dpv_linprog.Simplex.Numerical_trouble _ ->
              incr retries;
              Milp_par.solve_with_stats
                ~options:{ options with Milp.lp_dense = true }
                model))
  in
  let fb =
    {
      fb_clean_s = clean_s;
      fb_fallback_s = fallback_s;
      fb_fallbacks = fb_stats.Milp.fallbacks;
      fb_retry_s = retry_s;
      fb_retries = !retries;
    }
  in
  Format.printf
    "fault-injection (knapsack:16): clean %.1fms, engine fallback %.1fms \
     (%d fallbacks), dense retry %.1fms (%d retries)@."
    (1e3 *. fb.fb_clean_s) (1e3 *. fb.fb_fallback_s) fb.fb_fallbacks
    (1e3 *. fb.fb_retry_s) fb.fb_retries;
  fb

(* EXT8: abstraction-guided branch-and-bound.  Deterministic synthetic
   Dense/ReLU suffixes (no trained network, so smoke mode runs the same
   rows as the full bench): each feasibility query is solved by the
   plain sequential solver and by the DeepPoly-guided one, and the
   explored-node counts are compared.  The guide only discharges
   provably-dead subtrees, so the verdicts must agree exactly — the
   bench fails hard if they ever diverge. *)

type absint_row = {
  ab_name : string;
  ab_verdict : string;
  ab_nodes_plain : int;
  ab_nodes_guided : int;
  ab_nodes_width : int;  (* guided, with Bound_width branching *)
  ab_phase_fixes : int;
  ab_prunes : int;
}

(* Random Dense/ReLU stack: dims = [input; hidden...; output]. *)
let ext8_random_stack ~seed dims =
  let rng = Rng.create seed in
  let dense ~inp ~out =
    Layer.dense
      ~weights:
        (Dpv_tensor.Mat.of_rows
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
  | _ -> invalid_arg "ext8_random_stack"

(* A characterizer head whose logit is constant 1: the phi-side
   constraint is inert, so the query is purely "can the suffix output
   reach psi over the box". *)
let ext8_inert_head dim =
  Network.create ~input_dim:dim
    [
      Layer.dense
        ~weights:(Dpv_tensor.Mat.create ~rows:1 ~cols:dim 0.0)
        ~bias:[| 1.0 |];
    ]

let ext8_sampled_max suffix ~dim =
  let rng = Rng.create 4242 in
  let box = Box_domain.uniform ~dim ~lo:(-1.0) ~hi:1.0 in
  let best = ref neg_infinity in
  for _ = 1 to 2000 do
    let y = Network.forward suffix (Box_domain.sample rng box) in
    if y.(0) > !best then best := y.(0)
  done;
  !best

(* One EXT8 row: [blend] places the psi threshold between the sampled
   concrete maximum (blend = 0) and the DeepPoly output upper bound
   (blend = 1).  Thresholds past the DeepPoly bound are root-prunable
   by the guide but still force the plain solver to branch (its big-M
   LP relaxation uses the looser box bounds). *)
let ext8_row ~name ~seed ~dims ~blend =
  let suffix = ext8_random_stack ~seed dims in
  let dim = List.hd dims in
  let feature_box = Box_domain.uniform ~dim ~lo:(-1.0) ~hi:1.0 in
  let dp_hi =
    (Propagate.output_bounds Propagate.Deeppoly suffix ~input_box:feature_box).(0)
      .Interval.hi
  in
  let sampled = ext8_sampled_max suffix ~dim in
  let threshold = sampled +. (blend *. (dp_hi -. sampled)) in
  let psi = Risk.make ~name [ Risk.output_ge 0 threshold ] in
  let head = ext8_inert_head dim in
  let shared = Encode.build_shared ~suffix ~feature_box () in
  let solve ~absint ~branch_rule =
    let milp_options =
      { Verify.default_milp_options with Milp.workers = 1; branch_rule }
    in
    Verify.run_query ~milp_options ~absint ~characterizer_margin:0.0 ~shared
      ~head ~psi ~conditional:false ()
  in
  let word r =
    match r.Verify.verdict with
    | Verify.Safe _ -> "safe"
    | Verify.Unsafe _ -> "unsafe"
    | Verify.Unknown _ -> "unknown"
  in
  let plain = solve ~absint:false ~branch_rule:Milp.Most_fractional in
  let guided = solve ~absint:true ~branch_rule:Milp.Most_fractional in
  let width = solve ~absint:true ~branch_rule:Milp.Bound_width in
  if word plain <> word guided || word plain <> word width then
    failwith
      (Printf.sprintf
         "EXT8 %s: guided verdict diverged (plain %s, guided %s, width %s)"
         name (word plain) (word guided) (word width));
  {
    ab_name = name;
    ab_verdict = word plain;
    ab_nodes_plain = plain.Verify.milp_stats.Milp.nodes_explored;
    ab_nodes_guided = guided.Verify.milp_stats.Milp.nodes_explored;
    ab_nodes_width = width.Verify.milp_stats.Milp.nodes_explored;
    ab_phase_fixes = guided.Verify.milp_stats.Milp.absint_phase_fixes;
    ab_prunes = guided.Verify.milp_stats.Milp.absint_prunes;
  }

let ext8_absint_bench () =
  section "EXT8: abstraction-guided search (absint on/off node counts)";
  let rows =
    [
      (* Safe rows: threshold above the reachable set but below the
         DeepPoly root bound, so both solvers must search; the guided
         one prunes subtrees as phase fixings tighten bounds. *)
      ext8_row ~name:"ext8/relu18-hard-safe" ~seed:7 ~dims:[ 5; 10; 8; 1 ]
        ~blend:0.2;
      ext8_row ~name:"ext8/relu18-mid-safe" ~seed:1 ~dims:[ 5; 10; 8; 1 ]
        ~blend:0.2;
      ext8_row ~name:"ext8/relu18-easy-safe" ~seed:4 ~dims:[ 5; 10; 8; 1 ]
        ~blend:0.6;
      (* Threshold past the DeepPoly bound: the guide discharges the
         root outright while the box-relaxation LP still branches. *)
      ext8_row ~name:"ext8/relu18-boxgap" ~seed:1 ~dims:[ 5; 10; 8; 1 ]
        ~blend:1.05;
      (* A reachable threshold: both sides find a witness. *)
      ext8_row ~name:"ext8/relu18-unsafe" ~seed:5 ~dims:[ 5; 10; 8; 1 ]
        ~blend:(-0.2);
    ]
  in
  Format.printf "%s@."
    (row
       [
         "query"; "verdict"; "nodes plain"; "nodes guided"; "nodes width";
         "fixes"; "prunes";
       ]);
  Format.printf "%s@." (Report.rule ());
  List.iter
    (fun r ->
      Format.printf "%s@."
        (row
           [
             r.ab_name;
             r.ab_verdict;
             string_of_int r.ab_nodes_plain;
             string_of_int r.ab_nodes_guided;
             string_of_int r.ab_nodes_width;
             string_of_int r.ab_phase_fixes;
             string_of_int r.ab_prunes;
           ]))
    rows;
  (match
     List.filter
       (fun r -> r.ab_verdict = "safe" && r.ab_nodes_guided >= r.ab_nodes_plain)
       rows
   with
  | [] -> ()
  | worse ->
      List.iter
        (fun r ->
          Format.printf
            "WARNING %s: guided search explored %d nodes vs %d plain@."
            r.ab_name r.ab_nodes_guided r.ab_nodes_plain)
        worse);
  rows

(* EXT9: incremental prefix-cached guide vs from-scratch re-propagation.
   Same synthetic stacks as EXT8.  Both modes run the identical engine —
   scratch just forces every consult to invalidate back to layer 1 — so
   the verdicts, node counts, prunes and phase fixes must be
   bit-identical; the bench fails hard on any divergence.  What changes
   is the work per consult, measured directly by wrapping each guide
   instance in a monotonic timer. *)

type ext9_row = {
  e9_name : string;
  e9_verdict : string;
  e9_nodes : int;
  e9_consults : int;
  e9_prunes : int;
  e9_fixes : int;
  e9_scratch_ns : int;  (* mean guide time per consult, from-scratch *)
  e9_incr_ns : int;     (* mean guide time per consult, incremental *)
  e9_layers_scratch : int;
  e9_layers_incr : int;
  e9_speedup : float;
}

let ext9_guided_solve ~scratch ~suffix ~head ~feature_box ~psi =
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
  let guide_ns = ref 0 and consults = ref 0 in
  let timed =
    {
      Milp.new_guide =
        (fun () ->
          let g = factory.Milp.new_guide () in
          fun node ->
            let t0 = Clock.monotonic_ns () in
            let r = g node in
            guide_ns := !guide_ns + (Clock.monotonic_ns () - t0);
            incr consults;
            r);
      guide_stats = factory.Milp.guide_stats;
    }
  in
  let options =
    {
      Verify.default_milp_options with
      Milp.workers = 1;
      absint = Some timed;
      branch_rule = Milp.Guide_order;
    }
  in
  Fun.protect
    ~finally:(fun () -> Absguide.set_scratch false)
    (fun () ->
      Absguide.set_scratch scratch;
      let result, stats = Milp_par.solve_with_stats ~options encoding.Encode.model in
      (result, stats, !guide_ns, !consults))

let ext9_word = function
  | Milp.Infeasible -> "safe"
  | Milp.Optimal _ | Milp.Feasible _ -> "unsafe"
  | _ -> "unknown"

let ext9_row ~name ~seed ~dims ~blend =
  let suffix = ext8_random_stack ~seed dims in
  let dim = List.hd dims in
  let feature_box = Box_domain.uniform ~dim ~lo:(-1.0) ~hi:1.0 in
  let dp_hi =
    (Propagate.output_bounds Propagate.Deeppoly suffix ~input_box:feature_box).(0)
      .Interval.hi
  in
  let sampled = ext8_sampled_max suffix ~dim in
  let threshold = sampled +. (blend *. (dp_hi -. sampled)) in
  let psi = Risk.make ~name [ Risk.output_ge 0 threshold ] in
  let head = ext8_inert_head dim in
  (* Best of three, with scratch and incremental samples interleaved:
     the node sequence is deterministic per mode, so the minimum total
     guide time is the least-noisy sample, and alternating modes keeps
     host-load drift from landing entirely on one side of the ratio.
     Compact before each pair so heap layout from earlier bench
     sections does not leak into the comparison. *)
  let best_s = ref None and best_i = ref None in
  for _ = 1 to 3 do
    Gc.compact ();
    List.iter
      (fun scratch ->
        let sample =
          ext9_guided_solve ~scratch ~suffix ~head ~feature_box ~psi
        in
        let _, _, ns, _ = sample in
        let best = if scratch then best_s else best_i in
        match !best with
        | Some (_, _, bns, _) when bns <= ns -> ()
        | _ -> best := Some sample)
      [ true; false ]
  done;
  let s_res, s_stats, s_ns, s_consults = Option.get !best_s in
  let i_res, i_stats, i_ns, i_consults = Option.get !best_i in
  if
    ext9_word s_res <> ext9_word i_res
    || s_stats.Milp.nodes_explored <> i_stats.Milp.nodes_explored
    || s_stats.Milp.absint_prunes <> i_stats.Milp.absint_prunes
    || s_stats.Milp.absint_phase_fixes <> i_stats.Milp.absint_phase_fixes
    || s_consults <> i_consults
  then
    failwith
      (Printf.sprintf
         "EXT9 %s: incremental diverged from scratch (%s/%d nodes vs %s/%d)"
         name (ext9_word s_res) s_stats.Milp.nodes_explored (ext9_word i_res)
         i_stats.Milp.nodes_explored);
  let per total n = if n = 0 then 0 else total / n in
  {
    e9_name = name;
    e9_verdict = ext9_word i_res;
    e9_nodes = i_stats.Milp.nodes_explored;
    e9_consults = i_consults;
    e9_prunes = i_stats.Milp.absint_prunes;
    e9_fixes = i_stats.Milp.absint_phase_fixes;
    e9_scratch_ns = per s_ns s_consults;
    e9_incr_ns = per i_ns i_consults;
    e9_layers_scratch = s_stats.Milp.absint_layers_propagated;
    e9_layers_incr = i_stats.Milp.absint_layers_propagated;
    e9_speedup =
      (if i_ns = 0 then 0.0 else float_of_int s_ns /. float_of_int i_ns);
  }

let ext9_incremental_bench () =
  section "EXT9: incremental guide (prefix-cached DeepPoly vs from-scratch)";
  let rows =
    [
      ext9_row ~name:"ext9/relu18-safe" ~seed:7 ~dims:[ 5; 10; 8; 1 ]
        ~blend:0.2;
      ext9_row ~name:"ext9/relu64-hard-safe" ~seed:13
        ~dims:[ 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 1 ]
        ~blend:0.05;
      ext9_row ~name:"ext9/relu64-mid-safe" ~seed:19
        ~dims:[ 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 1 ]
        ~blend:0.05;
      ext9_row ~name:"ext9/relu64-unsafe" ~seed:23
        ~dims:[ 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 4; 1 ]
        ~blend:0.05;
    ]
  in
  Format.printf "%s@."
    (row
       [
         "query"; "verdict"; "nodes"; "consults"; "scratch ns"; "incr ns";
         "layers s/i"; "speedup";
       ]);
  Format.printf "%s@." (Report.rule ());
  List.iter
    (fun r ->
      Format.printf "%s@."
        (row
           [
             r.e9_name;
             r.e9_verdict;
             string_of_int r.e9_nodes;
             string_of_int r.e9_consults;
             string_of_int r.e9_scratch_ns;
             string_of_int r.e9_incr_ns;
             Printf.sprintf "%d/%d" r.e9_layers_scratch r.e9_layers_incr;
             Printf.sprintf "%.2fx" r.e9_speedup;
           ]))
    rows;
  (match
     List.find_opt (fun r -> r.e9_name = "ext9/relu64-hard-safe") rows
   with
  | Some r when r.e9_speedup < 3.0 ->
      Format.printf
        "WARNING %s: guide time per node only improved %.2fx (target 3x); \
         noisy host?@."
        r.e9_name r.e9_speedup
  | _ -> ());
  rows

(* Resumable-engine microbench: one 16-relu stack, measuring the raw
   re-propagation cost after an invalidation [depth] relu layers above
   the output — the per-node work a B&B consult pays when a sibling
   switch rolls the prefix cache back that far.  Also samples minor-heap
   words per propagate: the steady-state transfer loop is supposed to
   allocate nothing. *)

type absint_micro_depth = { amd_depth : int; amd_ns : int; amd_layers : int }

type absint_micro = {
  am_relus : int;
  am_scratch_ns : int;
  am_scratch_layers : int;
  am_minor_words : float;
  am_depths : absint_micro_depth list;
}

let absint_microbench () =
  section "absint microbench (Resumable re-propagation, 16-relu stack)";
  let relus = 16 and width = 4 in
  let dims = (width :: List.init relus (fun _ -> width)) @ [ 1 ] in
  let net = ext8_random_stack ~seed:11 dims in
  let plan = Deeppoly.Resumable.plan net in
  let n = Deeppoly.Resumable.num_layers plan in
  let box = Box_domain.uniform ~dim:width ~lo:(-1.0) ~hi:1.0 in
  let st = Deeppoly.Resumable.create plan box in
  let phase_arrays =
    Array.init (n + 1) (fun l ->
        if l >= 1 && Deeppoly.Resumable.is_relu plan l then
          Array.make (Deeppoly.Resumable.layer_dim plan l) Deeppoly.Unknown
        else [||])
  in
  let phases l = phase_arrays.(l) in
  ignore (Deeppoly.Resumable.propagate st ~phases);
  let relu_layers =
    List.filter
      (fun l -> Deeppoly.Resumable.is_relu plan l)
      (List.init n (fun i -> i + 1))
  in
  let measure from_layer =
    let iters = 2000 in
    for _ = 1 to 100 do
      Deeppoly.Resumable.invalidate_from st from_layer;
      ignore (Deeppoly.Resumable.propagate st ~phases)
    done;
    Deeppoly.Resumable.invalidate_from st from_layer;
    let layers = Deeppoly.Resumable.propagate st ~phases in
    let w0 = Gc.minor_words () in
    let t0 = Clock.monotonic_ns () in
    for _ = 1 to iters do
      Deeppoly.Resumable.invalidate_from st from_layer;
      ignore (Deeppoly.Resumable.propagate st ~phases)
    done;
    let ns = (Clock.monotonic_ns () - t0) / iters in
    let words = (Gc.minor_words () -. w0) /. float_of_int iters in
    (ns, layers, words)
  in
  let scratch_ns, scratch_layers, scratch_words = measure 1 in
  let depths =
    List.map
      (fun d ->
        let from_layer =
          List.nth relu_layers (List.length relu_layers - d)
        in
        let ns, layers, _ = measure from_layer in
        { amd_depth = d; amd_ns = ns; amd_layers = layers })
      [ 1; 4; 16 ]
  in
  Format.printf "%s@." (row [ "invalidation"; "layers"; "ns/propagate" ]);
  Format.printf "%s@." (Report.rule ());
  Format.printf "%s@."
    (row
       [
         "scratch"; string_of_int scratch_layers; string_of_int scratch_ns;
       ]);
  List.iter
    (fun d ->
      Format.printf "%s@."
        (row
           [
             Printf.sprintf "depth %d" d.amd_depth;
             string_of_int d.amd_layers;
             string_of_int d.amd_ns;
           ]))
    depths;
  Format.printf "minor words per propagate (steady state): %.2f@."
    scratch_words;
  {
    am_relus = relus;
    am_scratch_ns = scratch_ns;
    am_scratch_layers = scratch_layers;
    am_minor_words = scratch_words;
    am_depths = depths;
  }

let write_bench_json ~mode ~par_workers ~degraded ~queries ~speedups
    ~deadline:(deadline_s, deadline_word, deadline_wall, deadline_nodes)
    ~micro ~faults ~absint_rows ~ext9_rows ~absint_micro =
  let oc = open_out bench_json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let query_json q =
        let s = q.bq_stats in
        Printf.sprintf
          "    {\"name\": %S, \"workers\": %d, \"verdict\": %S, \
           \"wall_s\": %.6f, \"nodes\": %d, \"lps\": %d, \"steals\": %d, \
           \"max_queue_depth\": %d, \"lp_time_s\": %.6f, \"pivots\": %d, \
           \"warm_starts\": %d, \"cold_starts\": %d, \
           \"warm_start_hit_rate\": %.4f}"
          q.bq_name q.bq_workers q.bq_verdict q.bq_wall s.Milp.nodes_explored
          s.Milp.lp_solved s.Milp.steals s.Milp.max_queue_depth s.Milp.lp_time_s
          s.Milp.pivots s.Milp.warm_starts s.Milp.cold_starts (warm_rate s)
      in
      let speedup_json (name, factor) =
        Printf.sprintf "    {\"query\": %S, \"factor\": %.4f}" name factor
      in
      let absint_json r =
        Printf.sprintf
          "    {\"name\": %S, \"verdict\": %S, \"nodes_plain\": %d, \
           \"nodes_guided\": %d, \"nodes_guided_width\": %d, \
           \"phase_fixes\": %d, \"prunes\": %d}"
          r.ab_name r.ab_verdict r.ab_nodes_plain r.ab_nodes_guided
          r.ab_nodes_width r.ab_phase_fixes r.ab_prunes
      in
      let ext9_json r =
        Printf.sprintf
          "    {\"name\": %S, \"verdict\": %S, \"nodes\": %d, \
           \"consults\": %d, \"prunes\": %d, \"phase_fixes\": %d, \
           \"guide_ns_scratch\": %d, \"guide_ns_incremental\": %d, \
           \"layers_scratch\": %d, \"layers_incremental\": %d, \
           \"guide_speedup\": %.2f}"
          r.e9_name r.e9_verdict r.e9_nodes r.e9_consults r.e9_prunes
          r.e9_fixes r.e9_scratch_ns r.e9_incr_ns r.e9_layers_scratch
          r.e9_layers_incr r.e9_speedup
      in
      let micro_depth_json d =
        Printf.sprintf "{\"depth\": %d, \"ns\": %d, \"layers\": %d}"
          d.amd_depth d.amd_ns d.amd_layers
      in
      Printf.fprintf oc
        "{\n\
        \  \"schema\": \"dpv-bench-milp/7\",\n\
        \  \"mode\": %S,\n\
        \  \"host_recommended_domains\": %d,\n\
        \  \"parallel_workers\": %d,\n\
        \  \"task_batch\": %d,\n\
        \  \"degraded\": %b,\n\
        \  \"queries\": [\n%s\n  ],\n\
        \  \"speedups\": [\n%s\n  ],\n\
        \  \"deadline\": {\"time_limit_s\": %.3f, \"result\": %S, \
         \"wall_s\": %.6f, \"nodes\": %d},\n\
        \  \"lp_microbench\": {\"vars\": %d, \"rows\": %d, \"reps\": %d, \
         \"cold_solve_s\": %.6f, \"dense_solve_s\": %.6f, \
         \"warm_resolve_s\": %.6f},\n\
        \  \"fault_injection\": {\"clean_wall_s\": %.6f, \
         \"fallback_wall_s\": %.6f, \"fallbacks\": %d, \
         \"retry_wall_s\": %.6f, \"retries\": %d},\n\
        \  \"absint\": [\n%s\n  ],\n\
        \  \"absint_incremental\": [\n%s\n  ],\n\
        \  \"absint_microbench\": {\"relus\": %d, \"scratch_ns\": %d, \
         \"scratch_layers\": %d, \"minor_words_per_propagate\": %.2f, \
         \"depths\": [%s]},\n\
        \  \"metrics\": %s\n\
         }\n"
        mode
        (Domain.recommended_domain_count ())
        par_workers Milp.default_options.Milp.task_batch degraded
        (String.concat ",\n" (List.map query_json queries))
        (String.concat ",\n" (List.map speedup_json speedups))
        deadline_s deadline_word deadline_wall deadline_nodes micro.mb_vars
        micro.mb_rows micro.mb_reps micro.mb_cold_s micro.mb_dense_s
        micro.mb_warm_s faults.fb_clean_s faults.fb_fallback_s
        faults.fb_fallbacks faults.fb_retry_s faults.fb_retries
        (String.concat ",\n" (List.map absint_json absint_rows))
        (String.concat ",\n" (List.map ext9_json ext9_rows))
        absint_micro.am_relus absint_micro.am_scratch_ns
        absint_micro.am_scratch_layers absint_micro.am_minor_words
        (String.concat ", " (List.map micro_depth_json absint_micro.am_depths))
        (Dpv_obs.Metrics.to_json ~indent:"  " (Dpv_obs.Metrics.snapshot ())));
  Format.printf "@.baseline written to %s@." bench_json_path

(* Speedup of the parallel rows over the sequential rows, per query. *)
let compute_speedups queries =
  let names =
    List.sort_uniq compare (List.map (fun q -> q.bq_name) queries)
  in
  List.filter_map
    (fun name ->
      let find w =
        List.find_opt (fun q -> q.bq_name = name && q.bq_workers = w) queries
      in
      let par =
        List.find_opt (fun q -> q.bq_name = name && q.bq_workers > 1) queries
      in
      match (find 1, par) with
      | Some seq, Some par when par.bq_wall > 0.0 ->
          Some (name, seq.bq_wall /. par.bq_wall)
      | _ -> None)
    names

let ext5 prepared =
  section "EXT5: parallel branch-and-bound (work stealing) + deadlines";
  let par_workers = 4 in
  let degraded = Domain.recommended_domain_count () < par_workers in
  Format.printf "host: %d core(s) recommended by the runtime@."
    (Domain.recommended_domain_count ());
  if degraded then
    Format.printf
      "WARNING: host recommends fewer domains (%d) than the %d parallel \
       workers; parallel timings below are oversubscribed and speedups \
       reflect search-order luck, not parallelism.  Re-baseline on a \
       multicore host.@."
      (Domain.recommended_domain_count ())
      par_workers;
  Format.printf "%s@."
    (row
       [ "query"; "workers"; "verdict"; "nodes"; "warm%"; "steals"; "time (s)" ]);
  Format.printf "%s@." (Report.rule ());
  (* Non-trivial verify_without_characterizer queries: cut 3 leaves 32
     features and dozens of crossing ReLUs, so the witness search
     genuinely branches (hundreds of nodes) instead of closing at the
     root — the regime where parallel tree search pays.  *)
  let queries =
    [
      ("no-char/cut3/far-left:6", 3, Workflow.psi_steer_far_left ~threshold:6.0 ());
      ("no-char/cut3/far-left:10", 3, Workflow.psi_steer_far_left ~threshold:10.0 ());
    ]
  in
  let measurements =
    List.concat_map
      (fun (name, cut, psi) ->
        let bounds = Verify.Data_box (Workflow.features_at prepared ~cut) in
        List.map
          (fun workers ->
            let milp_options =
              {
                Milp.default_options with
                find_first = true;
                workers;
              }
            in
            let result =
              Verify.verify_without_characterizer ~milp_options
                ~perception:prepared.Workflow.perception ~cut ~psi ~bounds ()
            in
            let q =
              {
                bq_name = name;
                bq_workers = workers;
                bq_verdict = verdict_word result;
                bq_wall = result.Verify.wall_time_s;
                bq_stats = result.Verify.milp_stats;
              }
            in
            Format.printf "%s@."
              (row
                 [
                   name;
                   string_of_int workers;
                   q.bq_verdict;
                   string_of_int q.bq_stats.Milp.nodes_explored;
                   Printf.sprintf "%.0f" (100.0 *. warm_rate q.bq_stats);
                   string_of_int q.bq_stats.Milp.steals;
                   Printf.sprintf "%.3f" q.bq_wall;
                 ]);
            q)
          [ 1; par_workers ])
      queries
  in
  (* Deadline degradation: a 1-second budget on the hard instance must
     come back Timeout instead of spinning to the node cap. *)
  let deadline_s = 1.0 in
  let hard = hard_milp 30 in
  let hard_options =
    {
      Milp.default_options with
      max_nodes = max_int;
      workers = par_workers;
      time_limit_s = Some deadline_s;
    }
  in
  let hard_started = Clock.now_s () in
  let hard_result, hard_stats =
    Milp_par.solve_with_stats ~options:hard_options hard
  in
  let hard_wall = Clock.now_s () -. hard_started in
  Format.printf "%s@."
    (row
       [
         "hard-subset-sum/1s";
         string_of_int par_workers;
         milp_result_word hard_result;
         string_of_int hard_stats.Milp.nodes_explored;
         Printf.sprintf "%.0f" (100.0 *. warm_rate hard_stats);
         string_of_int hard_stats.Milp.steals;
         Printf.sprintf "%.3f" hard_wall;
       ]);
  let speedups = compute_speedups measurements in
  List.iter
    (fun (name, factor) ->
      Format.printf "speedup %s: %.2fx with %d workers@." name factor
        par_workers)
    speedups;
  let micro = lp_microbench ~reps:50 () in
  let faults = fault_injection_bench () in
  let absint_rows = ext8_absint_bench () in
  let ext9_rows = ext9_incremental_bench () in
  let absint_micro = absint_microbench () in
  write_bench_json ~mode:"full" ~par_workers ~degraded ~queries:measurements
    ~speedups
    ~deadline:
      (deadline_s, milp_result_word hard_result, hard_wall,
       hard_stats.Milp.nodes_explored)
    ~micro ~faults ~absint_rows ~ext9_rows ~absint_micro;
  (measurements, hard_result)

(* Campaign amortization: the four E1-style queries below share two
   (cut, bounds) keys, so the campaign fits each region and encodes each
   suffix once where the one-by-one loop does it four times. *)
let ext6 prepared =
  section "EXT6: verification campaign (shared-encoding cache)";
  let characterizer, _, _ =
    Workflow.train_characterizer prepared ~property:Oracle.bends_right
  in
  let box = Verify.Data_box prepared.Workflow.bounds_features in
  let oct = Verify.Data_octagon prepared.Workflow.bounds_features in
  let q label psi bounds = Campaign.query ~label ~characterizer ~psi ~bounds () in
  let queries =
    [
      q "far-left:2.5/box" (Workflow.psi_steer_far_left ()) box;
      q "far-right:2.5/box" (Workflow.psi_steer_far_right ()) box;
      q "far-left:2.5/oct" (Workflow.psi_steer_far_left ()) oct;
      q "far-right:2.5/oct" (Workflow.psi_steer_far_right ()) oct;
    ]
  in
  (* One-by-one baseline: same solver options, fresh encoding per call. *)
  let seq_started = Clock.now_s () in
  let individual =
    List.map
      (fun (query : Campaign.query) ->
        Verify.verify ~perception:prepared.Workflow.perception ~characterizer
          ~psi:query.Campaign.psi ~bounds:query.Campaign.bounds ())
      queries
  in
  let seq_wall = Clock.now_s () -. seq_started in
  let report =
    Campaign.run ~runners:2 ~perception:prepared.Workflow.perception queries
  in
  Format.printf "%a@." Report.pp_campaign report;
  Format.printf "one-by-one: %.2fs;  campaign (2 runners): %.2fs@." seq_wall
    report.Campaign.total_wall_s;
  List.iter2
    (fun (r : Verify.result) (qr : Campaign.query_report) ->
      let agree =
        match qr.Campaign.outcome with
        | Campaign.Done cr -> (
            match (r.Verify.verdict, cr.Verify.verdict) with
            | Verify.Safe _, Verify.Safe _
            | Verify.Unsafe _, Verify.Unsafe _
            | Verify.Unknown _, Verify.Unknown _ ->
                true
            | _ -> false)
        | Campaign.Crashed _ | Campaign.Skipped _ -> false
      in
      if not agree then
        Format.printf "VERDICT MISMATCH on %s (campaign vs one-by-one)@."
          qr.Campaign.query.Campaign.label)
    individual report.Campaign.query_reports;
  report

(* Sharded campaigns: the same four queries as EXT6 split into a
   2-shard partition, each slice journaled, then merged — the
   in-process version of the `dpv campaign --shard` / `dpv
   merge-journals` workflow, with a verdict-identity check against the
   unsharded run. *)
let ext7 prepared =
  section "EXT7: sharded campaign (2-way partition, journal merge)";
  let characterizer, _, _ =
    Workflow.train_characterizer prepared ~property:Oracle.bends_right
  in
  let box = Verify.Data_box prepared.Workflow.bounds_features in
  let oct = Verify.Data_octagon prepared.Workflow.bounds_features in
  let q label psi bounds = Campaign.query ~label ~characterizer ~psi ~bounds () in
  let queries =
    [
      q "far-left:2.5/box" (Workflow.psi_steer_far_left ()) box;
      q "far-right:2.5/box" (Workflow.psi_steer_far_right ()) box;
      q "far-left:2.5/oct" (Workflow.psi_steer_far_left ()) oct;
      q "far-right:2.5/oct" (Workflow.psi_steer_far_right ()) oct;
    ]
  in
  let whole =
    Campaign.run ~runners:2 ~perception:prepared.Workflow.perception queries
  in
  let with_temp f =
    let path = Filename.temp_file "dpv_bench_shard" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () -> f path)
  in
  Format.printf "%s@." (row [ "slice"; "queries"; "runners"; "time (s)" ]);
  Format.printf "%s@." (Report.rule ());
  with_temp @@ fun path0 ->
  with_temp @@ fun path1 ->
  let run_shard i path =
    let r =
      Campaign.run ~runners:2 ~shard:(i, 2) ~journal:path
        ~perception:prepared.Workflow.perception queries
    in
    Format.printf "%s@."
      (row
         [
           Printf.sprintf "shard %d/2" i;
           string_of_int (List.length r.Campaign.query_reports);
           string_of_int r.Campaign.runners;
           Printf.sprintf "%.3f" r.Campaign.total_wall_s;
         ]);
    r
  in
  let r0 = run_shard 0 path0 and r1 = run_shard 1 path1 in
  let load path =
    match Dpv_core.Journal.load_with_meta ~path with
    | Ok x -> x
    | Error e -> failwith (Printf.sprintf "shard journal unreadable: %s" e)
  in
  let entries, metas = Campaign.merge_journals [ load path0; load path1 ] in
  let merged = Campaign.merge_reports [ r0; r1 ] in
  Format.printf "%s@."
    (row
       [
         "merged";
         string_of_int (List.length entries);
         string_of_int merged.Campaign.runners;
         Printf.sprintf "%.3f" merged.Campaign.total_wall_s;
       ]);
  Format.printf "meta trailers: %d;  merged exit code: %d@." (List.length metas)
    (Campaign.worst_exit_code entries);
  (* Verdict identity against the unsharded run, label by label. *)
  let multiset (r : Campaign.report) =
    List.map
      (fun (qr : Campaign.query_report) ->
        ( qr.Campaign.query.Campaign.label,
          match qr.Campaign.outcome with
          | Campaign.Done res -> Campaign.verdict_word res.Verify.verdict
          | Campaign.Crashed _ -> "crashed"
          | Campaign.Skipped _ -> "skipped" ))
      r.Campaign.query_reports
    |> List.sort compare
  in
  if multiset whole = multiset merged then
    Format.printf "verdict identity: 2-shard merge == unsharded run@."
  else
    Format.printf "VERDICT MISMATCH between the merged partition and the \
                   unsharded run@.";
  (whole, merged)

(* ------------------------------------------------------------------ *)
(* Bechamel timing benches: one Test.make per experiment kernel.       *)

let bechamel_suite prepared =
  let open Bechamel in
  let setup = prepared.Workflow.setup in
  let perception = prepared.Workflow.perception in
  let features = prepared.Workflow.bounds_features in
  let characterizer, _, _ =
    Workflow.train_characterizer prepared ~property:Oracle.bends_right
  in
  let suffix = Network.suffix perception ~cut:setup.Workflow.cut in
  let feature_box = Box_monitor.to_box (Box_monitor.fit features) in
  let poly = Polyhedron.fit_octagon features in
  let psi = Workflow.psi_steer_far_left () in
  let encoding =
    Encode.build ~suffix ~head:characterizer.Characterizer.head ~feature_box
      ~extra_faces:(Polyhedron.halfspaces poly) ~psi ()
  in
  let scene_rng = Rng.create 77 in
  let scene = Generator.sample_scene setup.Workflow.scenario scene_rng in
  let image = Generator.render_scene setup.Workflow.scenario scene_rng scene in
  let image_box = Workflow.image_box prepared in
  let milp_options = { Milp.default_options with find_first = true } in
  Test.make_grouped ~name:"dpv"
    [
      Test.make ~name:"fig1_workflow/box-fit"
        (Staged.stage (fun () -> ignore (Box_monitor.fit features)));
      Test.make ~name:"tab1_statistical/decide-frame"
        (Staged.stage (fun () ->
             ignore
               (Characterizer.decide_image characterizer ~perception image)));
      Test.make ~name:"e1_far_left/milp-solve"
        (Staged.stage (fun () ->
             ignore (Milp_par.solve ~options:milp_options encoding.Encode.model)));
      Test.make ~name:"e2_straight/encode"
        (Staged.stage (fun () ->
             ignore
               (Encode.build ~suffix ~head:characterizer.Characterizer.head
                  ~feature_box ~psi:(Workflow.psi_steer_straight ()) ())));
      Test.make ~name:"e3_bottleneck/feature-extract"
        (Staged.stage (fun () ->
             ignore (Network.forward_upto perception ~cut:setup.Workflow.cut image)));
      Test.make ~name:"e4_scalability/box-propagate-prefix"
        (Staged.stage (fun () ->
             ignore (Box_domain.propagate_all perception image_box)));
      Test.make ~name:"e5_bounds/zonotope-propagate-prefix"
        (Staged.stage (fun () ->
             ignore (Zonotope.propagate_all perception (Zonotope.of_box image_box))));
      Test.make ~name:"e6_guarantee/table-estimate"
        (Staged.stage (fun () ->
             ignore
               (Statistical.estimate ~characterizer ~perception
                  ~images:[| image |] ~ground_truth:[| 1.0 |])));
      Test.make ~name:"e7_monitor/octagon-check"
        (Staged.stage (fun () -> ignore (Polyhedron.contains poly features.(0))));
      Test.make ~name:"ext1_obbt/tighten-box"
        (Staged.stage (fun () ->
             ignore
               (Tighten.feature_box ~suffix
                  ~head:characterizer.Characterizer.head ~feature_box ())));
      Test.make ~name:"ext3_attack/pgd-loss"
        (Staged.stage (fun () ->
             ignore
               (Attack.attack_loss ~perception
                  ~characterizer ~psi:(Workflow.psi_steer_straight ())
                  Attack.default_config image)));
      Test.make ~name:"substrate/render-frame"
        (Staged.stage (fun () ->
             ignore (Generator.render_scene setup.Workflow.scenario scene_rng scene)));
      Test.make ~name:"substrate/forward-full"
        (Staged.stage (fun () -> ignore (Network.forward perception image)));
    ]

let run_bechamel prepared =
  section "Timing benches (Bechamel; one per experiment kernel)";
  let open Bechamel in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (bechamel_suite prepared) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Format.printf "%s@." (row [ "kernel"; "time/run" ]);
  Format.printf "%s@." (Report.rule ());
  let rows = ref [] in
  Hashtbl.iter (fun name ols_result -> rows := (name, ols_result) :: !rows) results;
  List.iter
    (fun (name, ols_result) ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> est
        | Some _ | None -> nan
      in
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Format.printf "%s@." (row [ name; pretty ]))
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* Smoke mode: a network-free bench for CI.  Synthetic MILPs exercise
   the same solver paths as the full EXT5 run (warm-started B&B, work
   stealing, the deadline degradation) and write BENCH_milp.json in
   "smoke" mode, so per-PR perf stays visible without the multi-minute
   training/prepare step. *)

let run_smoke () =
  section "smoke bench (synthetic MILPs, no trained network)";
  let par_workers = 4 in
  let degraded = Domain.recommended_domain_count () < par_workers in
  let instances =
    [
      ("smoke/knapsack:16", knapsack_milp 16);
      ("smoke/subset-sum:14", hard_milp 14);
    ]
  in
  Format.printf "%s@."
    (row [ "instance"; "workers"; "result"; "nodes"; "warm%"; "time (s)" ]);
  Format.printf "%s@." (Report.rule ());
  let measurements =
    List.concat_map
      (fun (name, model) ->
        List.map
          (fun workers ->
            let options = { Milp.default_options with workers } in
            let started = Clock.now_s () in
            let result, stats = Milp_par.solve_with_stats ~options model in
            let wall = Clock.now_s () -. started in
            let q =
              {
                bq_name = name;
                bq_workers = workers;
                bq_verdict = milp_result_word result;
                bq_wall = wall;
                bq_stats = stats;
              }
            in
            Format.printf "%s@."
              (row
                 [
                   name;
                   string_of_int workers;
                   q.bq_verdict;
                   string_of_int stats.Milp.nodes_explored;
                   Printf.sprintf "%.0f" (100.0 *. warm_rate stats);
                   Printf.sprintf "%.3f" wall;
                 ]);
            q)
          [ 1; par_workers ])
      instances
  in
  let deadline_s = 1.0 in
  let hard = hard_milp 24 in
  let hard_options =
    {
      Milp.default_options with
      max_nodes = max_int;
      workers = par_workers;
      time_limit_s = Some deadline_s;
    }
  in
  let hard_started = Clock.now_s () in
  let hard_result, hard_stats =
    Milp_par.solve_with_stats ~options:hard_options hard
  in
  let hard_wall = Clock.now_s () -. hard_started in
  Format.printf "%s@."
    (row
       [
         "smoke/subset-sum:24/1s";
         string_of_int par_workers;
         milp_result_word hard_result;
         string_of_int hard_stats.Milp.nodes_explored;
         Printf.sprintf "%.0f" (100.0 *. warm_rate hard_stats);
         Printf.sprintf "%.3f" hard_wall;
       ]);
  let micro = lp_microbench ~reps:10 () in
  let faults = fault_injection_bench () in
  let absint_rows = ext8_absint_bench () in
  let ext9_rows = ext9_incremental_bench () in
  let absint_micro = absint_microbench () in
  write_bench_json ~mode:"smoke" ~par_workers ~degraded ~queries:measurements
    ~speedups:(compute_speedups measurements)
    ~deadline:
      (deadline_s, milp_result_word hard_result, hard_wall,
       hard_stats.Milp.nodes_explored)
    ~micro ~faults ~absint_rows ~ext9_rows ~absint_micro;
  Format.printf "@.done.@."

(* ------------------------------------------------------------------ *)

let sections : (string * (Workflow.prepared -> unit)) list =
  [
    ("fig1", fun p -> ignore (fig1 p));
    ("tab1", fun p -> ignore (tab1 p));
    ("e1-e5", fun p -> ignore (e1_e5 p));
    ("e2", fun p -> ignore (e2 p));
    ("e2b", fun p -> ignore (e2b p));
    ("e3", fun p -> ignore (e3 p));
    ("e4", fun p -> ignore (e4 p));
    ("e6", fun p -> ignore (e6 p));
    ("e7", fun p -> ignore (e7 p));
    ("ext1", fun p -> ignore (ext1 p));
    ("ext2", fun p -> ignore (ext2 p));
    ("ext3", fun p -> ignore (ext3 p));
    ("ext4", fun p -> ignore (ext4 p));
    ("ext5", fun p -> ignore (ext5 p));
    ("ext6", fun p -> ignore (ext6 p));
    ("ext7", fun p -> ignore (ext7 p));
    ("ext8", fun _ -> ignore (ext8_absint_bench ()));
    ( "ext9",
      fun _ ->
        ignore (ext9_incremental_bench ());
        ignore (absint_microbench ()) );
    ("bechamel", run_bechamel);
  ]

let () =
  Dpv_linprog.Faults.init_from_env ();
  Dpv_obs.Trace.init_from_env ();
  Dpv_core.Absguide.init_from_env ();
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--smoke" args then run_smoke ()
  else begin
    let rec onlys = function
      | "--only" :: name :: rest -> name :: onlys rest
      | _ :: rest -> onlys rest
      | [] -> []
    in
    let selected = onlys args in
    List.iter
      (fun name ->
        if not (List.mem_assoc name sections) then begin
          Printf.eprintf
            "unknown section %S; available: %s (or --smoke)\n" name
            (String.concat ", " (List.map fst sections));
          exit 2
        end)
      selected;
    let enabled name = selected = [] || List.mem name selected in
    Format.printf
      "dpv experiment harness — reproducing Cheng et al., DATE 2020@.";
    let prepared =
      Workflow.prepare_cached ~cache_dir:"_cache" Workflow.default_setup
    in
    Format.printf
      "perception: %d parameters, val MAE %.2f m / %.3f rad (train loss %.3f)@."
      (Network.num_parameters prepared.Workflow.perception)
      prepared.Workflow.val_mae.(0) prepared.Workflow.val_mae.(1)
      prepared.Workflow.final_train_loss;
    List.iter (fun (name, f) -> if enabled name then f prepared) sections;
    Format.printf "@.done.@."
  end
