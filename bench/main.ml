(* Experiment harness.

   Regenerates every table/figure of the paper (see DESIGN.md section 5
   for the experiment index): [--only NAME] runs one section, [--smoke]
   runs the network-free parallel-solver bench that CI's multicore job
   gates on.

   Run with: dune exec bench/main.exe
   First run trains the perception network and caches it under _cache/. *)

module Workflow = Dpv_core.Workflow
module Verify = Dpv_core.Verify
module Characterizer = Dpv_core.Characterizer
module Statistical = Dpv_core.Statistical
module Report = Dpv_core.Report
module Oracle = Dpv_scenario.Oracle
module Generator = Dpv_scenario.Generator
module Camera = Dpv_scenario.Camera
module Affordance = Dpv_scenario.Affordance
module Network = Dpv_nn.Network
module Box_domain = Dpv_absint.Box_domain
module Propagate = Dpv_absint.Propagate
module Interval = Dpv_absint.Interval
module Box_monitor = Dpv_monitor.Box_monitor
module Polyhedron = Dpv_monitor.Polyhedron
module Runtime = Dpv_monitor.Runtime
module Milp = Dpv_linprog.Milp
module Refine = Dpv_core.Refine
module Attack = Dpv_core.Attack
module Property = Dpv_spec.Property
module Linexpr = Dpv_spec.Linexpr
module Rng = Dpv_tensor.Rng

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
(* Smoke mode: a network-free bench for CI's multicore job.  Two
   synthetic MILPs are solved with one and with four workers, and
   BENCH_milp.json records each solve and the parallel speedup per
   instance: the job checks that the verdicts do not depend on the
   worker count and that the parallel search wins on subset-sum:14.
   The one-worker work counts are pinned by the tier-1 test "golden:
   smoke MILP counts", which builds the same two models. *)

module Json = Dpv_obs.Json
module Milp_par = Dpv_linprog.Milp_par
module Clock = Dpv_linprog.Clock
module Lp = Dpv_linprog.Lp

let bench_json_path = "BENCH_milp.json"

(* Subset-sum of even weights against an odd target: every deep LP
   relaxation stays fractional-feasible while no integer point exists,
   so branch-and-bound must exhaust a tree of ~2^n nodes. *)
let hard_milp n =
  let m = ref (Lp.create ()) in
  let vars =
    Array.init n (fun _ ->
        let model, v = Lp.add_var ~kind:Lp.Binary !m in
        m := model;
        v)
  in
  let terms = Array.to_list (Array.map (fun v -> (2.0, v)) vars) in
  m := Lp.add_constraint !m terms Lp.Eq (float_of_int (n + 1));
  !m

let knapsack_milp n =
  let rng = Rng.create 99 in
  let m = ref (Lp.create ()) in
  let vars =
    Array.init n (fun _ ->
        let model, v = Lp.add_var ~kind:Lp.Binary !m in
        m := model;
        v)
  in
  let weights = Array.map (fun _ -> Rng.uniform rng ~lo:1.0 ~hi:9.0) vars in
  let values = Array.map (fun _ -> Rng.uniform rng ~lo:1.0 ~hi:9.0) vars in
  let terms f = Array.to_list (Array.mapi (fun i v -> (f.(i), v)) vars) in
  m :=
    Lp.add_constraint !m (terms weights) Lp.Le
      (0.4 *. Array.fold_left ( +. ) 0.0 weights);
  Lp.set_objective !m Lp.Maximize (terms values)

let milp_result_word = function
  | Milp.Optimal _ -> "optimal"
  | Milp.Feasible _ -> "feasible"
  | Milp.Infeasible -> "infeasible"
  | Milp.Unbounded -> "unbounded"
  | Milp.Node_limit -> "node-limit"
  | Milp.Timeout -> "timeout"

(* One measured solve of a smoke instance. *)
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

let write_bench_json ~par_workers ~degraded ~queries ~speedups =
  let query_json q =
    let s = q.bq_stats in
    Json.Obj
      [
        ("name", Json.Str q.bq_name);
        ("workers", Json.int q.bq_workers);
        ("verdict", Json.Str q.bq_verdict);
        ("wall_s", Json.Num q.bq_wall);
        ("nodes", Json.int s.Milp.nodes_explored);
        ("lps", Json.int s.Milp.lp_solved);
        ("steals", Json.int s.Milp.steals);
        ("max_queue_depth", Json.int s.Milp.max_queue_depth);
        ("lp_time_s", Json.Num s.Milp.lp_time_s);
        ("pivots", Json.int s.Milp.pivots);
        ("warm_starts", Json.int s.Milp.warm_starts);
        ("cold_starts", Json.int s.Milp.cold_starts);
        ("warm_start_hit_rate", Json.Num (warm_rate s));
      ]
  in
  let speedup_json (name, factor) =
    Json.Obj [ ("query", Json.Str name); ("factor", Json.Num factor) ]
  in
  let oc = open_out bench_json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Json.encode ~indent:2
           (Json.Obj
              [
                ("schema", Json.Str "dpv-bench-milp/8");
                ( "host_recommended_domains",
                  Json.int (Domain.recommended_domain_count ()) );
                ("parallel_workers", Json.int par_workers);
                ("degraded", Json.Bool degraded);
                ("queries", Json.Arr (List.map query_json queries));
                ("speedups", Json.Arr (List.map speedup_json speedups));
              ]));
      output_char oc '\n');
  Format.printf "@.written to %s@." bench_json_path

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
  write_bench_json ~par_workers ~degraded ~queries:measurements
    ~speedups:(compute_speedups measurements);
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
  ]

let usage_error message =
  Printf.eprintf "%s; available: %s (or --smoke)\n" message
    (String.concat ", " (List.map fst sections));
  exit 2

(* The sections named by [--only NAME] pairs, in order; any other
   argument is a usage error rather than a silent full run. *)
let rec selected_sections = function
  | [] -> []
  | "--only" :: name :: rest when List.mem_assoc name sections ->
      name :: selected_sections rest
  | [ "--only" ] -> usage_error "--only needs a section name"
  | "--only" :: name :: _ -> usage_error (Printf.sprintf "unknown section %S" name)
  | "--smoke" :: _ -> usage_error "--smoke takes no other argument"
  | arg :: _ -> usage_error (Printf.sprintf "unknown argument %S" arg)

let () =
  Dpv_linprog.Faults.init_from_env ();
  Dpv_obs.Trace.init_from_env ();
  Dpv_core.Absguide.init_from_env ();
  match List.tl (Array.to_list Sys.argv) with
  | [ "--smoke" ] -> run_smoke ()
  | args ->
      let selected = selected_sections args in
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
