(* Tests for the training stack: losses, backprop (checked against finite
   differences), optimizers, datasets and the trainer loop. *)

module Loss = Dpv_train.Loss
module Grad = Dpv_train.Grad
module Optimizer = Dpv_train.Optimizer
module Dataset = Dpv_train.Dataset
module Trainer = Dpv_train.Trainer
module Layer = Dpv_nn.Layer
module Network = Dpv_nn.Network
module Init = Dpv_nn.Init
module Mat = Dpv_tensor.Mat
module Vec = Dpv_tensor.Vec
module Rng = Dpv_tensor.Rng

let check_float = Alcotest.(check (float 1e-9))

(* -- losses -- *)

let test_mse_value () =
  check_float "zero at target" 0.0
    (Loss.value Loss.Mse ~output:[| 1.0; 2.0 |] ~target:[| 1.0; 2.0 |]);
  check_float "half squared distance" 2.5
    (Loss.value Loss.Mse ~output:[| 2.0; 1.0 |] ~target:[| 0.0; 0.0 |])

let test_mse_gradient () =
  let g = Loss.gradient Loss.Mse ~output:[| 3.0 |] ~target:[| 1.0 |] in
  check_float "y - t" 2.0 g.(0)

let test_bce_value () =
  (* logit 0, either label -> log 2 *)
  check_float "logit 0" (log 2.0)
    (Loss.value Loss.Bce_with_logits ~output:[| 0.0 |] ~target:[| 1.0 |]);
  (* confident and correct -> near zero *)
  Alcotest.(check bool) "confident correct" true
    (Loss.value Loss.Bce_with_logits ~output:[| 20.0 |] ~target:[| 1.0 |] < 1e-6);
  (* confident and wrong -> about |logit| *)
  Alcotest.(check bool) "confident wrong" true
    (Float.abs
       (Loss.value Loss.Bce_with_logits ~output:[| -20.0 |] ~target:[| 1.0 |]
       -. 20.0)
    < 1e-6)

let test_bce_stable_at_extremes () =
  let v = Loss.value Loss.Bce_with_logits ~output:[| 1e4 |] ~target:[| 0.0 |] in
  Alcotest.(check bool) "finite at huge logit" true (Float.is_finite v);
  let g = Loss.gradient Loss.Bce_with_logits ~output:[| -1e4 |] ~target:[| 1.0 |] in
  Alcotest.(check bool) "finite gradient" true (Float.is_finite g.(0))

let test_bce_gradient () =
  let g = Loss.gradient Loss.Bce_with_logits ~output:[| 0.0 |] ~target:[| 1.0 |] in
  check_float "sigmoid(0) - 1" (-0.5) g.(0)

(* -- gradient checking: backprop vs central finite differences -- *)

(* Perturb one scalar parameter in place, run f, restore. *)
let with_perturbed get set delta f =
  let orig = get () in
  set (orig +. delta);
  let v = f () in
  set orig;
  v

let loss_of net loss input target () =
  Loss.value loss ~output:(Network.forward net input) ~target

let gradient_check_network net loss ~input ~target ~tol =
  let _, grads = Grad.sample_gradient net loss ~input ~target in
  let eps = 1e-5 in
  let check_scalar name analytic get set =
    let f = loss_of net loss input target in
    let plus = with_perturbed get set eps f in
    let minus = with_perturbed get set (-.eps) f in
    let numeric = (plus -. minus) /. (2.0 *. eps) in
    if Float.abs (numeric -. analytic) > tol *. Float.max 1.0 (Float.abs numeric)
    then
      Alcotest.failf "%s: analytic %g vs numeric %g" name analytic numeric
  in
  List.iteri
    (fun idx layer ->
      match (layer, grads.(idx)) with
      | Layer.Dense { weights; bias }, Grad.Dense_grad { d_weights; d_bias } ->
          for i = 0 to Mat.rows weights - 1 do
            for j = 0 to Mat.cols weights - 1 do
              check_scalar
                (Printf.sprintf "w[%d][%d,%d]" idx i j)
                (Mat.get d_weights i j)
                (fun () -> Mat.get weights i j)
                (fun v -> Mat.set weights i j v)
            done;
            check_scalar
              (Printf.sprintf "b[%d][%d]" idx i)
              d_bias.(i)
              (fun () -> bias.(i))
              (fun v -> bias.(i) <- v)
          done
      | Layer.Batch_norm { gamma; beta; _ }, Grad.Bn_grad { d_gamma; d_beta } ->
          for i = 0 to Vec.dim gamma - 1 do
            check_scalar
              (Printf.sprintf "gamma[%d][%d]" idx i)
              d_gamma.(i)
              (fun () -> gamma.(i))
              (fun v -> gamma.(i) <- v);
            check_scalar
              (Printf.sprintf "beta[%d][%d]" idx i)
              d_beta.(i)
              (fun () -> beta.(i))
              (fun v -> beta.(i) <- v)
          done
      | (Layer.Relu | Layer.Sigmoid | Layer.Tanh), Grad.No_grad -> ()
      | _ -> Alcotest.fail "grad structure mismatch")
    (Network.layers net)

let test_gradcheck_dense_relu () =
  let rng = Rng.create 21 in
  let net = Init.mlp rng ~input_dim:3 ~hidden:[ 4 ] ~output_dim:2 in
  (* Keep inputs away from ReLU kinks so finite differences are valid. *)
  gradient_check_network net Loss.Mse ~input:[| 0.9; -0.4; 0.3 |]
    ~target:[| 0.5; -0.5 |] ~tol:1e-4

let test_gradcheck_tanh () =
  let rng = Rng.create 22 in
  let net =
    Network.create ~input_dim:2
      [ Init.xavier_dense rng ~in_dim:2 ~out_dim:3; Layer.Tanh;
        Init.xavier_dense rng ~in_dim:3 ~out_dim:1 ]
  in
  gradient_check_network net Loss.Mse ~input:[| 0.3; -0.6 |] ~target:[| 0.2 |]
    ~tol:1e-4

let test_gradcheck_sigmoid_bce () =
  let rng = Rng.create 23 in
  let net =
    Network.create ~input_dim:2
      [ Init.xavier_dense rng ~in_dim:2 ~out_dim:3; Layer.Sigmoid;
        Init.xavier_dense rng ~in_dim:3 ~out_dim:1 ]
  in
  gradient_check_network net Loss.Bce_with_logits ~input:[| 0.5; 0.1 |]
    ~target:[| 1.0 |] ~tol:1e-4

let test_gradcheck_batch_norm () =
  let rng = Rng.create 24 in
  let bn =
    Layer.Batch_norm
      {
        gamma = [| 1.3; 0.7; 2.0 |];
        beta = [| 0.1; -0.2; 0.3 |];
        mean = [| 0.5; -0.5; 0.0 |];
        var = [| 1.5; 0.8; 2.0 |];
        eps = 1e-5;
      }
  in
  let net =
    Network.create ~input_dim:2
      [ Init.xavier_dense rng ~in_dim:2 ~out_dim:3; bn;
        Init.xavier_dense rng ~in_dim:3 ~out_dim:1 ]
  in
  gradient_check_network net Loss.Mse ~input:[| 0.8; -0.3 |] ~target:[| 0.0 |]
    ~tol:1e-4

let test_grad_accumulate_scale () =
  let rng = Rng.create 25 in
  let net = Init.mlp rng ~input_dim:2 ~hidden:[ 2 ] ~output_dim:1 in
  let _, g1 = Grad.sample_gradient net Loss.Mse ~input:[| 1.0; 0.5 |] ~target:[| 0.0 |] in
  let total = Grad.zeros net in
  Grad.accumulate ~into:total g1;
  Grad.accumulate ~into:total g1;
  Grad.scale total 0.5;
  (* total should now equal g1 *)
  (match (total.(0), g1.(0)) with
  | Grad.Dense_grad a, Grad.Dense_grad b ->
      Alcotest.(check bool) "accumulate+scale" true
        (Mat.approx_equal a.d_weights b.d_weights
        && Vec.approx_equal a.d_bias b.d_bias)
  | _ -> Alcotest.fail "expected dense grads")

(* -- optimizers -- *)

let single_param_net w0 =
  Network.create ~input_dim:1
    [ Layer.dense ~weights:(Mat.of_rows [| [| w0 |] |]) ~bias:[| 0.0 |] ]

let get_weight net =
  match Network.layer net 1 with
  | Layer.Dense { weights; _ } -> Mat.get weights 0 0
  | _ -> assert false

let test_sgd_step_direction () =
  let net = single_param_net 2.0 in
  let opt = Optimizer.sgd ~lr:0.1 net in
  (* loss = 0.5 (w*1 - 0)^2; dw = w = 2 -> w' = 2 - 0.2 = 1.8 *)
  let _, g = Grad.sample_gradient net Loss.Mse ~input:[| 1.0 |] ~target:[| 0.0 |] in
  Optimizer.step opt net g;
  check_float "sgd update" 1.8 (get_weight net)

(* Drive loss 0.5*(f(1))^2 to zero; the bias trains too, so the
   convergence criterion is the network output, not the raw weight. *)
let converges_to_zero optimizer_of =
  let net = single_param_net 5.0 in
  let opt = optimizer_of net in
  for _ = 1 to 300 do
    let _, g = Grad.sample_gradient net Loss.Mse ~input:[| 1.0 |] ~target:[| 0.0 |] in
    Optimizer.step opt net g
  done;
  Float.abs (Network.forward net [| 1.0 |]).(0) < 0.05

let test_sgd_converges () =
  Alcotest.(check bool) "sgd" true (converges_to_zero (Optimizer.sgd ~lr:0.1))

let test_momentum_converges () =
  Alcotest.(check bool) "momentum" true
    (converges_to_zero (Optimizer.momentum ~lr:0.05 ~mu:0.9))

let test_adam_converges () =
  Alcotest.(check bool) "adam" true (converges_to_zero (Optimizer.adam ~lr:0.1))

let test_set_lr () =
  let net = single_param_net 1.0 in
  let opt = Optimizer.sgd ~lr:0.1 net in
  Optimizer.set_lr opt 0.5;
  check_float "lr updated" 0.5 (Optimizer.lr opt)

(* -- datasets -- *)

let toy_dataset n =
  Dataset.create
    ~inputs:(Array.init n (fun i -> [| float_of_int i |]))
    ~targets:(Array.init n (fun i -> [| float_of_int (i * 2) |]))

let test_dataset_create_checks () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Dataset.create: inputs/targets length mismatch")
    (fun () ->
      ignore (Dataset.create ~inputs:[| [| 1.0 |] |] ~targets:[||]))

let test_dataset_split_sizes () =
  let d = toy_dataset 10 in
  let train, v = Dataset.split (Rng.create 1) d ~train_fraction:0.8 in
  Alcotest.(check int) "train" 8 (Dataset.size train);
  Alcotest.(check int) "val" 2 (Dataset.size v)

let test_dataset_split_partition () =
  let d = toy_dataset 20 in
  let train, v = Dataset.split (Rng.create 2) d ~train_fraction:0.5 in
  let all =
    Array.to_list (Array.map (fun x -> x.(0)) train.Dataset.inputs)
    @ Array.to_list (Array.map (fun x -> x.(0)) v.Dataset.inputs)
  in
  let sorted = List.sort compare all in
  Alcotest.(check (list (float 0.0))) "partition"
    (List.init 20 float_of_int) sorted

let test_dataset_batches_cover () =
  let d = toy_dataset 10 in
  let batches = Dataset.batches d ~batch_size:3 in
  Alcotest.(check int) "count" 4 (Array.length batches);
  let total = Array.fold_left (fun acc b -> acc + Array.length b) 0 batches in
  Alcotest.(check int) "coverage" 10 total;
  Alcotest.(check int) "last short" 1 (Array.length batches.(3))

let test_dataset_of_labelled () =
  let d = Dataset.of_labelled [| ([| 1.0 |], 1.0); ([| 2.0 |], 0.0) |] in
  Alcotest.(check int) "target dim" 1 (Dataset.target_dim d);
  check_float "balance" 0.5 (Dataset.class_balance d)

(* -- trainer -- *)

let test_trainer_fits_linear_function () =
  (* y = 2x - 1 is exactly representable; the loop must find it. *)
  let rng = Rng.create 31 in
  let inputs = Array.init 64 (fun _ -> [| Rng.uniform rng ~lo:(-1.0) ~hi:1.0 |]) in
  let targets = Array.map (fun x -> [| (2.0 *. x.(0)) -. 1.0 |]) inputs in
  let dataset = Dataset.create ~inputs ~targets in
  let net = Init.mlp (Rng.create 32) ~input_dim:1 ~hidden:[] ~output_dim:1 in
  let opt = Optimizer.adam ~lr:0.05 net in
  let config = { Trainer.default_config with epochs = 200; batch_size = 16 } in
  let history = Trainer.fit ~rng config opt net dataset in
  let final = history.Trainer.epoch_losses.(199) in
  Alcotest.(check bool) "converged" true (final < 1e-4)

let test_trainer_loss_decreases () =
  let rng = Rng.create 33 in
  let inputs = Array.init 64 (fun _ -> [| Rng.gaussian rng; Rng.gaussian rng |]) in
  let targets = Array.map (fun x -> [| x.(0) *. x.(1) |]) inputs in
  let dataset = Dataset.create ~inputs ~targets in
  let net = Init.mlp (Rng.create 34) ~input_dim:2 ~hidden:[ 8 ] ~output_dim:1 in
  let opt = Optimizer.adam ~lr:0.01 net in
  let config = { Trainer.default_config with epochs = 50 } in
  let history = Trainer.fit ~rng config opt net dataset in
  Alcotest.(check bool) "first > last" true
    (history.Trainer.epoch_losses.(0) > history.Trainer.epoch_losses.(49))

let test_binary_accuracy () =
  (* Fixed net: logit = x0.  Threshold at 0 classifies sign. *)
  let net = single_param_net 1.0 in
  let dataset =
    Dataset.of_labelled
      [| ([| 1.0 |], 1.0); ([| -1.0 |], 0.0); ([| 2.0 |], 0.0) |]
  in
  check_float "2 of 3" (2.0 /. 3.0) (Trainer.binary_accuracy net dataset)

let test_regression_mae () =
  let net = single_param_net 1.0 in
  let dataset =
    Dataset.create
      ~inputs:[| [| 1.0 |]; [| 2.0 |] |]
      ~targets:[| [| 0.0 |]; [| 0.0 |] |]
  in
  let mae = Trainer.regression_mae net dataset in
  check_float "mean |err|" 1.5 mae.(0)

let test_insert_identity_bn_preserves_function () =
  let rng = Rng.create 35 in
  let net = Init.mlp rng ~input_dim:3 ~hidden:[ 5; 4 ] ~output_dim:2 in
  let inputs = Array.init 50 (fun _ -> Array.init 3 (fun _ -> Rng.gaussian rng)) in
  let net' = Trainer.insert_identity_batch_norm net ~inputs in
  Alcotest.(check int) "two BN layers added"
    (Network.num_layers net + 2) (Network.num_layers net');
  Array.iter
    (fun x ->
      Alcotest.(check bool) "function preserved" true
        (Vec.approx_equal ~tol:1e-6 (Network.forward net x) (Network.forward net' x)))
    inputs

let test_bn_training_updates_stats () =
  let rng = Rng.create 36 in
  let net =
    Network.create ~input_dim:1
      [ Layer.dense ~weights:(Mat.of_rows [| [| 1.0 |] |]) ~bias:[| 0.0 |];
        Layer.batch_norm_identity 1;
        Layer.dense ~weights:(Mat.of_rows [| [| 1.0 |] |]) ~bias:[| 0.0 |] ]
  in
  (* Inputs centered at 10: BN stats must move toward mean 10. *)
  let inputs = Array.init 64 (fun _ -> [| 10.0 +. Rng.gaussian rng |]) in
  let targets = Array.map (fun x -> [| x.(0) |]) inputs in
  let dataset = Dataset.create ~inputs ~targets in
  let opt = Optimizer.sgd ~lr:0.0 net in
  let config = { Trainer.default_config with epochs = 2; bn_momentum = 0.5 } in
  ignore (Trainer.fit ~rng config opt net dataset);
  match Network.layer net 2 with
  | Layer.Batch_norm { mean; _ } ->
      Alcotest.(check bool) "mean tracked" true (Float.abs (mean.(0) -. 10.0) < 1.0)
  | _ -> Alcotest.fail "expected bn"

(* -- golden training results --

   Digests of the exact bits each training path produced before the
   in-place kernels were introduced.  Any change to the operands or the
   order of a float operation in forward, backward, accumulation, the
   batch-norm statistics, the optimizer or the shuffle shows here. *)

let bits_digest = Test_core.bits_digest
let net_digest = Test_core.net_digest

let grad_floats (g : Grad.t) =
  List.concat_map
    (function
      | Grad.Dense_grad { d_weights; d_bias } ->
          List.concat_map Array.to_list (Array.to_list (Mat.to_rows d_weights))
          @ Array.to_list d_bias
      | Grad.Bn_grad { d_gamma; d_beta } ->
          Array.to_list d_gamma @ Array.to_list d_beta
      | Grad.No_grad -> [])
    (Array.to_list g)

let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x)
let check_digest = Alcotest.(check string)

(* Test_core.tiny_setup is the pipeline of doc/campaign_equiv.json (and
   of the served-jobs benchmark workload). *)
let test_golden_characterizer () =
  let prepared = Dpv_core.Workflow.prepare Test_core.tiny_setup in
  let characterizer, report, _ =
    Dpv_core.Workflow.train_characterizer prepared
      ~property:Dpv_scenario.Oracle.bends_right
  in
  check_digest "head parameters" "c9582c2b3f5f420ad9c6bec5132aae0b"
    (net_digest characterizer.Dpv_core.Characterizer.head);
  Alcotest.(check int) "epochs run" 600 report.Dpv_core.Characterizer.epochs_run;
  check_digest "final loss" "3fe278a57df868a2" (bits report.Dpv_core.Characterizer.final_loss);
  check_digest "train accuracy" "3fe6800000000000"
    (bits report.Dpv_core.Characterizer.train_accuracy)

let test_golden_perception () =
  let prepared = Dpv_core.Workflow.prepare (Test_workflow_determinism.tiny 21) in
  check_digest "perception parameters" "d127faaf80ea22d8a19ad5cd475d97ed"
    (net_digest prepared.Dpv_core.Workflow.perception);
  check_digest "final train loss" "40247c5e14753dd8"
    (bits prepared.Dpv_core.Workflow.final_train_loss)

let test_golden_conv_training () =
  let rng = Rng.create 405 in
  let inputs =
    Array.init 80 (fun _ -> Array.init 16 (fun _ -> Rng.float rng 1.0))
  in
  let targets = Array.map (fun x -> [| Vec.mean x |]) inputs in
  let dataset = Dataset.create ~inputs ~targets in
  let net =
    Init.conv_net (Rng.create 406) ~in_height:4 ~in_width:4 ~channels:[ 2 ]
      ~hidden:[ 3 ] ~output_dim:1
  in
  let opt = Optimizer.adam ~lr:0.01 net in
  let config = { Trainer.default_config with epochs = 4; batch_size = 16 } in
  let history = Trainer.fit ~rng config opt net dataset in
  check_digest "conv net parameters" "34e56052142c0db6547590c9d2125713" (net_digest net);
  check_digest "epoch losses" "3934b23b2f929f8460d75d7585708630"
    (bits_digest (Array.to_list history.Trainer.epoch_losses))

let test_golden_bn_input_gradient () =
  let prepared = Dpv_core.Workflow.prepare (Test_workflow_determinism.tiny 21) in
  let net = prepared.Dpv_core.Workflow.perception in
  let image = prepared.Dpv_core.Workflow.bounds_images.(0) in
  let activations = Network.activations net image in
  let d_output =
    Vec.init (Network.output_dim net) (fun i -> 0.5 -. float_of_int i)
  in
  let grads, d_input = Grad.backward net ~activations ~d_output in
  check_digest "parameter gradient" "a21fdf5fbf59fb41dae9205e36510f01" (bits_digest (grad_floats grads));
  check_digest "input gradient" "7274c9e82a65d7501cf6dadaea753d61" (bits_digest (Array.to_list d_input))

(* A steady-state characterizer epoch (one Trainer epoch and the
   accuracy check after it, as Characterizer.train runs them) on a
   Dense/ReLU head allocates a few words per sample, not per-sample
   activation or gradient arrays. *)
let test_training_epoch_allocation () =
  let rng = Rng.create 41 in
  let n = 480 in
  let inputs =
    Array.init n (fun _ -> Array.init 16 (fun _ -> Rng.gaussian rng))
  in
  let targets =
    Array.map (fun x -> [| (if x.(0) +. x.(1) > 0.0 then 1.0 else 0.0) |]) inputs
  in
  let dataset = Dataset.create ~inputs ~targets in
  let head = Init.mlp (Rng.create 42) ~input_dim:16 ~hidden:[ 16 ] ~output_dim:1 in
  let opt = Optimizer.adam ~lr:5e-3 head in
  let config =
    {
      Trainer.default_config with
      epochs = 1;
      batch_size = 32;
      loss = Loss.Bce_with_logits;
    }
  in
  let epoch () =
    ignore (Trainer.fit ~rng config opt head dataset);
    ignore (Trainer.binary_accuracy head dataset)
  in
  epoch ();
  let before = Gc.minor_words () in
  epoch ();
  let per_sample = (Gc.minor_words () -. before) /. float_of_int n in
  if per_sample > 64.0 then
    Alcotest.failf "%.1f minor words per sample (at most 64)" per_sample

let qcheck_gradcheck_random_nets =
  QCheck.Test.make ~count:20 ~name:"gradient check on random tanh nets"
    QCheck.(pair small_int (pair (float_range (-1.0) 1.0) (float_range (-1.0) 1.0)))
    (fun (seed, (x0, x1)) ->
      let rng = Rng.create (seed + 100) in
      let net =
        Network.create ~input_dim:2
          [ Init.xavier_dense rng ~in_dim:2 ~out_dim:3; Layer.Tanh;
            Init.xavier_dense rng ~in_dim:3 ~out_dim:1 ]
      in
      (try
         gradient_check_network net Loss.Mse ~input:[| x0; x1 |]
           ~target:[| 0.3 |] ~tol:1e-3;
         true
       with Failure _ -> false))

let tests =
  [
    Alcotest.test_case "mse value" `Quick test_mse_value;
    Alcotest.test_case "mse gradient" `Quick test_mse_gradient;
    Alcotest.test_case "bce value" `Quick test_bce_value;
    Alcotest.test_case "bce stable at extremes" `Quick test_bce_stable_at_extremes;
    Alcotest.test_case "bce gradient" `Quick test_bce_gradient;
    Alcotest.test_case "gradcheck dense+relu" `Quick test_gradcheck_dense_relu;
    Alcotest.test_case "gradcheck tanh" `Quick test_gradcheck_tanh;
    Alcotest.test_case "gradcheck sigmoid+bce" `Quick test_gradcheck_sigmoid_bce;
    Alcotest.test_case "gradcheck batch norm" `Quick test_gradcheck_batch_norm;
    Alcotest.test_case "grad accumulate/scale" `Quick test_grad_accumulate_scale;
    Alcotest.test_case "sgd step direction" `Quick test_sgd_step_direction;
    Alcotest.test_case "sgd converges" `Quick test_sgd_converges;
    Alcotest.test_case "momentum converges" `Quick test_momentum_converges;
    Alcotest.test_case "adam converges" `Quick test_adam_converges;
    Alcotest.test_case "set lr" `Quick test_set_lr;
    Alcotest.test_case "dataset create checks" `Quick test_dataset_create_checks;
    Alcotest.test_case "dataset split sizes" `Quick test_dataset_split_sizes;
    Alcotest.test_case "dataset split partition" `Quick test_dataset_split_partition;
    Alcotest.test_case "dataset batches cover" `Quick test_dataset_batches_cover;
    Alcotest.test_case "dataset of_labelled" `Quick test_dataset_of_labelled;
    Alcotest.test_case "trainer fits linear" `Quick test_trainer_fits_linear_function;
    Alcotest.test_case "trainer loss decreases" `Quick test_trainer_loss_decreases;
    Alcotest.test_case "binary accuracy" `Quick test_binary_accuracy;
    Alcotest.test_case "regression mae" `Quick test_regression_mae;
    Alcotest.test_case "identity BN insertion" `Quick test_insert_identity_bn_preserves_function;
    Alcotest.test_case "bn stats tracking" `Quick test_bn_training_updates_stats;
    Alcotest.test_case "golden characterizer head" `Quick test_golden_characterizer;
    Alcotest.test_case "golden perception network" `Quick test_golden_perception;
    Alcotest.test_case "golden conv training" `Quick test_golden_conv_training;
    Alcotest.test_case "golden bn input gradient" `Quick test_golden_bn_input_gradient;
    Alcotest.test_case "training epoch allocation" `Quick test_training_epoch_allocation;
    QCheck_alcotest.to_alcotest qcheck_gradcheck_random_nets;
  ]
