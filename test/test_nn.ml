(* Tests for the neural network representation: layers, networks,
   initialization, serialization. *)

module Layer = Dpv_nn.Layer
module Network = Dpv_nn.Network
module Init = Dpv_nn.Init
module Serialize = Dpv_nn.Serialize
module Mat = Dpv_tensor.Mat
module Vec = Dpv_tensor.Vec
module Rng = Dpv_tensor.Rng

let check_float = Alcotest.(check (float 1e-9))

let dense_2x2 =
  Layer.dense
    ~weights:(Mat.of_rows [| [| 1.0; 2.0 |]; [| -1.0; 0.5 |] |])
    ~bias:[| 0.5; -0.5 |]

let test_dense_forward () =
  let y = Layer.forward dense_2x2 [| 1.0; 1.0 |] in
  Alcotest.(check bool) "Wx+b" true (Vec.approx_equal y [| 3.5; -1.0 |])

let test_relu_forward () =
  let y = Layer.forward Layer.Relu [| -1.0; 0.0; 2.0 |] in
  Alcotest.(check bool) "relu" true (Vec.approx_equal y [| 0.0; 0.0; 2.0 |])

let test_sigmoid_forward () =
  let y = Layer.forward Layer.Sigmoid [| 0.0 |] in
  check_float "sigmoid(0)=0.5" 0.5 y.(0);
  let y = Layer.forward Layer.Sigmoid [| 100.0 |] in
  Alcotest.(check bool) "sigmoid(100)~1" true (y.(0) > 0.999)

let test_tanh_forward () =
  let y = Layer.forward Layer.Tanh [| 0.0; 1.0 |] in
  check_float "tanh(0)" 0.0 y.(0);
  check_float "tanh(1)" (tanh 1.0) y.(1)

let test_batch_norm_forward () =
  let bn =
    Layer.Batch_norm
      {
        gamma = [| 2.0 |];
        beta = [| 1.0 |];
        mean = [| 3.0 |];
        var = [| 4.0 |];
        eps = 0.0;
      }
  in
  (* y = 2*(x-3)/2 + 1 = x - 2 *)
  let y = Layer.forward bn [| 5.0 |] in
  check_float "bn" 3.0 y.(0)

let test_batch_norm_scale_shift () =
  let bn =
    Layer.Batch_norm
      {
        gamma = [| 2.0 |];
        beta = [| 1.0 |];
        mean = [| 3.0 |];
        var = [| 4.0 |];
        eps = 0.0;
      }
  in
  match Layer.batch_norm_scale_shift bn with
  | Some (scale, shift) ->
      check_float "scale" 1.0 scale.(0);
      check_float "shift" (-2.0) shift.(0);
      (* forward must agree with scale*x + shift *)
      let x = 7.3 in
      let y = Layer.forward bn [| x |] in
      check_float "consistency" ((scale.(0) *. x) +. shift.(0)) y.(0)
  | None -> Alcotest.fail "expected scale/shift"

let test_batch_norm_identity () =
  let bn = Layer.batch_norm_identity 3 in
  let x = [| 1.0; -2.0; 0.5 |] in
  let y = Layer.forward bn x in
  Alcotest.(check bool) "close to identity" true (Vec.approx_equal ~tol:1e-4 y x)

let test_dense_bias_mismatch () =
  Alcotest.check_raises "bad bias"
    (Invalid_argument "Layer.dense: bias length must equal weight rows")
    (fun () ->
      ignore (Layer.dense ~weights:(Mat.identity 2) ~bias:[| 1.0 |]))

let test_layer_dims () =
  Alcotest.(check (option int)) "dense in" (Some 2) (Layer.in_dim dense_2x2);
  Alcotest.(check (option int)) "dense out" (Some 2) (Layer.out_dim dense_2x2);
  Alcotest.(check (option int)) "relu in" None (Layer.in_dim Layer.Relu);
  Alcotest.(check int) "relu given" 7 (Layer.out_dim_given Layer.Relu 7)

let test_layer_classification () =
  Alcotest.(check bool) "dense affine" true (Layer.is_affine dense_2x2);
  Alcotest.(check bool) "relu not affine" false (Layer.is_affine Layer.Relu);
  Alcotest.(check bool) "relu pwl" true (Layer.is_piecewise_linear Layer.Relu);
  Alcotest.(check bool) "sigmoid not pwl" false
    (Layer.is_piecewise_linear Layer.Sigmoid)

(* -- networks -- *)

let small_net =
  Network.create ~input_dim:2 [ dense_2x2; Layer.Relu; dense_2x2 ]

let test_network_dims () =
  Alcotest.(check int) "layers" 3 (Network.num_layers small_net);
  Alcotest.(check (array int)) "dims" [| 2; 2; 2; 2 |] (Network.dims small_net)

let test_network_forward_composition () =
  let x = [| 1.0; -1.0 |] in
  let manual =
    Layer.forward dense_2x2 (Layer.forward Layer.Relu (Layer.forward dense_2x2 x))
  in
  Alcotest.(check bool) "composition" true
    (Vec.approx_equal (Network.forward small_net x) manual)

let test_network_forward_upto () =
  let x = [| 0.5; 0.25 |] in
  Alcotest.(check bool) "cut 0 is input" true
    (Vec.approx_equal (Network.forward_upto small_net ~cut:0 x) x);
  Alcotest.(check bool) "cut L is forward" true
    (Vec.approx_equal
       (Network.forward_upto small_net ~cut:3 x)
       (Network.forward small_net x));
  Alcotest.check_raises "wrong input dim names the network"
    (Invalid_argument "Network.forward_upto: expected input dim 2, got 3")
    (fun () -> ignore (Network.forward_upto small_net ~cut:1 [| 1.0; 2.0; 3.0 |]))

let test_network_activations () =
  let x = [| 1.0; 2.0 |] in
  let acts = Network.activations small_net x in
  Alcotest.(check int) "length" 4 (Array.length acts);
  Alcotest.(check bool) "0 is input" true (Vec.approx_equal acts.(0) x);
  Alcotest.(check bool) "each matches forward_upto" true
    (List.for_all
       (fun l -> Vec.approx_equal acts.(l) (Network.forward_upto small_net ~cut:l x))
       [ 0; 1; 2; 3 ]);
  let reused = Network.activation_buffers small_net in
  Network.activations_into small_net [| -3.0; 0.5 |] reused;
  Network.activations_into small_net x reused;
  Alcotest.(check bool) "reused buffers match" true (reused = acts)

let test_prefix_suffix_compose () =
  let x = [| -0.3; 0.8 |] in
  List.iter
    (fun cut ->
      let p = Network.prefix small_net ~cut in
      let s = Network.suffix small_net ~cut in
      let composed = Network.forward s (Network.forward p x) in
      Alcotest.(check bool)
        (Printf.sprintf "cut %d" cut)
        true
        (Vec.approx_equal composed (Network.forward small_net x)))
    [ 0; 1; 2; 3 ]

let test_stack () =
  let f = Network.prefix small_net ~cut:1 in
  let g = Network.suffix small_net ~cut:1 in
  let stacked = Network.stack f g in
  let x = [| 0.1; 0.2 |] in
  Alcotest.(check bool) "stack = original" true
    (Vec.approx_equal (Network.forward stacked x) (Network.forward small_net x))

let test_insert_layer () =
  let net = Network.insert_layer small_net ~after:1 (Layer.batch_norm_identity 2) in
  Alcotest.(check int) "one more layer" 4 (Network.num_layers net);
  let x = [| 0.4; -0.9 |] in
  Alcotest.(check bool) "identity bn preserves function" true
    (Vec.approx_equal ~tol:1e-4 (Network.forward net x) (Network.forward small_net x))

let test_shape_mismatch_rejected () =
  Alcotest.check_raises "bad chain"
    (Invalid_argument "Layer dense expects input dim 2, got 3") (fun () ->
      ignore (Network.create ~input_dim:3 [ dense_2x2 ]))

let test_num_parameters () =
  (* two dense 2x2+2 layers = 2 * (4 + 2) = 12 *)
  Alcotest.(check int) "params" 12 (Network.num_parameters small_net)

let test_is_piecewise_linear () =
  Alcotest.(check bool) "relu net" true (Network.is_piecewise_linear small_net);
  let with_tanh = Network.append small_net Layer.Tanh in
  Alcotest.(check bool) "tanh net" false (Network.is_piecewise_linear with_tanh)

(* -- initializers -- *)

let test_mlp_shape () =
  let rng = Rng.create 1 in
  let net = Init.mlp rng ~input_dim:5 ~hidden:[ 7; 3 ] ~output_dim:2 in
  Alcotest.(check int) "input" 5 (Network.input_dim net);
  Alcotest.(check int) "output" 2 (Network.output_dim net);
  Alcotest.(check int) "layers: D R D R D" 5 (Network.num_layers net)

let test_mlp_batch_norm_shape () =
  let rng = Rng.create 1 in
  let net = Init.mlp_batch_norm rng ~input_dim:5 ~hidden:[ 7; 3 ] ~output_dim:2 in
  Alcotest.(check int) "layers: D B R D B R D" 7 (Network.num_layers net)

let test_he_init_scale () =
  let rng = Rng.create 9 in
  let layer = Init.he_dense rng ~in_dim:100 ~out_dim:50 in
  match layer with
  | Layer.Dense { weights; bias } ->
      let flat = Array.concat (Array.to_list (Mat.to_rows weights)) in
      let std = Dpv_tensor.Stats.std flat in
      Alcotest.(check bool) "std near sqrt(2/100)" true
        (Float.abs (std -. sqrt 0.02) < 0.02);
      Alcotest.(check bool) "zero bias" true
        (Array.for_all (fun b -> b = 0.0) bias)
  | _ -> Alcotest.fail "expected dense"

(* -- serialization -- *)

let test_serialize_roundtrip () =
  let rng = Rng.create 4 in
  let net = Init.mlp_batch_norm rng ~input_dim:6 ~hidden:[ 5; 4 ] ~output_dim:3 in
  let net' = Serialize.of_string (Serialize.to_string net) in
  Alcotest.(check int) "layers" (Network.num_layers net) (Network.num_layers net');
  let rng2 = Rng.create 5 in
  for _ = 1 to 20 do
    let x = Array.init 6 (fun _ -> Rng.uniform rng2 ~lo:(-2.0) ~hi:2.0) in
    Alcotest.(check bool) "identical function (exact)" true
      (Network.forward net x = Network.forward net' x)
  done

let test_serialize_file_roundtrip () =
  let rng = Rng.create 6 in
  let net = Init.mlp rng ~input_dim:3 ~hidden:[ 4 ] ~output_dim:1 in
  let path = Filename.temp_file "dpv" ".net" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save net ~path;
      let net' = Serialize.load ~path in
      let x = [| 0.1; 0.2; 0.3 |] in
      Alcotest.(check bool) "file roundtrip" true
        (Network.forward net x = Network.forward net' x))

let test_serialize_rejects_garbage () =
  Alcotest.check_raises "bad magic" (Failure "Serialize: bad magic line")
    (fun () -> ignore (Serialize.of_string "not a network\n"))

let test_serialize_all_layer_kinds () =
  let net =
    Network.create ~input_dim:2
      [
        dense_2x2;
        Layer.Relu;
        Layer.batch_norm_identity 2;
        Layer.Sigmoid;
        Layer.Tanh;
      ]
  in
  let net' = Serialize.of_string (Serialize.to_string net) in
  let x = [| 0.7; -0.7 |] in
  Alcotest.(check bool) "roundtrip with every layer kind" true
    (Network.forward net x = Network.forward net' x)

let qcheck_forward_deterministic =
  QCheck.Test.make ~count:50 ~name:"forward is deterministic"
    QCheck.(pair small_int (list_of_size Gen.(2 -- 2) (float_range (-5.) 5.)))
    (fun (seed, xs) ->
      let rng = Rng.create seed in
      let net = Init.mlp rng ~input_dim:2 ~hidden:[ 3 ] ~output_dim:1 in
      let x = Array.of_list xs in
      Network.forward net x = Network.forward net x)

let tests =
  [
    Alcotest.test_case "dense forward" `Quick test_dense_forward;
    Alcotest.test_case "relu forward" `Quick test_relu_forward;
    Alcotest.test_case "sigmoid forward" `Quick test_sigmoid_forward;
    Alcotest.test_case "tanh forward" `Quick test_tanh_forward;
    Alcotest.test_case "batch norm forward" `Quick test_batch_norm_forward;
    Alcotest.test_case "batch norm scale/shift" `Quick test_batch_norm_scale_shift;
    Alcotest.test_case "batch norm identity" `Quick test_batch_norm_identity;
    Alcotest.test_case "dense bias mismatch raises" `Quick test_dense_bias_mismatch;
    Alcotest.test_case "layer dims" `Quick test_layer_dims;
    Alcotest.test_case "layer classification" `Quick test_layer_classification;
    Alcotest.test_case "network dims" `Quick test_network_dims;
    Alcotest.test_case "forward = composition" `Quick test_network_forward_composition;
    Alcotest.test_case "forward_upto endpoints" `Quick test_network_forward_upto;
    Alcotest.test_case "activations" `Quick test_network_activations;
    Alcotest.test_case "prefix/suffix compose" `Quick test_prefix_suffix_compose;
    Alcotest.test_case "stack" `Quick test_stack;
    Alcotest.test_case "insert layer" `Quick test_insert_layer;
    Alcotest.test_case "shape mismatch rejected" `Quick test_shape_mismatch_rejected;
    Alcotest.test_case "num parameters" `Quick test_num_parameters;
    Alcotest.test_case "piecewise-linear check" `Quick test_is_piecewise_linear;
    Alcotest.test_case "mlp shape" `Quick test_mlp_shape;
    Alcotest.test_case "mlp+bn shape" `Quick test_mlp_batch_norm_shape;
    Alcotest.test_case "he init scale" `Quick test_he_init_scale;
    Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
    Alcotest.test_case "serialize file roundtrip" `Quick test_serialize_file_roundtrip;
    Alcotest.test_case "serialize rejects garbage" `Quick test_serialize_rejects_garbage;
    Alcotest.test_case "serialize all layer kinds" `Quick test_serialize_all_layer_kinds;
    QCheck_alcotest.to_alcotest qcheck_forward_deterministic;
  ]
