(* Tests for convolution layers: direct forward versus the dense
   lowering (the equivalence the verifier relies on), gradients,
   serialization and abstract-domain soundness through conv blocks. *)

module Layer = Dpv_nn.Layer
module Network = Dpv_nn.Network
module Init = Dpv_nn.Init
module Serialize = Dpv_nn.Serialize
module Grad = Dpv_train.Grad
module Loss = Dpv_train.Loss
module Optimizer = Dpv_train.Optimizer
module Dataset = Dpv_train.Dataset
module Trainer = Dpv_train.Trainer
module Box_domain = Dpv_absint.Box_domain
module Propagate = Dpv_absint.Propagate
module Interval = Dpv_absint.Interval
module Mat = Dpv_tensor.Mat
module Vec = Dpv_tensor.Vec
module Rng = Dpv_tensor.Rng

let check_float = Alcotest.(check (float 1e-9))

let shape ?(padding = 0) ?(stride = 1) ~ic ~ih ~iw ~oc ~k () =
  {
    Layer.in_channels = ic;
    in_height = ih;
    in_width = iw;
    out_channels = oc;
    kernel_h = k;
    kernel_w = k;
    stride;
    padding;
  }

(* 1x3x3 input, single 2x2 averaging-style kernel, stride 1 -> 2x2 out *)
let test_conv_forward_hand_computed () =
  let s = shape ~ic:1 ~ih:3 ~iw:3 ~oc:1 ~k:2 () in
  let weights = Mat.of_rows [| [| 1.0; 1.0; 1.0; 1.0 |] |] in
  let conv = Layer.conv2d ~shape:s ~weights ~bias:[| 0.5 |] in
  let x = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0 |] in
  let y = Layer.forward conv x in
  Alcotest.(check int) "out dim" 4 (Vec.dim y);
  (* windows: (1+2+4+5), (2+3+5+6), (4+5+7+8), (5+6+8+9), each + 0.5 *)
  Alcotest.(check bool) "values" true
    (Vec.approx_equal y [| 12.5; 16.5; 24.5; 28.5 |])

let test_conv_output_geometry () =
  let s = shape ~ic:1 ~ih:8 ~iw:6 ~oc:4 ~k:3 ~stride:2 ~padding:1 () in
  Alcotest.(check int) "out h" 4 (Layer.conv_out_height s);
  Alcotest.(check int) "out w" 3 (Layer.conv_out_width s);
  Alcotest.(check (option int)) "layer out dim" (Some 48)
    (Layer.out_dim (Init.he_conv (Rng.create 1) ~shape:s))

let test_conv_padding_zeros () =
  (* 1x1 input with 3x3 kernel, padding 1: only the center tap sees x. *)
  let s = shape ~ic:1 ~ih:1 ~iw:1 ~oc:1 ~k:3 ~padding:1 () in
  let weights =
    Mat.of_rows [| [| 1.0; 1.0; 1.0; 1.0; 10.0; 1.0; 1.0; 1.0; 1.0 |] |]
  in
  let conv = Layer.conv2d ~shape:s ~weights ~bias:[| 0.0 |] in
  let y = Layer.forward conv [| 3.0 |] in
  check_float "only center" 30.0 y.(0)

let test_conv_validation () =
  Alcotest.check_raises "kernel too large"
    (Invalid_argument "Layer.conv2d: kernel does not fit the input") (fun () ->
      ignore
        (Layer.conv2d
           ~shape:(shape ~ic:1 ~ih:2 ~iw:2 ~oc:1 ~k:3 ())
           ~weights:(Mat.zeros ~rows:1 ~cols:9)
           ~bias:[| 0.0 |]));
  Alcotest.check_raises "weight shape"
    (Invalid_argument "Layer.conv2d: weight matrix shape mismatch") (fun () ->
      ignore
        (Layer.conv2d
           ~shape:(shape ~ic:1 ~ih:4 ~iw:4 ~oc:1 ~k:3 ())
           ~weights:(Mat.zeros ~rows:1 ~cols:8)
           ~bias:[| 0.0 |]))

(* The verifier's key assumption: conv and its dense lowering are the
   same affine map. *)
let qcheck_lowering_equivalence =
  QCheck.Test.make ~count:60 ~name:"conv forward = lowered dense forward"
    QCheck.(quad small_int (int_range 1 2) (int_range 1 3) (int_range 0 1))
    (fun (seed, ic, oc, padding) ->
      let rng = Rng.create (seed + 400) in
      let stride = 1 + Rng.int rng 2 in
      let s =
        {
          Layer.in_channels = ic;
          in_height = 4 + Rng.int rng 3;
          in_width = 4 + Rng.int rng 3;
          out_channels = oc;
          kernel_h = 2 + Rng.int rng 2;
          kernel_w = 2 + Rng.int rng 2;
          stride;
          padding;
        }
      in
      if Layer.conv_out_height s < 1 || Layer.conv_out_width s < 1 then true
      else begin
        let conv = Init.he_conv rng ~shape:s in
        let dense = Layer.lower_to_dense conv in
        let dim = ic * s.Layer.in_height * s.Layer.in_width in
        let ok = ref true in
        for _ = 1 to 5 do
          let x = Array.init dim (fun _ -> Rng.gaussian rng) in
          if
            not
              (Vec.approx_equal ~tol:1e-9 (Layer.forward conv x)
                 (Layer.forward dense x))
          then ok := false
        done;
        !ok
      end)

let test_lower_batch_norm () =
  let bn =
    Layer.Batch_norm
      {
        gamma = [| 2.0; 1.0 |];
        beta = [| 1.0; 0.0 |];
        mean = [| 0.0; 1.0 |];
        var = [| 1.0; 4.0 |];
        eps = 0.0;
      }
  in
  let dense = Layer.lower_to_dense bn in
  let x = [| 3.0; 5.0 |] in
  Alcotest.(check bool) "bn lowering agrees" true
    (Vec.approx_equal ~tol:1e-9 (Layer.forward bn x) (Layer.forward dense x))

let test_lower_rejects_relu () =
  Alcotest.check_raises "relu"
    (Invalid_argument "Layer.lower_to_dense: relu is not affine") (fun () ->
      ignore (Layer.lower_to_dense Layer.Relu))

(* conv gradcheck against finite differences *)
let test_conv_gradcheck () =
  let rng = Rng.create 401 in
  let s = shape ~ic:1 ~ih:4 ~iw:4 ~oc:2 ~k:3 ~stride:1 () in
  let conv = Init.he_conv rng ~shape:s in
  let net =
    Network.create ~input_dim:16
      [ conv; Layer.Tanh; Init.xavier_dense rng ~in_dim:8 ~out_dim:1 ]
  in
  let input = Array.init 16 (fun i -> 0.1 *. float_of_int (i - 8)) in
  let target = [| 0.5 |] in
  let _, grads = Grad.sample_gradient net Loss.Mse ~input ~target in
  let weights, d_weights =
    match (Network.layer net 1, grads.(0)) with
    | Layer.Conv2d { weights; _ }, Grad.Dense_grad { d_weights; _ } ->
        (weights, d_weights)
    | _ -> Alcotest.fail "expected conv grad"
  in
  let eps = 1e-5 in
  for i = 0 to Mat.rows weights - 1 do
    for j = 0 to Mat.cols weights - 1 do
      let orig = Mat.get weights i j in
      let loss () =
        Loss.value Loss.Mse ~output:(Network.forward net input) ~target
      in
      Mat.set weights i j (orig +. eps);
      let plus = loss () in
      Mat.set weights i j (orig -. eps);
      let minus = loss () in
      Mat.set weights i j orig;
      let numeric = (plus -. minus) /. (2.0 *. eps) in
      let analytic = Mat.get d_weights i j in
      if Float.abs (numeric -. analytic) > 1e-4 *. Float.max 1.0 (Float.abs numeric)
      then Alcotest.failf "conv w[%d,%d]: %g vs %g" i j analytic numeric
    done
  done

let test_conv_input_gradient () =
  (* dL/dx through a conv checked against finite differences. *)
  let rng = Rng.create 402 in
  let s = shape ~ic:1 ~ih:3 ~iw:3 ~oc:1 ~k:2 () in
  let conv = Init.he_conv rng ~shape:s in
  let net = Network.create ~input_dim:9 [ conv ] in
  let input = Array.init 9 (fun i -> 0.2 *. float_of_int i) in
  let target = [| 0.1; -0.1; 0.3; 0.2 |] in
  let activations = Network.activations net input in
  let d_output =
    Loss.gradient Loss.Mse ~output:activations.(1) ~target
  in
  let _, d_input = Grad.backward net ~activations ~d_output in
  let eps = 1e-5 in
  for i = 0 to 8 do
    let orig = input.(i) in
    let loss () = Loss.value Loss.Mse ~output:(Network.forward net input) ~target in
    input.(i) <- orig +. eps;
    let plus = loss () in
    input.(i) <- orig -. eps;
    let minus = loss () in
    input.(i) <- orig;
    let numeric = (plus -. minus) /. (2.0 *. eps) in
    if Float.abs (numeric -. d_input.(i)) > 1e-5 then
      Alcotest.failf "dx[%d]: %g vs %g" i d_input.(i) numeric
  done

let test_conv_net_builder () =
  let rng = Rng.create 403 in
  let net =
    Init.conv_net rng ~in_height:8 ~in_width:8 ~channels:[ 2; 4 ]
      ~hidden:[ 10 ] ~output_dim:2
  in
  Alcotest.(check int) "input dim" 64 (Network.input_dim net);
  Alcotest.(check int) "output dim" 2 (Network.output_dim net);
  Alcotest.(check bool) "is pwl" true (Network.is_piecewise_linear net);
  let x = Array.init 64 (fun i -> float_of_int i /. 64.0) in
  Alcotest.(check int) "forward works" 2 (Vec.dim (Network.forward net x))

let test_conv_serialize_roundtrip () =
  let rng = Rng.create 404 in
  let net =
    Init.conv_net rng ~in_height:6 ~in_width:6 ~channels:[ 2 ] ~hidden:[ 5 ]
      ~output_dim:1
  in
  let net' = Serialize.of_string (Serialize.to_string net) in
  let x = Array.init 36 (fun i -> sin (float_of_int i)) in
  Alcotest.(check bool) "exact roundtrip" true
    (Network.forward net x = Network.forward net' x)

let test_conv_training_reduces_loss () =
  (* Learn "mean brightness" from 4x4 images with a small conv net. *)
  let rng = Rng.create 405 in
  let inputs =
    Array.init 80 (fun _ -> Array.init 16 (fun _ -> Rng.float rng 1.0))
  in
  let targets = Array.map (fun x -> [| Vec.mean x |]) inputs in
  let dataset = Dataset.create ~inputs ~targets in
  let net =
    Init.conv_net (Rng.create 406) ~in_height:4 ~in_width:4 ~channels:[ 2 ]
      ~hidden:[] ~output_dim:1
  in
  let opt = Optimizer.adam ~lr:0.01 net in
  let config = { Trainer.default_config with epochs = 60; batch_size = 16 } in
  let history = Trainer.fit ~rng config opt net dataset in
  Alcotest.(check bool) "loss drops 5x" true
    (history.Trainer.epoch_losses.(59) < history.Trainer.epoch_losses.(0) /. 5.0)

let conv_soundness_of_domain domain =
  QCheck.Test.make ~count:40
    ~name:
      (Printf.sprintf "%s propagation sound through conv nets"
         (Propagate.domain_name domain))
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 410) in
      let net =
        Init.conv_net rng ~in_height:5 ~in_width:5 ~channels:[ 2 ] ~hidden:[ 4 ]
          ~output_dim:2
      in
      let input_box = Box_domain.uniform ~dim:25 ~lo:0.0 ~hi:1.0 in
      let bounds = Propagate.output_bounds domain net ~input_box in
      let sample_rng = Rng.create (seed + 411) in
      let ok = ref true in
      for _ = 1 to 10 do
        let x = Box_domain.sample sample_rng input_box in
        let y = Network.forward net x in
        Array.iteri
          (fun i v -> if not (Interval.contains bounds.(i) v) then ok := false)
          y
      done;
      !ok)

(* The DeepPoly kernel lowers each Conv2d to dense once, when it plans
   the network; the immutable reference lowers it at every visit.
   Through two conv blocks and a ReLU head, over the whole image box
   and over a narrow box around one image (where stable and crossing
   ReLUs mix), every layer's bounds must agree bit for bit. *)
let test_conv_deeppoly_matches_reference () =
  let rng = Rng.create 412 in
  let net =
    Init.conv_net rng ~in_height:6 ~in_width:6 ~channels:[ 2; 3 ]
      ~hidden:[ 5 ] ~output_dim:2
  in
  let image = Array.init 36 (fun _ -> Rng.float rng 1.0) in
  List.iter
    (fun (what, input_box) ->
      let kernel = Propagate.all_layer_bounds Propagate.Deeppoly net ~input_box in
      let reference =
        Deeppoly_reference.propagate_all net
          (Deeppoly_reference.of_box input_box)
      in
      Alcotest.(check int) (what ^ ": layer count") (Array.length reference)
        (Array.length kernel);
      Array.iteri
        (fun l expected ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: layer %d bit-identical" what l)
            true
            (Box_domain.same_box expected kernel.(l)))
        reference)
    [
      ("image box", Box_domain.uniform ~dim:36 ~lo:0.0 ~hi:1.0);
      ( "narrow box",
        Array.map (fun x -> Interval.make ~lo:(x -. 0.05) ~hi:(x +. 0.05)) image
      );
    ]

let tests =
  [
    Alcotest.test_case "conv forward hand-computed" `Quick test_conv_forward_hand_computed;
    Alcotest.test_case "conv output geometry" `Quick test_conv_output_geometry;
    Alcotest.test_case "conv padding zeros" `Quick test_conv_padding_zeros;
    Alcotest.test_case "conv validation" `Quick test_conv_validation;
    QCheck_alcotest.to_alcotest qcheck_lowering_equivalence;
    Alcotest.test_case "lower batch norm" `Quick test_lower_batch_norm;
    Alcotest.test_case "lower rejects relu" `Quick test_lower_rejects_relu;
    Alcotest.test_case "conv gradcheck (weights)" `Quick test_conv_gradcheck;
    Alcotest.test_case "conv input gradient" `Quick test_conv_input_gradient;
    Alcotest.test_case "conv net builder" `Quick test_conv_net_builder;
    Alcotest.test_case "conv serialize roundtrip" `Quick test_conv_serialize_roundtrip;
    Alcotest.test_case "conv training" `Quick test_conv_training_reduces_loss;
    QCheck_alcotest.to_alcotest (conv_soundness_of_domain Propagate.Box);
    QCheck_alcotest.to_alcotest (conv_soundness_of_domain Propagate.Zonotope);
    QCheck_alcotest.to_alcotest (conv_soundness_of_domain Propagate.Deeppoly);
    Alcotest.test_case "conv deeppoly ≡ reference (bits)" `Quick
      test_conv_deeppoly_matches_reference;
  ]
