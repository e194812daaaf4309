module Mat = Dpv_tensor.Mat
module Vec = Dpv_tensor.Vec
module Layer = Dpv_nn.Layer
module Network = Dpv_nn.Network

type layer_grad =
  | Dense_grad of { d_weights : Mat.t; d_bias : Vec.t }
  | Bn_grad of { d_gamma : Vec.t; d_beta : Vec.t }
  | No_grad

type t = layer_grad array

let filled net v =
  Array.init (Network.num_layers net) (fun i ->
      match Network.layer net (i + 1) with
      | Layer.Dense { weights; bias } | Layer.Conv2d { weights; bias; _ } ->
          Dense_grad
            {
              d_weights =
                Mat.create ~rows:(Mat.rows weights) ~cols:(Mat.cols weights) v;
              d_bias = Vec.create (Vec.dim bias) v;
            }
      | Layer.Batch_norm { gamma; _ } ->
          Bn_grad
            {
              d_gamma = Vec.create (Vec.dim gamma) v;
              d_beta = Vec.create (Vec.dim gamma) v;
            }
      | Layer.Relu | Layer.Sigmoid | Layer.Tanh -> No_grad)

let zeros net = filled net 0.0

let fill g x =
  Array.iter
    (function
      | Dense_grad a ->
          Mat.fill a.d_weights x;
          Array.fill a.d_bias 0 (Vec.dim a.d_bias) x
      | Bn_grad a ->
          Array.fill a.d_gamma 0 (Vec.dim a.d_gamma) x;
          Array.fill a.d_beta 0 (Vec.dim a.d_beta) x
      | No_grad -> ())
    g

(* The upstream gradient at every layer boundary ([upstream.(l)] is
   dL/d f^(l)) and, for each conv layer, the per-sample gradient buffers
   its weights and bias are summed into before they reach the total. *)
type workspace = { upstream : Vec.t array; conv : t }

let workspace net =
  {
    upstream = Array.map Vec.zeros (Network.dims net);
    conv =
      Array.init (Network.num_layers net) (fun i ->
          match Network.layer net (i + 1) with
          | Layer.Conv2d { weights; bias; _ } ->
              Dense_grad
                {
                  d_weights =
                    Mat.zeros ~rows:(Mat.rows weights) ~cols:(Mat.cols weights);
                  d_bias = Vec.zeros (Vec.dim bias);
                }
          | Layer.Dense _ | Layer.Batch_norm _ | Layer.Relu | Layer.Sigmoid
          | Layer.Tanh ->
              No_grad);
  }

(* Direct convolution backward: scatter the upstream gradient to kernel
   weights (dW), per-channel bias (db) and, when [want_dx], the input
   (dx).  A kernel weight collects several products per sample, so dW
   and db are summed in zeroed per-sample buffers. *)
let conv_backward (shape : Layer.conv_shape) weights ~x ~g ~d_weights ~d_bias
    ~dx ~want_dx =
  let oh = Layer.conv_out_height shape and ow = Layer.conv_out_width shape in
  let ih = shape.Layer.in_height and iw = shape.Layer.in_width in
  let kh = shape.Layer.kernel_h and kw = shape.Layer.kernel_w in
  Mat.fill d_weights 0.0;
  Array.fill d_bias 0 (Vec.dim d_bias) 0.0;
  if want_dx then Array.fill dx 0 (Vec.dim dx) 0.0;
  for oc = 0 to shape.Layer.out_channels - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let gout = g.((oc * oh * ow) + (oy * ow) + ox) in
        if gout <> 0.0 then begin
          d_bias.(oc) <- d_bias.(oc) +. gout;
          for ic = 0 to shape.Layer.in_channels - 1 do
            for ky = 0 to kh - 1 do
              let y = (oy * shape.Layer.stride) + ky - shape.Layer.padding in
              if y >= 0 && y < ih then
                for kx = 0 to kw - 1 do
                  let xpos = (ox * shape.Layer.stride) + kx - shape.Layer.padding in
                  if xpos >= 0 && xpos < iw then begin
                    let col = (ic * kh * kw) + (ky * kw) + kx in
                    let xin = (ic * ih * iw) + (y * iw) + xpos in
                    Mat.set d_weights oc col
                      (Mat.get d_weights oc col +. (gout *. x.(xin)));
                    if want_dx then
                      dx.(xin) <- dx.(xin) +. (gout *. Mat.get weights oc col)
                  end
                done
            done
          done
        end
      done
    done
  done

(* Backward rule per layer.  [x] is the layer input, [y] its output and
   [g] the upstream gradient dL/dy.  The parameter gradient is added into
   [into] (a Dense weight gets one product per sample, so it goes
   straight in; a conv weight goes through the buffers in [conv]), and
   dL/dx is written to [dx] when [want_dx]. *)
let backward_layer layer ~x ~y ~g ~into ~conv ~dx ~want_dx =
  match (layer, into, conv) with
  | Layer.Conv2d { shape; weights; _ }, Dense_grad total, Dense_grad sample ->
      conv_backward shape weights ~x ~g ~d_weights:sample.d_weights
        ~d_bias:sample.d_bias ~dx ~want_dx;
      Mat.add_in_place total.d_weights sample.d_weights;
      Vec.add_in_place total.d_bias sample.d_bias
  | Layer.Dense { weights; _ }, Dense_grad total, No_grad ->
      Mat.add_outer total.d_weights g x;
      Vec.add_in_place total.d_bias g;
      if want_dx then Mat.matvec_t_into weights g dx
  | Layer.Relu, No_grad, No_grad ->
      if want_dx then
        for i = 0 to Vec.dim x - 1 do
          dx.(i) <- (if x.(i) > 0.0 then g.(i) else 0.0)
        done
  | Layer.Sigmoid, No_grad, No_grad ->
      if want_dx then
        for i = 0 to Vec.dim y - 1 do
          dx.(i) <- g.(i) *. y.(i) *. (1.0 -. y.(i))
        done
  | Layer.Tanh, No_grad, No_grad ->
      if want_dx then
        for i = 0 to Vec.dim y - 1 do
          dx.(i) <- g.(i) *. (1.0 -. (y.(i) *. y.(i)))
        done
  | Layer.Batch_norm { gamma; mean; var; eps; _ }, Bn_grad total, No_grad ->
      for i = 0 to Vec.dim gamma - 1 do
        let inv_std = 1.0 /. sqrt (var.(i) +. eps) in
        total.d_gamma.(i) <-
          total.d_gamma.(i) +. (g.(i) *. (x.(i) -. mean.(i)) *. inv_std);
        total.d_beta.(i) <- total.d_beta.(i) +. g.(i);
        if want_dx then dx.(i) <- g.(i) *. gamma.(i) *. inv_std
      done
  | _ -> invalid_arg "Grad: structure mismatch"

let backprop ws net ~activations ~d_output ~into ~input_grad =
  let n = Network.num_layers net in
  if Array.length activations <> n + 1 then
    invalid_arg "Grad.backward: wrong activations length";
  ws.upstream.(n) <- d_output;
  for l = n downto 1 do
    backward_layer (Network.layer net l) ~x:activations.(l - 1)
      ~y:activations.(l) ~g:ws.upstream.(l) ~into:into.(l - 1)
      ~conv:ws.conv.(l - 1) ~dx:ws.upstream.(l - 1)
      ~want_dx:(l > 1 || input_grad)
  done

(* -0.0 is the additive identity of IEEE addition, signed zeros
   included, so summing one sample into accumulators filled with it
   yields that sample's gradient bit for bit. *)
let backward net ~activations ~d_output =
  let ws = workspace net in
  let grads = filled net (-0.0) in
  backprop ws net ~activations ~d_output ~into:grads ~input_grad:true;
  (grads, ws.upstream.(0))

let accumulate ~into g =
  if Array.length into <> Array.length g then
    invalid_arg "Grad.accumulate: length mismatch";
  Array.iteri
    (fun i gi ->
      match (into.(i), gi) with
      | Dense_grad a, Dense_grad b ->
          into.(i) <-
            Dense_grad
              {
                d_weights = Mat.add a.d_weights b.d_weights;
                d_bias = Vec.add a.d_bias b.d_bias;
              }
      | Bn_grad a, Bn_grad b ->
          into.(i) <-
            Bn_grad
              {
                d_gamma = Vec.add a.d_gamma b.d_gamma;
                d_beta = Vec.add a.d_beta b.d_beta;
              }
      | No_grad, No_grad -> ()
      | _ -> invalid_arg "Grad.accumulate: structure mismatch")
    g

let scale_vec c v =
  for i = 0 to Vec.dim v - 1 do
    v.(i) <- c *. v.(i)
  done

let scale g c =
  Array.iter
    (function
      | Dense_grad a ->
          Mat.scale_in_place c a.d_weights;
          scale_vec c a.d_bias
      | Bn_grad a ->
          scale_vec c a.d_gamma;
          scale_vec c a.d_beta
      | No_grad -> ())
    g

let sample_gradient net loss ~input ~target =
  let activations = Network.activations net input in
  let output = activations.(Network.num_layers net) in
  let value = Loss.value loss ~output ~target in
  let d_output = Loss.gradient loss ~output ~target in
  let grads, _ = backward net ~activations ~d_output in
  (value, grads)
