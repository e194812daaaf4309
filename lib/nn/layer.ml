module Mat = Dpv_tensor.Mat
module Vec = Dpv_tensor.Vec

type conv_shape = {
  in_channels : int;
  in_height : int;
  in_width : int;
  out_channels : int;
  kernel_h : int;
  kernel_w : int;
  stride : int;
  padding : int;
}

type t =
  | Dense of { weights : Mat.t; bias : Vec.t }
  | Conv2d of { shape : conv_shape; weights : Mat.t; bias : Vec.t }
  | Relu
  | Sigmoid
  | Tanh
  | Batch_norm of {
      gamma : Vec.t;
      beta : Vec.t;
      mean : Vec.t;
      var : Vec.t;
      eps : float;
    }

let conv_out_height s =
  ((s.in_height + (2 * s.padding) - s.kernel_h) / s.stride) + 1

let conv_out_width s =
  ((s.in_width + (2 * s.padding) - s.kernel_w) / s.stride) + 1

let conv_in_dim s = s.in_channels * s.in_height * s.in_width
let conv_out_dim s = s.out_channels * conv_out_height s * conv_out_width s

let sigmoid_scalar x = 1.0 /. (1.0 +. exp (-.x))

(* Direct convolution over the channel-major flat layout. *)
let conv_forward_into shape weights bias x out =
  let oh = conv_out_height shape and ow = conv_out_width shape in
  let ih = shape.in_height and iw = shape.in_width in
  for oc = 0 to shape.out_channels - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let acc = ref bias.(oc) in
        for ic = 0 to shape.in_channels - 1 do
          for ky = 0 to shape.kernel_h - 1 do
            let y = (oy * shape.stride) + ky - shape.padding in
            if y >= 0 && y < ih then
              for kx = 0 to shape.kernel_w - 1 do
                let xpos = (ox * shape.stride) + kx - shape.padding in
                if xpos >= 0 && xpos < iw then
                  acc :=
                    !acc
                    +. Mat.get weights oc
                         ((ic * shape.kernel_h * shape.kernel_w)
                         + (ky * shape.kernel_w) + kx)
                       *. x.((ic * ih * iw) + (y * iw) + xpos)
              done
          done
        done;
        out.((oc * oh * ow) + (oy * ow) + ox) <- !acc
      done
    done
  done

let forward_into layer x out =
  match layer with
  | Dense { weights; bias } ->
      Mat.matvec_into weights x out;
      for i = 0 to Vec.dim bias - 1 do
        out.(i) <- out.(i) +. bias.(i)
      done
  | Conv2d { shape; weights; bias } -> conv_forward_into shape weights bias x out
  | Relu ->
      for i = 0 to Vec.dim x - 1 do
        out.(i) <- Float.max 0.0 x.(i)
      done
  | Sigmoid ->
      for i = 0 to Vec.dim x - 1 do
        out.(i) <- sigmoid_scalar x.(i)
      done
  | Tanh ->
      for i = 0 to Vec.dim x - 1 do
        out.(i) <- tanh x.(i)
      done
  | Batch_norm { gamma; beta; mean; var; eps } ->
      for i = 0 to Vec.dim x - 1 do
        out.(i) <-
          (gamma.(i) *. (x.(i) -. mean.(i)) /. sqrt (var.(i) +. eps))
          +. beta.(i)
      done

let in_dim = function
  | Dense { weights; _ } -> Some (Mat.cols weights)
  | Conv2d { shape; _ } -> Some (conv_in_dim shape)
  | Batch_norm { gamma; _ } -> Some (Vec.dim gamma)
  | Relu | Sigmoid | Tanh -> None

let out_dim = function
  | Dense { weights; _ } -> Some (Mat.rows weights)
  | Conv2d { shape; _ } -> Some (conv_out_dim shape)
  | Batch_norm { gamma; _ } -> Some (Vec.dim gamma)
  | Relu | Sigmoid | Tanh -> None

let forward layer x =
  let out =
    Vec.zeros (match out_dim layer with Some d -> d | None -> Vec.dim x)
  in
  forward_into layer x out;
  out

let name = function
  | Dense _ -> "dense"
  | Conv2d _ -> "conv2d"
  | Relu -> "relu"
  | Sigmoid -> "sigmoid"
  | Tanh -> "tanh"
  | Batch_norm _ -> "batchnorm"

let out_dim_given layer d =
  match in_dim layer with
  | Some expected when expected <> d ->
      invalid_arg
        (Printf.sprintf "Layer %s expects input dim %d, got %d" (name layer)
           expected d)
  | Some _ | None -> ( match out_dim layer with Some o -> o | None -> d)

let is_affine = function
  | Dense _ | Conv2d _ | Batch_norm _ -> true
  | Relu | Sigmoid | Tanh -> false

let is_piecewise_linear = function
  | Dense _ | Conv2d _ | Batch_norm _ | Relu -> true
  | Sigmoid | Tanh -> false

let batch_norm_scale_shift = function
  | Batch_norm { gamma; beta; mean; var; eps } ->
      let d = Vec.dim gamma in
      let scale = Vec.init d (fun i -> gamma.(i) /. sqrt (var.(i) +. eps)) in
      let shift = Vec.init d (fun i -> beta.(i) -. (scale.(i) *. mean.(i))) in
      Some (scale, shift)
  | Dense _ | Conv2d _ | Relu | Sigmoid | Tanh -> None

let dense ~weights ~bias =
  if Mat.rows weights <> Vec.dim bias then
    invalid_arg "Layer.dense: bias length must equal weight rows";
  Dense { weights; bias }

let conv2d ~shape ~weights ~bias =
  if
    shape.in_channels < 1 || shape.out_channels < 1 || shape.kernel_h < 1
    || shape.kernel_w < 1 || shape.stride < 1 || shape.padding < 0
  then invalid_arg "Layer.conv2d: bad geometry";
  if conv_out_height shape < 1 || conv_out_width shape < 1 then
    invalid_arg "Layer.conv2d: kernel does not fit the input";
  if
    Mat.rows weights <> shape.out_channels
    || Mat.cols weights <> shape.in_channels * shape.kernel_h * shape.kernel_w
  then invalid_arg "Layer.conv2d: weight matrix shape mismatch";
  if Vec.dim bias <> shape.out_channels then
    invalid_arg "Layer.conv2d: bias must have one entry per output channel";
  Conv2d { shape; weights; bias }

let batch_norm_identity d =
  Batch_norm
    {
      gamma = Vec.ones d;
      beta = Vec.zeros d;
      mean = Vec.zeros d;
      var = Vec.ones d;
      eps = 1e-5;
    }

(* Materialize the affine map of a conv layer as a dense matrix by
   scattering each kernel weight to its (output row, input column)
   positions. *)
let conv_to_dense shape weights bias =
  let oh = conv_out_height shape and ow = conv_out_width shape in
  let ih = shape.in_height and iw = shape.in_width in
  let m = Mat.zeros ~rows:(conv_out_dim shape) ~cols:(conv_in_dim shape) in
  let b = Array.make (conv_out_dim shape) 0.0 in
  for oc = 0 to shape.out_channels - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let row = (oc * oh * ow) + (oy * ow) + ox in
        b.(row) <- bias.(oc);
        for ic = 0 to shape.in_channels - 1 do
          for ky = 0 to shape.kernel_h - 1 do
            let y = (oy * shape.stride) + ky - shape.padding in
            if y >= 0 && y < ih then
              for kx = 0 to shape.kernel_w - 1 do
                let xpos = (ox * shape.stride) + kx - shape.padding in
                if xpos >= 0 && xpos < iw then
                  Mat.set m row
                    ((ic * ih * iw) + (y * iw) + xpos)
                    (Mat.get weights oc
                       ((ic * shape.kernel_h * shape.kernel_w)
                       + (ky * shape.kernel_w) + kx))
              done
          done
        done
      done
    done
  done;
  Dense { weights = m; bias = b }

let lower_to_dense layer =
  match layer with
  | Dense _ -> layer
  | Conv2d { shape; weights; bias } -> conv_to_dense shape weights bias
  | Batch_norm { gamma; _ } -> (
      match batch_norm_scale_shift layer with
      | Some (scale, shift) ->
          let d = Vec.dim gamma in
          Dense
            {
              weights = Mat.init ~rows:d ~cols:d (fun i j -> if i = j then scale.(i) else 0.0);
              bias = shift;
            }
      | None -> assert false)
  | Relu | Sigmoid | Tanh ->
      invalid_arg
        (Printf.sprintf "Layer.lower_to_dense: %s is not affine" (name layer))

let pp fmt layer =
  match (layer, in_dim layer, out_dim layer) with
  | Conv2d { shape; _ }, _, _ ->
      Format.fprintf fmt "conv2d(%dx%dx%d->%dx%dx%d k%dx%d s%d p%d)"
        shape.in_channels shape.in_height shape.in_width shape.out_channels
        (conv_out_height shape) (conv_out_width shape) shape.kernel_h
        shape.kernel_w shape.stride shape.padding
  | _, Some i, Some o -> Format.fprintf fmt "%s(%d->%d)" (name layer) i o
  | _ -> Format.fprintf fmt "%s" (name layer)
