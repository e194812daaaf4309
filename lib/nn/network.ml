module Vec = Dpv_tensor.Vec

type t = { input_dim : int; layer_arr : Layer.t array; dims : int array }

let compute_dims ~input_dim layer_arr =
  let n = Array.length layer_arr in
  let dims = Array.make (n + 1) input_dim in
  for l = 1 to n do
    dims.(l) <- Layer.out_dim_given layer_arr.(l - 1) dims.(l - 1)
  done;
  dims

let create ~input_dim layer_list =
  if input_dim <= 0 then invalid_arg "Network.create: input_dim <= 0";
  let layer_arr = Array.of_list layer_list in
  let dims = compute_dims ~input_dim layer_arr in
  { input_dim; layer_arr; dims }

let input_dim net = net.input_dim
let output_dim net = net.dims.(Array.length net.layer_arr)
let num_layers net = Array.length net.layer_arr
let layers net = Array.to_list net.layer_arr

let layer net l =
  if l < 1 || l > num_layers net then invalid_arg "Network.layer: out of range";
  net.layer_arr.(l - 1)

let dims net = Array.copy net.dims

let check_input net fn x =
  if Vec.dim x <> net.input_dim then
    invalid_arg
      (Printf.sprintf "Network.%s: expected input dim %d, got %d" fn
         net.input_dim (Vec.dim x))

let forward net x =
  check_input net "forward" x;
  Array.fold_left (fun acc l -> Layer.forward l acc) x net.layer_arr

let check_cut net cut =
  if cut < 0 || cut > num_layers net then
    invalid_arg (Printf.sprintf "Network: cut layer %d out of range" cut)

let forward_upto net ~cut x =
  check_cut net cut;
  check_input net "forward_upto" x;
  let acc = ref x in
  for l = 0 to cut - 1 do
    acc := Layer.forward net.layer_arr.(l) !acc
  done;
  !acc

let activation_buffers net =
  Array.mapi (fun l d -> if l = 0 then [||] else Vec.zeros d) net.dims

let activations_into net x acts =
  check_input net "activations" x;
  acts.(0) <- x;
  for l = 1 to num_layers net do
    Layer.forward_into net.layer_arr.(l - 1) acts.(l - 1) acts.(l)
  done

let activations net x =
  let acts = activation_buffers net in
  activations_into net x acts;
  acts

let prefix net ~cut =
  check_cut net cut;
  {
    input_dim = net.input_dim;
    layer_arr = Array.sub net.layer_arr 0 cut;
    dims = Array.sub net.dims 0 (cut + 1);
  }

let suffix net ~cut =
  check_cut net cut;
  let n = num_layers net in
  {
    input_dim = net.dims.(cut);
    layer_arr = Array.sub net.layer_arr cut (n - cut);
    dims = Array.sub net.dims cut (n - cut + 1);
  }

let insert_layer net ~after l =
  check_cut net after;
  let before = Array.sub net.layer_arr 0 after in
  let rest =
    Array.sub net.layer_arr after (Array.length net.layer_arr - after)
  in
  let layer_arr = Array.concat [ before; [| l |]; rest ] in
  {
    net with
    layer_arr;
    dims = compute_dims ~input_dim:net.input_dim layer_arr;
  }

let append net l =
  let layer_arr = Array.append net.layer_arr [| l |] in
  {
    net with
    layer_arr;
    dims = compute_dims ~input_dim:net.input_dim layer_arr;
  }

let stack f g =
  if output_dim f <> input_dim g then
    invalid_arg
      (Printf.sprintf "Network.stack: %d-dim output vs %d-dim input"
         (output_dim f) (input_dim g));
  let layer_arr = Array.append f.layer_arr g.layer_arr in
  { f with layer_arr; dims = compute_dims ~input_dim:f.input_dim layer_arr }

let num_parameters net =
  Array.fold_left
    (fun acc l ->
      match l with
      | Layer.Dense { weights; bias } | Layer.Conv2d { weights; bias; _ } ->
          acc
          + (Dpv_tensor.Mat.rows weights * Dpv_tensor.Mat.cols weights)
          + Vec.dim bias
      | Layer.Batch_norm { gamma; beta; _ } -> acc + Vec.dim gamma + Vec.dim beta
      | Layer.Relu | Layer.Sigmoid | Layer.Tanh -> acc)
    0 net.layer_arr

let is_piecewise_linear net =
  Array.for_all Layer.is_piecewise_linear net.layer_arr

let pp fmt net =
  Format.fprintf fmt "@[<h>net(%d" net.input_dim;
  Array.iter (fun l -> Format.fprintf fmt " -> %a" Layer.pp l) net.layer_arr;
  Format.fprintf fmt ")@]"
