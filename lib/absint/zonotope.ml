module Layer = Dpv_nn.Layer
module Network = Dpv_nn.Network
module Mat = Dpv_tensor.Mat
module Vec = Dpv_tensor.Vec

(* generators.(k).(i) is the i-th coordinate of the k-th generator. *)
type t = { center : Vec.t; generators : Vec.t array }

let dim z = Vec.dim z.center

let of_box box =
  let d = Array.length box in
  let center = Array.map Interval.center box in
  let generators =
    Array.init d (fun k ->
        let g = Vec.zeros d in
        let r = Interval.radius box.(k) in
        if not (Float.is_finite r) then
          invalid_arg "Zonotope.of_box: unbounded side";
        g.(k) <- r;
        g)
  in
  { center; generators }

let concretize_bounds z ~dim:i =
  let r =
    Array.fold_left (fun acc g -> acc +. Float.abs g.(i)) 0.0 z.generators
  in
  Interval.make ~lo:(z.center.(i) -. r) ~hi:(z.center.(i) +. r)

let to_box z = Array.init (dim z) (fun i -> concretize_bounds z ~dim:i)

let affine_dense weights bias z =
  {
    center = Vec.add (Mat.matvec weights z.center) bias;
    generators = Array.map (Mat.matvec weights) z.generators;
  }

let affine_diag scale shift z =
  {
    center = Vec.init (dim z) (fun i -> (scale.(i) *. z.center.(i)) +. shift.(i));
    generators =
      Array.map
        (fun g -> Vec.init (dim z) (fun i -> scale.(i) *. g.(i)))
        z.generators;
  }

(* DeepZ ReLU: per dimension with bounds [l,u],
   - u <= 0: the output is constantly 0;
   - l >= 0: identity;
   - l < 0 < u: y = lambda*x + mu +/- mu with lambda = u/(u-l) and
     mu = -lambda*l/2, introducing one fresh generator per crossing
     dimension. *)
let relu z =
  let d = dim z in
  let bounds = Array.init d (fun i -> concretize_bounds z ~dim:i) in
  let center = Vec.copy z.center in
  let generators = Array.map Vec.copy z.generators in
  let fresh = ref [] in
  for i = 0 to d - 1 do
    let { Interval.lo = l; hi = u } = bounds.(i) in
    if u <= 0.0 then begin
      center.(i) <- 0.0;
      Array.iter (fun g -> g.(i) <- 0.0) generators
    end
    else if l < 0.0 then begin
      let lambda = u /. (u -. l) in
      let mu = -.lambda *. l /. 2.0 in
      center.(i) <- (lambda *. center.(i)) +. mu;
      Array.iter (fun g -> g.(i) <- lambda *. g.(i)) generators;
      let g_new = Vec.zeros d in
      g_new.(i) <- mu;
      fresh := g_new :: !fresh
    end
  done;
  { center; generators = Array.append generators (Array.of_list !fresh) }

(* Sound fallback for smooth activations: replace each dimension by an
   independent interval enclosure (kills correlations for that dim). *)
let pointwise_monotone f z =
  let box = to_box z in
  let image = Array.map (Interval.monotone f) box in
  let d = dim z in
  let center = Array.map Interval.center image in
  let generators =
    Array.to_list image
    |> List.mapi (fun i iv ->
           let g = Vec.zeros d in
           g.(i) <- Interval.radius iv;
           g)
    |> Array.of_list
  in
  { center; generators }

let rec transfer_layer layer z =
  match layer with
  | Layer.Conv2d _ -> transfer_layer (Layer.lower_to_dense layer) z
  | Layer.Dense { weights; bias } -> affine_dense weights bias z
  | Layer.Relu -> relu z
  | Layer.Sigmoid -> pointwise_monotone (fun x -> 1.0 /. (1.0 +. exp (-.x))) z
  | Layer.Tanh -> pointwise_monotone tanh z
  | Layer.Batch_norm _ -> (
      match Layer.batch_norm_scale_shift layer with
      | Some (scale, shift) -> affine_diag scale shift z
      | None -> assert false)

let propagate_all net z =
  if dim z <> Network.input_dim net then
    invalid_arg "Zonotope.propagate_all: wrong input dimension";
  let n = Network.num_layers net in
  let out = Array.make (n + 1) (to_box z) in
  let cur = ref z in
  for l = 1 to n do
    cur := transfer_layer (Network.layer net l) !cur;
    out.(l) <- to_box !cur
  done;
  out
