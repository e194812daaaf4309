module Layer = Dpv_nn.Layer
module Network = Dpv_nn.Network
module Mat = Dpv_tensor.Mat
module Vec = Dpv_tensor.Vec
module Rng = Dpv_tensor.Rng

type t = Interval.t array

let uniform ~dim ~lo ~hi = Array.init dim (fun _ -> Interval.make ~lo ~hi)

let of_points points =
  if Array.length points = 0 then invalid_arg "Box_domain.of_points: empty";
  let mm = Dpv_tensor.Stats.columnwise_min_max points in
  Array.map Interval.of_pair mm

let contains box x =
  Array.length box = Vec.dim x
  &&
  let ok = ref true in
  Array.iteri (fun i iv -> if not (Interval.contains iv x.(i)) then ok := false) box;
  !ok

let same_box (a : t) (b : t) =
  let rec same_from i =
    i = Array.length a
    || (let x = a.(i) and y = b.(i) in
        Int64.(
          bits_of_float x.Interval.lo = bits_of_float y.Interval.lo
          && bits_of_float x.Interval.hi = bits_of_float y.Interval.hi))
       && same_from (i + 1)
  in
  Array.length a = Array.length b && same_from 0

let widths = Array.map Interval.width
let mean_width box = Dpv_tensor.Stats.mean (widths box)

let sample rng box =
  Array.map
    (fun (iv : Interval.t) ->
      if Float.is_finite iv.lo && Float.is_finite iv.hi then
        Rng.uniform rng ~lo:iv.lo ~hi:iv.hi
      else invalid_arg "Box_domain.sample: unbounded side")
    box

let rec transfer_layer layer box =
  match layer with
  | Layer.Conv2d _ -> transfer_layer (Layer.lower_to_dense layer) box
  | Layer.Dense { weights; bias } ->
      Array.init (Mat.rows weights) (fun i ->
          Interval.add
            (Interval.dot (Mat.row weights i) box)
            (Interval.point bias.(i)))
  | Layer.Relu -> Array.map Interval.relu box
  | Layer.Sigmoid -> Array.map Interval.sigmoid box
  | Layer.Tanh -> Array.map Interval.tanh_interval box
  | Layer.Batch_norm _ -> (
      match Layer.batch_norm_scale_shift layer with
      | Some (scale, shift) ->
          Array.mapi
            (fun i iv ->
              Interval.add (Interval.scale scale.(i) iv) (Interval.point shift.(i)))
            box
      | None -> assert false)

let propagate_all net box =
  if Array.length box <> Network.input_dim net then
    invalid_arg "Box_domain.propagate_all: wrong input dimension";
  let n = Network.num_layers net in
  let out = Array.make (n + 1) box in
  for l = 1 to n do
    out.(l) <- transfer_layer (Network.layer net l) out.(l - 1)
  done;
  out
