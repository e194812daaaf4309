module Vec = Dpv_tensor.Vec
module Rng = Dpv_tensor.Rng

type t = { inputs : Vec.t array; targets : Vec.t array }

let create ~inputs ~targets =
  let n = Array.length inputs in
  if n = 0 then invalid_arg "Dataset.create: empty";
  if Array.length targets <> n then
    invalid_arg "Dataset.create: inputs/targets length mismatch";
  let di = Vec.dim inputs.(0) and dt = Vec.dim targets.(0) in
  Array.iter
    (fun x -> if Vec.dim x <> di then invalid_arg "Dataset: ragged inputs")
    inputs;
  Array.iter
    (fun y -> if Vec.dim y <> dt then invalid_arg "Dataset: ragged targets")
    targets;
  { inputs; targets }

let size d = Array.length d.inputs
let input_dim d = Vec.dim d.inputs.(0)
let target_dim d = Vec.dim d.targets.(0)

let of_labelled pairs =
  create
    ~inputs:(Array.map fst pairs)
    ~targets:(Array.map (fun (_, c) -> [| c |]) pairs)

let permutation rng n =
  let idx = Array.init n (fun i -> i) in
  Rng.shuffle_in_place rng idx;
  idx

let subset d ~indices =
  create
    ~inputs:(Array.map (fun i -> d.inputs.(i)) indices)
    ~targets:(Array.map (fun i -> d.targets.(i)) indices)

let shuffle rng d = subset d ~indices:(permutation rng (size d))

let split rng d ~train_fraction =
  let n = size d in
  let n_train =
    Stdlib.max 1 (Stdlib.min (n - 1) (int_of_float (train_fraction *. float_of_int n)))
  in
  if n < 2 then invalid_arg "Dataset.split: need at least 2 examples";
  let idx = permutation rng n in
  ( subset d ~indices:(Array.sub idx 0 n_train),
    subset d ~indices:(Array.sub idx n_train (n - n_train)) )

let batches d ~batch_size =
  if batch_size <= 0 then invalid_arg "Dataset.batches: batch_size <= 0";
  let n = size d in
  let n_batches = (n + batch_size - 1) / batch_size in
  Array.init n_batches (fun b ->
      let start = b * batch_size in
      let len = Stdlib.min batch_size (n - start) in
      Array.init len (fun k -> (d.inputs.(start + k), d.targets.(start + k))))

let class_balance d =
  if target_dim d <> 1 then invalid_arg "Dataset.class_balance: 1-dim targets only";
  let pos =
    Array.fold_left (fun acc y -> if y.(0) > 0.5 then acc + 1 else acc) 0 d.targets
  in
  float_of_int pos /. float_of_int (size d)
