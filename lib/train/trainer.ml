module Vec = Dpv_tensor.Vec
module Rng = Dpv_tensor.Rng
module Layer = Dpv_nn.Layer
module Network = Dpv_nn.Network

type config = {
  epochs : int;
  batch_size : int;
  loss : Loss.t;
  bn_momentum : float;
  shuffle_each_epoch : bool;
}

let default_config =
  {
    epochs = 50;
    batch_size = 32;
    loss = Loss.Mse;
    bn_momentum = 0.1;
    shuffle_each_epoch = true;
  }

type history = { epoch_losses : float array }

(* The buffers one [fit] call reuses for every sample: a forward pass's
   activations, the backward workspace, the batch gradient totals and,
   for each batch-norm layer, one row per batch slot holding that
   layer's input. *)
type workspace = {
  acts : Vec.t array;
  backward : Grad.workspace;
  total : Grad.t;
  bn_rows : Vec.t array array;  (* by layer index - 1; empty unless BN *)
}

let workspace net ~batch_size =
  {
    acts = Network.activation_buffers net;
    backward = Grad.workspace net;
    total = Grad.zeros net;
    bn_rows =
      Array.init (Network.num_layers net) (fun i ->
          match Network.layer net (i + 1) with
          | Layer.Batch_norm { gamma; _ } ->
              Array.init batch_size (fun _ -> Vec.zeros (Vec.dim gamma))
          | Layer.Dense _ | Layer.Conv2d _ | Layer.Relu | Layer.Sigmoid
          | Layer.Tanh ->
              [||]);
  }

(* Refresh batch-norm running statistics: every BN layer's stored
   mean/var move by EMA towards the statistics of the inputs it saw in
   this batch.  All inputs are measured before any statistic changes.
   The first batch sets the statistics outright (momentum 1), otherwise
   the stats start at (0, 1) and lag the real activation distribution
   long enough to stall training.  The parameter vectors live inside
   the layer and are mutated in place. *)
let update_bn_stats ws net ~momentum batch =
  let len = Array.length batch in
  for k = 0 to len - 1 do
    Network.activations_into net (fst batch.(k)) ws.acts;
    for i = 0 to Array.length ws.bn_rows - 1 do
      let rows = ws.bn_rows.(i) in
      if Array.length rows > 0 then
        Array.blit ws.acts.(i) 0 rows.(k) 0 (Vec.dim rows.(k))
    done
  done;
  for l = 1 to Network.num_layers net do
    match Network.layer net l with
    | Layer.Batch_norm { mean; var; _ } ->
        let rows = Array.sub ws.bn_rows.(l - 1) 0 len in
        let batch_mean = Dpv_tensor.Stats.columnwise_mean rows in
        let batch_std = Dpv_tensor.Stats.columnwise_std rows in
        for i = 0 to Vec.dim mean - 1 do
          mean.(i) <- ((1.0 -. momentum) *. mean.(i)) +. (momentum *. batch_mean.(i));
          let bv = batch_std.(i) *. batch_std.(i) in
          var.(i) <- ((1.0 -. momentum) *. var.(i)) +. (momentum *. bv)
        done
    | Layer.Dense _ | Layer.Conv2d _ | Layer.Relu | Layer.Sigmoid
    | Layer.Tanh ->
        ()
  done

let train_batch ws config optimizer net ~first_batch batch =
  (* Batch-norm layers normalize with statistics refreshed from the
     *current* batch before the gradient pass (a standard approximation:
     gradients do not flow through the statistics themselves).  The first
     batch sets the statistics outright. *)
  if Array.exists (fun rows -> Array.length rows > 0) ws.bn_rows then begin
    let momentum = if first_batch then 1.0 else config.bn_momentum in
    update_bn_stats ws net ~momentum batch
  end;
  Grad.fill ws.total 0.0;
  let n_layers = Network.num_layers net in
  let loss_sum = ref 0.0 in
  for k = 0 to Array.length batch - 1 do
    let input, target = batch.(k) in
    Network.activations_into net input ws.acts;
    let output = ws.acts.(n_layers) in
    loss_sum := !loss_sum +. Loss.value config.loss ~output ~target;
    let d_output = Loss.gradient config.loss ~output ~target in
    Grad.backprop ws.backward net ~activations:ws.acts ~d_output ~into:ws.total
      ~input_grad:false
  done;
  let n = float_of_int (Array.length batch) in
  Grad.scale ws.total (1.0 /. n);
  Optimizer.step optimizer net ws.total;
  !loss_sum /. n

let fit ?on_epoch ?rng config optimizer net dataset =
  let rng = match rng with Some r -> r | None -> Rng.create 0 in
  let ws =
    workspace net
      ~batch_size:(Stdlib.min config.batch_size (Dataset.size dataset))
  in
  let epoch_losses = Array.make config.epochs 0.0 in
  for epoch = 0 to config.epochs - 1 do
    let data =
      if config.shuffle_each_epoch then Dataset.shuffle rng dataset else dataset
    in
    let batches = Dataset.batches data ~batch_size:config.batch_size in
    let loss_acc = ref 0.0 in
    Array.iteri
      (fun b batch ->
        let first_batch = epoch = 0 && b = 0 in
        loss_acc :=
          !loss_acc +. train_batch ws config optimizer net ~first_batch batch)
      batches;
    let mean_loss = !loss_acc /. float_of_int (Array.length batches) in
    epoch_losses.(epoch) <- mean_loss;
    match on_epoch with
    | Some f -> f ~epoch ~loss:mean_loss
    | None -> ()
  done;
  { epoch_losses }

let binary_accuracy net dataset =
  if Dataset.target_dim dataset <> 1 then
    invalid_arg "Trainer.binary_accuracy: 1-dim targets required";
  let acts = Network.activation_buffers net in
  let n = Network.num_layers net in
  let correct = ref 0 in
  for i = 0 to Dataset.size dataset - 1 do
    Network.activations_into net dataset.Dataset.inputs.(i) acts;
    let logit = acts.(n).(0) in
    let predicted = if logit >= 0.0 then 1.0 else 0.0 in
    if predicted = dataset.Dataset.targets.(i).(0) then incr correct
  done;
  float_of_int !correct /. float_of_int (Dataset.size dataset)

let insert_identity_batch_norm net ~inputs =
  if Array.length inputs = 0 then
    invalid_arg "Trainer.insert_identity_batch_norm: no inputs";
  let n = Network.num_layers net in
  (* Hidden Dense layers are all Dense layers except the last layer of
     the network (the regression / logit head). *)
  let is_hidden_dense l =
    l < n
    &&
    match Network.layer net l with
    | Layer.Dense _ -> true
    | Layer.Conv2d _ | Layer.Batch_norm _ | Layer.Relu | Layer.Sigmoid
    | Layer.Tanh ->
        false
  in
  let all_activations = Array.map (Network.activations net) inputs in
  (* Insert from the deepest layer backwards so indices stay valid. *)
  let rec go net l =
    if l = 0 then net
    else if is_hidden_dense l then begin
      let rows = Array.map (fun acts -> acts.(l)) all_activations in
      let mean = Dpv_tensor.Stats.columnwise_mean rows in
      let std = Dpv_tensor.Stats.columnwise_std rows in
      let eps = 1e-5 in
      let var = Array.map (fun s -> s *. s) std in
      let gamma = Array.map (fun v -> sqrt (v +. eps)) var in
      let beta = Array.copy mean in
      let bn = Layer.Batch_norm { gamma; beta; mean; var; eps } in
      go (Network.insert_layer net ~after:l bn) (l - 1)
    end
    else go net (l - 1)
  in
  go net n

let regression_mae net dataset =
  let d = Dataset.target_dim dataset in
  let acc = Array.make d 0.0 in
  for i = 0 to Dataset.size dataset - 1 do
    let output = Network.forward net dataset.Dataset.inputs.(i) in
    for j = 0 to d - 1 do
      acc.(j) <- acc.(j) +. Float.abs (output.(j) -. dataset.Dataset.targets.(i).(j))
    done
  done;
  Array.map (fun s -> s /. float_of_int (Dataset.size dataset)) acc
