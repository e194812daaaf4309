(** Mini-batch training loop.

    Training mutates the given network's parameter arrays in place and
    also refreshes batch-norm running statistics from each mini-batch
    (exponential moving average with [bn_momentum]). *)

type config = {
  epochs : int;
  batch_size : int;
  loss : Loss.t;
  bn_momentum : float;  (** EMA factor for batch-norm statistics, e.g. 0.1 *)
  shuffle_each_epoch : bool;
}

val default_config : config
(** 50 epochs, batch 32, MSE, bn_momentum 0.1, shuffling on. *)

type history = { epoch_losses : float array }

val fit :
  ?on_epoch:(epoch:int -> loss:float -> unit) ->
  ?rng:Dpv_tensor.Rng.t ->
  config ->
  Optimizer.t ->
  Dpv_nn.Network.t ->
  Dataset.t ->
  history

val binary_accuracy : Dpv_nn.Network.t -> Dataset.t -> float
(** For 1-dim logit outputs and 0/1 targets: fraction classified correctly
    with the decision threshold at logit 0. *)

val regression_mae : Dpv_nn.Network.t -> Dataset.t -> float array
(** Per-output mean absolute error. *)

val insert_identity_batch_norm :
  Dpv_nn.Network.t -> inputs:Dpv_tensor.Vec.t array -> Dpv_nn.Network.t
(** Insert a batch-norm layer after every hidden Dense layer (each Dense
    except the output layer), with [mean]/[var] measured over the given
    inputs and [gamma]/[beta] calibrated so the inserted layer is exactly
    the identity.  The returned network computes the same function; a
    short fine-tuning pass then trains the BN parameters away from
    identity.  This is how a deployed inference network acquires BN
    layers from pre-trained statistics. *)
