(** Backpropagation through a {!Dpv_nn.Network}.

    Batch-norm layers use their stored (running) statistics during the
    forward pass — "frozen-statistics" batch norm — so the backward pass
    treats the normalization as a fixed per-dimension affine map and only
    [gamma]/[beta] receive gradients.  The running statistics themselves
    are refreshed per batch by {!Trainer}. *)

type layer_grad =
  | Dense_grad of { d_weights : Dpv_tensor.Mat.t; d_bias : Dpv_tensor.Vec.t }
  | Bn_grad of { d_gamma : Dpv_tensor.Vec.t; d_beta : Dpv_tensor.Vec.t }
  | No_grad

type t = layer_grad array
(** One entry per network layer, in layer order. *)

val zeros : Dpv_nn.Network.t -> t

val fill : t -> float -> unit
(** Sets every entry, in place. *)

val backward :
  Dpv_nn.Network.t ->
  activations:Dpv_tensor.Vec.t array ->
  d_output:Dpv_tensor.Vec.t ->
  t * Dpv_tensor.Vec.t
(** [backward net ~activations ~d_output] returns per-layer parameter
    gradients and the gradient w.r.t. the network input.  [activations]
    must come from {!Dpv_nn.Network.activations} on the same input. *)

type workspace
(** Per-network buffers of {!backprop}: the upstream gradient at every
    layer boundary and per-sample conv gradients. *)

val workspace : Dpv_nn.Network.t -> workspace

val backprop :
  workspace ->
  Dpv_nn.Network.t ->
  activations:Dpv_tensor.Vec.t array ->
  d_output:Dpv_tensor.Vec.t ->
  into:t ->
  input_grad:bool ->
  unit
(** The kernel behind {!backward}: adds the parameter gradients of one
    example into [into], allocating nothing.  [input_grad = false] skips
    the gradient w.r.t. the network input, which only {!backward}
    returns. *)

val accumulate : into:t -> t -> unit

val scale : t -> float -> unit
(** Multiplies every entry, in place. *)

val sample_gradient :
  Dpv_nn.Network.t -> Loss.t -> input:Dpv_tensor.Vec.t -> target:Dpv_tensor.Vec.t -> float * t
(** Loss value and parameter gradient for a single example. *)
