(** Feed-forward network layers.

    The layer set mirrors what the paper's verification needs: affine
    layers ([Dense], [Batch_norm]) and piecewise-linear / sigmoidal
    activations.  [Batch_norm] is in inference form — a per-dimension
    affine transform with stored statistics — which is exactly what the
    MILP encoding consumes; during training the statistics are updated as
    running averages (see {!Dpv_train}). *)

(** Convolution geometry.  Inputs and outputs are flat vectors in
    channel-major layout: index [c*(h*w) + y*w + x]. *)
type conv_shape = {
  in_channels : int;
  in_height : int;
  in_width : int;
  out_channels : int;
  kernel_h : int;
  kernel_w : int;
  stride : int;
  padding : int;  (** symmetric zero padding *)
}

type t =
  | Dense of { weights : Dpv_tensor.Mat.t; bias : Dpv_tensor.Vec.t }
      (** [y = W x + b]; [W] is [out_dim x in_dim]. *)
  | Conv2d of {
      shape : conv_shape;
      weights : Dpv_tensor.Mat.t;
          (** [out_channels x (in_channels*kernel_h*kernel_w)]; row [oc],
              column [ic*kh*kw + ky*kw + kx]. *)
      bias : Dpv_tensor.Vec.t;  (** one per output channel *)
    }  (** 2-D convolution — an affine map, verified via {!lower_to_dense}. *)
  | Relu
  | Sigmoid
  | Tanh
  | Batch_norm of {
      gamma : Dpv_tensor.Vec.t;
      beta : Dpv_tensor.Vec.t;
      mean : Dpv_tensor.Vec.t;
      var : Dpv_tensor.Vec.t;
      eps : float;
    }  (** [y_i = gamma_i * (x_i - mean_i) / sqrt(var_i + eps) + beta_i]. *)

val forward : t -> Dpv_tensor.Vec.t -> Dpv_tensor.Vec.t

val forward_into : t -> Dpv_tensor.Vec.t -> Dpv_tensor.Vec.t -> unit
(** [forward_into layer x out] writes [forward layer x] to [out], which
    must have the layer's output dimension and must not be [x]. *)

val in_dim : t -> int option
(** [None] for shape-preserving activation layers. *)

val out_dim : t -> int option

val out_dim_given : t -> int -> int
(** Output dimension when fed an input of the given dimension; raises
    [Invalid_argument] on a shape mismatch. *)

val is_affine : t -> bool
(** True for layers that are affine maps ([Dense], [Batch_norm]). *)

val is_piecewise_linear : t -> bool
(** True for layers encodable exactly in a MILP ([Dense], [Batch_norm],
    [Relu]). *)

val batch_norm_scale_shift :
  t -> (Dpv_tensor.Vec.t * Dpv_tensor.Vec.t) option
(** For a [Batch_norm] layer, the equivalent per-dimension [(scale, shift)]
    pair with [y_i = scale_i * x_i + shift_i]; [None] otherwise. *)

val dense : weights:Dpv_tensor.Mat.t -> bias:Dpv_tensor.Vec.t -> t
(** Checked constructor: bias length must equal the weight row count. *)

val conv2d :
  shape:conv_shape -> weights:Dpv_tensor.Mat.t -> bias:Dpv_tensor.Vec.t -> t
(** Checked constructor: weight matrix must be
    [out_channels x (in_channels*kernel_h*kernel_w)], bias one per output
    channel, and the geometry must produce positive output dimensions. *)

val conv_out_height : conv_shape -> int
val conv_out_width : conv_shape -> int

val lower_to_dense : t -> t
(** The equivalent [Dense] layer of an affine layer ([Conv2d] is
    materialized as its — sparse but stored dense — matrix; [Dense] is
    returned as-is; [Batch_norm] becomes its diagonal matrix).  Raises
    [Invalid_argument] on non-affine layers.  Used by the abstract
    domains and the MILP encoder, which only understand matrices. *)

val batch_norm_identity : int -> t
(** Fresh batch-norm layer with gamma=1, beta=0, mean=0, var=1. *)

val name : t -> string
val pp : Format.formatter -> t -> unit
