(** Feed-forward networks as layer sequences.

    Layer indices follow the paper: a network has layers [1 .. L]; the
    output of layer [l] on input [in] is [f^(l)(in)].  Index [0] denotes
    the input itself.  [prefix] / [suffix] split the network at a cut
    layer [l], which is the core abstraction of the verification workflow
    (analyze the suffix only, Lemma 1). *)

type t

val create : input_dim:int -> Layer.t list -> t
(** Validates the layer chain shape; raises [Invalid_argument] on
    mismatch. *)

val input_dim : t -> int
val output_dim : t -> int
val num_layers : t -> int
val layers : t -> Layer.t list
val layer : t -> int -> Layer.t
(** 1-based, as in the paper. *)

val dims : t -> int array
(** [dims net] has length [num_layers + 1]; entry [l] is the dimension of
    layer [l]'s output (entry 0 is the input dimension). *)

val forward : t -> Dpv_tensor.Vec.t -> Dpv_tensor.Vec.t
(** [f^(L)]. *)

val forward_upto : t -> cut:int -> Dpv_tensor.Vec.t -> Dpv_tensor.Vec.t
(** [forward_upto net ~cut x] is [f^(cut)(x)]; [cut = 0] returns [x].
    Like {!forward}, raises [Invalid_argument] naming the network's input
    dimension when [x] has another. *)

val activations : t -> Dpv_tensor.Vec.t -> Dpv_tensor.Vec.t array
(** All intermediate values: index [l] holds [f^(l)(x)], index 0 the input. *)

val activation_buffers : t -> Dpv_tensor.Vec.t array
(** Fresh buffers for {!activations_into}: index [l >= 1] has [dims.(l)]
    entries. *)

val activations_into : t -> Dpv_tensor.Vec.t -> Dpv_tensor.Vec.t array -> unit
(** [activations_into net x acts] stores [x] at index 0 of [acts] and
    writes [f^(l)(x)] into the buffer at index [l], so [acts] then holds
    what {!activations} returns.  [acts] must come from
    {!activation_buffers} on a network of the same shape. *)

val prefix : t -> cut:int -> t
(** Layers [1 .. cut] as a standalone network. *)

val suffix : t -> cut:int -> t
(** Layers [cut+1 .. L]; its input dimension is [d_cut]. *)

val append : t -> Layer.t -> t

(** [insert_layer net ~after:l layer] places [layer] between layers [l]
    and [l+1] (so it consumes [f^(l)]); [after = 0] prepends.  Shapes are
    re-validated. *)
val insert_layer : t -> after:int -> Layer.t -> t
val stack : t -> t -> t
(** [stack f g] runs [f] then [g]; output dim of [f] must match input dim
    of [g]. *)

val num_parameters : t -> int

val is_piecewise_linear : t -> bool
(** All layers MILP-encodable exactly. *)

val pp : Format.formatter -> t -> unit
