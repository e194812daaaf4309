(** First-order optimizers.

    An optimizer owns mutable per-parameter state (momentum / Adam
    moments) shaped like the network it was created for, and applies
    gradient updates *in place* on the network's parameter arrays. *)

type t

val sgd : lr:float -> Dpv_nn.Network.t -> t
val momentum : lr:float -> mu:float -> Dpv_nn.Network.t -> t
val adam :
  ?beta1:float -> ?beta2:float -> ?eps:float -> lr:float -> Dpv_nn.Network.t -> t

val step : t -> Dpv_nn.Network.t -> Grad.t -> unit
(** Applies one update.  The network must be the one the optimizer was
    created for (same parameter shapes). *)

val set_lr : t -> float -> unit
val lr : t -> float
