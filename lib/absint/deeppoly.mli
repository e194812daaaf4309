(** Symbolic-bounds abstract domain (DeepPoly-style).

    Every neuron of the current layer carries two affine expressions over
    the *input* variables — a symbolic lower and upper bound — plus the
    input box to concretize them.  Affine layers transform the
    expressions exactly; ReLU uses the DeepPoly relaxation (upper chord
    [u(x-l)/(u-l)], lower [x] or [0] by minimal area), substituting the
    pre-activation's own symbolic bounds.

    Compared to the zonotope domain this keeps bound *direction*
    information per neuron rather than shared noise symbols; on typical
    ReLU networks the two are incomparable, so the library offers both
    (the paper's related work names box, octagon and zonotope; symbolic
    propagation is its reference [20]). *)

val propagate_all : Dpv_nn.Network.t -> Box_domain.t -> Box_domain.t array
(** Interval enclosures at every layer (index 0 = the input box): a
    fresh {!Resumable} state propagated once with every ReLU phase
    [Unknown].  The box's sides must be finite. *)

type phase = Active | Inactive | Unknown
(** One ReLU neuron's phase as fixed by an external search:
    [Active] asserts pre-activation [x >= 0] (so [y = x]), [Inactive]
    asserts [x <= 0] (so [y = 0]), [Unknown] leaves the ordinary
    DeepPoly relaxation in place. *)

(** In-place propagation, resumable for callers that re-propagate the
    same network many times under slowly-changing phase fixings (the
    branch-and-bound guide).  A {!Resumable.state} keeps one
    preallocated buffer per layer; {!Resumable.propagate} re-runs only
    the layers past {!Resumable.valid}, and the caller rolls [valid]
    back with {!Resumable.invalidate_from} when a shallower fixing
    changes.  A resumed propagation is bit-identical to a from-scratch
    one, and steady-state propagation allocates nothing.

    This is the library's only DeepPoly implementation.  The test
    suite keeps the immutable, one-record-per-layer transfers it was
    written against ([test/deeppoly_reference.ml]) and checks that
    every kernel matches them bit for bit: same accumulation order,
    same guards, same nan fallbacks ([propagate] with all-[Unknown]
    phases against the reference [propagate_all], with fixings against
    its [transfer_relu_fixed]). *)
module Resumable : sig
  type plan
  (** Immutable per-network propagation recipe (Conv2d pre-lowered to
      dense).  Sharable across states and domains. *)

  type state
  (** Mutable per-instance buffers.  Not thread-safe; confine each
      state to one domain at a time. *)

  val plan : Dpv_nn.Network.t -> plan
  val num_layers : plan -> int

  val layer_dim : plan -> int -> int
  (** Output dimension of layer [l] ([layer_dim p 0] = input). *)

  val is_relu : plan -> int -> bool
  (** Whether 1-based layer [l] is a ReLU. *)

  val create : plan -> Box_domain.t -> state
  (** Buffers for propagating [plan] from the given (finite-sided)
      input box, with one cached state per layer. *)

  val valid : state -> int
  (** Deepest cached layer whose state is current (0 after [create]:
      only the input layer). *)

  val invalidate_from : state -> int -> unit
  (** [invalidate_from st l] marks layers [>= l] stale (e.g. the phase
      fixings of ReLU layer [l] changed), so the next [propagate]
      resumes from [l]. *)

  val propagate : state -> phases:(int -> phase array) -> int
  (** Re-propagate layers [valid + 1 .. num_layers].  [phases l] is
      consulted for each ReLU layer [l] transferred and must return one
      phase per neuron; the engine guarantees layer [l - 1]'s bounds
      are readable (via {!conc_view}) when it asks, and only reads the
      array during the call.  Returns the number of layers transferred.
      When a fixing contradicts the propagated pre-activation bounds
      (strictly: [Inactive] with [lo > 0], [Active] with [hi < 0]; the
      [x = 0] boundary is feasible under either phase) the region is
      empty: the run stops at the contradicting layer, {!last_empty}
      turns true, and deeper states are invalid. *)

  val last_empty : state -> bool

  val conc_view : state -> layer:int -> float array * float array
  (** Borrowed [(lower, upper)] concrete bounds of a materialized
      layer; valid until the next [propagate].  Raises [Invalid_argument]
      for a layer that is neither validly cached nor just computed. *)

  val conc_lo : state -> layer:int -> int -> float
  val conc_hi : state -> layer:int -> int -> float

  val box_of_layer : state -> int -> Box_domain.t
  (** Fresh interval copy of a materialized layer's bounds. *)

  val output_box : state -> Box_domain.t
  (** [box_of_layer] at the last layer. *)
end
