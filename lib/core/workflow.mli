(** End-to-end verification workflow (Figure 1).

    Ties together every substrate: sample scenes from the simulator,
    train the direct perception network, train an input property
    characterizer at a close-to-output layer, derive the region [S]
    (statically or from visited values), run the MILP query, and
    estimate the statistical guarantee.  Examples and benchmarks drive
    the paper's experiments through this module. *)

type architecture =
  | Mlp  (** Dense-BN-ReLU blocks (after BN insertion) *)
  | Cnn of int list
      (** stride-2 3x3 Conv-ReLU blocks (one per channel count) feeding a
          Dense-BN-ReLU head — the structural shape of the paper's direct
          perception network *)

type setup = {
  scenario : Dpv_scenario.Generator.config;
  seed : int;
  architecture : architecture;
  hidden : int list;          (** perception hidden sizes (Dense-BN-ReLU blocks) *)
  perception_epochs : int;
  perception_lr : float;
  train_size : int;           (** affordance training frames *)
  val_size : int;
  cut : int;                  (** cut layer for the characterizer *)
  characterizer_samples : int;(** frames for characterizer training (balanced) *)
  bounds_samples : int;       (** frames whose features define S~ *)
}

val default_setup : setup
(** MLP, hidden [32;16;8] (10 layers), cut 9 (the last ReLU, dim 8), seed 7. *)

val cnn_setup : ?channels:int list -> ?hidden:int list -> setup -> setup
(** Switch a setup to the CNN architecture (default channels [4;8],
    hidden [16;8]), recomputing the default cut to the deepest ReLU of
    the post-BN-insertion layout. *)

val cut_options : setup -> int list
(** The cut layers sitting after each ReLU block (of the final,
    post-BN-insertion layout), deepest first — candidates for the
    scalability sweep. *)

val relu_cuts : Dpv_nn.Network.t -> int list
(** ReLU layer indices of a concrete network, deepest first. *)

type cache = {
  cache_dir : string;  (** the model cache the perception came from *)
  perception_key : string;
      (** digest of the perception network's serialized content *)
}

type prepared = {
  setup : setup;
  perception : Dpv_nn.Network.t;
  final_train_loss : float;
  val_mae : float array;      (** per-output MAE on held-out frames *)
  bounds_features : Dpv_tensor.Vec.t array;
      (** [f^(cut)] over the bounds sample — the "visited neuron values" *)
  bounds_images : Dpv_tensor.Vec.t array;
      (** the frames behind [bounds_features] (kept so features can be
          recomputed at other cut layers) *)
  cache : cache option;
      (** where {!train_characterizer} keeps the heads it trains on
          [perception]: [Some] after {!prepare_cached}, [None] after
          {!prepare}.  A record update that replaces [perception] must
          also set this to [None]. *)
}

val prepare : ?quiet:bool -> setup -> prepared
(** Trains the perception network from scratch (deterministic in
    [setup.seed]).  The result has no [cache], so nothing trained on it
    is written anywhere. *)

val prepare_cached : ?quiet:bool -> cache_dir:string -> setup -> prepared
(** Like {!prepare} but persists the trained network under [cache_dir]
    (created with its parents if missing) keyed by the setup, so
    repeated runs (benches, examples) skip training.  Entries are
    written through a temporary file and a rename; an entry that fails
    to load, or whose network's input dimension is not this setup's
    image dimension, is a miss: it is retrained and overwritten.  A
    [cache_dir] that cannot be written costs only the training.  The
    result records [cache_dir], so the characterizers later trained on
    it are cached there too; this function itself writes only the
    perception entry. *)

val features_at : prepared -> cut:int -> Dpv_tensor.Vec.t array
(** Bounds features recomputed at a different cut layer. *)

(** Risk conditions in steering terms (left-positive lateral). *)

val psi_steer_far_left : ?threshold:float -> unit -> Dpv_spec.Risk.t
(** Waypoint suggests a strong left steer: [waypoint >= threshold]
    (default 2.5 m). *)

val psi_steer_far_right : ?threshold:float -> unit -> Dpv_spec.Risk.t

val psi_steer_straight : ?halfwidth:float -> unit -> Dpv_spec.Risk.t
(** Waypoint within the straight band [|waypoint| <= halfwidth]
    (default 0.5 m). *)

type strategy =
  | Static of Dpv_absint.Propagate.domain
      (** Lemma 2 with abstract interpretation from the image box. *)
  | Data_box      (** assume-guarantee, min/max box over visited values *)
  | Data_octagon  (** assume-guarantee, octagon polyhedron *)

val strategy_name : strategy -> string

type case_report = {
  property_name : string;
  psi : Dpv_spec.Risk.t;
  strategy : strategy;
  characterizer : Characterizer.t;
  characterizer_report : Characterizer.train_report;
  characterizer_val_accuracy : float;
  result : Verify.result;
  table : Statistical.table;
  omitted_unsafe : int;
}

val run_case :
  ?characterizer_config:Characterizer.train_config ->
  ?milp_options:Dpv_linprog.Milp.options ->
  ?cut:int ->
  ?absint:bool ->
  ?bisect:Verify.bisect_options ->
  prepared ->
  property:Dpv_scenario.Scene.t Dpv_spec.Property.t ->
  psi:Dpv_spec.Risk.t ->
  strategy:strategy ->
  case_report
(** The full Figure-1 pipeline for one [(phi, psi, S)] triple.  [cut]
    defaults to [setup.cut]; the characterizer comes from
    {!train_characterizer} (so from the model cache when [prepared] has
    one); [absint]/[bisect] pass through to {!Verify.verify}. *)

val train_characterizer :
  ?config:Characterizer.train_config ->
  ?cut:int ->
  prepared ->
  property:Dpv_scenario.Scene.t Dpv_spec.Property.t ->
  Characterizer.t * Characterizer.train_report * float
(** (characterizer, training report, validation accuracy) — the E3
    trainability probe without running verification.  [cut] defaults
    to [setup.cut].

    When [prepared] has a [cache], the triple is loaded from, or trained
    once and written to, an entry in that directory
    ([characterizer-<key>.net] and [.meta], both in exact hex floats),
    so a hit returns exactly the bits training would.  The key digests
    everything training reads: the perception network's content, the
    scenario config, [setup.seed], [setup.characterizer_samples], [cut],
    the property's name and the resolved [config].  An entry that fails
    to load, or whose head does not take the perception's width at
    [cut] or does not output one logit, is a miss: it is retrained and
    overwritten atomically, as perception entries are. *)

val image_box : prepared -> Dpv_absint.Box_domain.t
(** The input region for static analysis: all pixels in [0,1]. *)

val bounds_spec_of : prepared -> cut:int -> strategy -> Verify.bounds_spec
(** The {!Verify.bounds_spec} a strategy denotes for this prepared
    network at [cut]: the image box for [Static], the visited features
    at [cut] for the data-driven strategies.  This is exactly the value
    {!run_case} verifies over, so campaign queries built from it get
    the same regions (and the same verdicts) as one-by-one runs. *)
