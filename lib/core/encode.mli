(** MILP encoding of the verification query (Lemma 1/2 + Definition 1).

    The query: does there exist a cut-layer activation [n_l] in the
    region [S] such that the perception suffix maps it into the risk
    condition [psi] while the characterizer head reports [phi]
    (logit >= margin)?  The encoding is the big-M formulation of ref [3]
    (Cheng et al., ATVA'17): affine layers become equalities, each
    ReLU whose pre-activation interval crosses zero gets one binary
    phase variable, with the per-neuron interval bounds — propagated
    from [S] with the box domain — serving as big-M constants.

    The model also records how each network variable follows from the
    ones before it ({!Dpv_linprog.Lp.define}), next to its rows: one
    [Affine] definition per Dense and BatchNorm output, and one [Relu]
    definition per crossing ReLU (its output and phase binary).  The
    feature variables and the bound-stable ReLUs need none: the former
    are clamped into [S], a stable active ReLU reuses its input
    variable and a stable inactive one is bounded to 0.  So
    {!Dpv_linprog.Lp.complete} turns any point's features into the
    networks' own values, and the search can try each branching node's
    LP point as a witness.  The definitions live in the prefix and the
    memoized head rows, so every model {!complete} returns carries
    them, over a {!restrict_shared} sub-box too.

    Only piecewise-linear layers (Dense, BatchNorm, ReLU) are encodable;
    sigmoid/tanh layers raise [Invalid_argument]. *)

type t = {
  model : Dpv_linprog.Lp.t;
  feature_vars : Dpv_linprog.Lp.var array;  (** the [n_l] variables *)
  output_vars : Dpv_linprog.Lp.var array;   (** perception suffix outputs *)
  logit_var : Dpv_linprog.Lp.var;           (** characterizer logit *)
  num_binaries : int;                       (** ReLU phase indicators *)
  num_fixed_relus : int;                    (** ReLUs resolved by bounds *)
  head_relu_vars : (int * Dpv_linprog.Lp.var option array) list;
      (** binary phase variables of the characterizer head, one entry
          per ReLU layer (1-based layer index; [None] per neuron whose
          phase was resolved by bounds) — the map {!Absguide} uses to
          tie LP binaries back to head neurons *)
}

type shared
(** The query-independent prefix of an encoding: the feature-layer
    variables, the octagon faces, and the big-M encoding of the
    perception {e suffix} — everything determined by the
    [(cut, bounds)] pair alone.  Because {!Dpv_linprog.Lp.t} is a
    persistent structure, one [shared] value can be {!complete}d into
    any number of per-query models (different heads, margins, psi)
    without rebuilding or copying the suffix encoding.

    A prefix pays for each head and each sub-box once.  It keeps two
    memos, guarded by its own lock and kept as long as the prefix
    lives:
    - {!complete} remembers, per head, the prefix with the head's rows
      added.  Heads match under [compare]: the same value, or a
      structurally equal one (a NaN weight matches itself).  A later
      completion adds only the psi rows and the phi row.
    - {!restrict_shared} remembers the prefix it built over each
      sub-box.  Boxes match bit for bit ({!Dpv_absint.Box_domain.same_box}).

    A memo hit returns the model a fresh build would, row for row, so
    the search over it is the same.  A build that raises records
    nothing.  The memos keep the head and the box they were given, so
    neither may be mutated after its first use on a prefix. *)

val suffix_of_shared : shared -> Dpv_nn.Network.t
(** The suffix network captured at {!build_shared} time — callers replay
    witnesses through it without re-slicing the perception network. *)

val feature_box_of_shared : shared -> Dpv_absint.Box_domain.t
(** The feature box the prefix was built over. *)

val suffix_relu_vars_of_shared :
  shared -> (int * Dpv_linprog.Lp.var option array) list
(** Binary phase variables of the suffix, one entry per ReLU layer
    (1-based layer index; [None] per bound-stable neuron). *)

val restrict_shared : shared -> feature_box:Dpv_absint.Box_domain.t -> shared
(** The prefix over a sub-box of the original feature region (same
    suffix, same octagon faces) — the unit of work under input
    bisection.  Built on the first request for a box; a later request
    for the same bits returns that prefix, with its own memos.  The
    sub-box must have the original dimension. *)

val build_shared :
  suffix:Dpv_nn.Network.t ->
  feature_box:Dpv_absint.Box_domain.t ->
  ?extra_faces:Dpv_monitor.Polyhedron.halfspace list ->
  unit ->
  shared
(** Build the reusable prefix: [feature_box] bounds the cut-layer input
    of [suffix]; [extra_faces] adds octagon polyhedron faces over the
    feature variables. *)

val complete :
  shared ->
  head:Dpv_nn.Network.t ->
  ?characterizer_margin:float ->
  ?psi:Dpv_spec.Risk.t ->
  unit ->
  t
(** Finish a query model on top of a prefix: encode the characterizer
    [head] on the shared feature variables, add the [psi] output
    constraints (omitting [psi] leaves the output unconstrained) and
    the "characterizer says phi" constraint (logit >= margin).  The
    head's rows are encoded on its first completion on this prefix and
    reused after that (see {!shared}); [head] must not be mutated
    after it. *)

val build :
  suffix:Dpv_nn.Network.t ->
  head:Dpv_nn.Network.t ->
  feature_box:Dpv_absint.Box_domain.t ->
  ?extra_faces:Dpv_monitor.Polyhedron.halfspace list ->
  ?characterizer_margin:float ->
  ?psi:Dpv_spec.Risk.t ->
  unit ->
  t
(** [build_shared] + [complete] in one step, for single queries.
    [suffix] and [head] must share their input dimension (the cut layer);
    [feature_box] bounds that shared input.  [characterizer_margin]
    (default 0) is the logit threshold for "characterizer says [phi]
    holds". *)

val set_output_objective :
  t -> sense:Dpv_linprog.Lp.objective_sense -> Dpv_spec.Linexpr.t -> t
(** Replace the (empty) objective with a linear expression over the
    suffix outputs — e.g. "maximize the suggested waypoint". *)

val size_description : t -> string
