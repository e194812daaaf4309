(** Incremental abstract-interpretation guide for the branch-and-bound
    MILP search.

    Bridges [lib/absint] and [lib/linprog] without creating a
    dependency between them: the solver only knows the
    {!Dpv_linprog.Milp.guide_factory} type, and this module builds one
    from the encoding's binary-to-neuron maps (see
    {!Encode.suffix_relu_vars_of_shared} and [Encode.t.head_relu_vars]).

    Per node, a guide instance reads each binary's current LP bounds to
    recover the node's ReLU phase fixings, propagates DeepPoly through
    the suffix and the characterizer head under those fixings
    ({!Dpv_absint.Deeppoly.Resumable.propagate} semantics), and
    reports:

    - [prune] when a fixing contradicts the propagated bounds or the
      propagated output box provably misses [psi] (or the logit stays
      below the margin) — the node is discharged without an LP solve;
    - [fix] for binaries whose phase the propagated pre-activation
      bounds already imply — the solver fixes them without branching;
    - [widths] scoring still-free binaries by pre-activation interval
      width, consumed by the [Bound_width] branch rule.

    {2 Incrementality}

    Each instance (one per solver, one per worker in [Milp_par]) keeps
    a {!Dpv_absint.Deeppoly.Resumable} stack of per-layer states keyed
    by the node's phase-fixing prefix.  B&B fixings grow monotonically
    down the tree, so consecutive nodes of a DFS subtree batch share
    long prefixes: a consult re-propagates only from the earliest ReLU
    layer whose fixings are incompatible with the phases the cached
    state was built under (adopting a phase the guide itself implied
    does not invalidate anything).  Incremental and from-scratch
    propagation are bit-identical — verdicts, node counts, prunes and
    phase-fixes do not change, only the work per node does.

    Soundness matches the MILP semantics: the encoded feasible set
    projects onto exact network executions over the feature box, and
    DeepPoly bounds enclose those executions under any phase fixing
    (the [x = 0] boundary belongs to both phases, so implied fixes
    preserve feasibility of the projection). *)

val set_scratch : bool -> unit
(** Force every consult to re-propagate from layer 1 (same engine, same
    code path, bit-identical results; only the per-node cost and the
    [absint.incr_hits]/[absint.layers_saved] counters change). *)

val init_from_env : unit -> unit
(** [set_scratch] from the [DPV_ABSINT_SCRATCH] environment variable
    (["1"]/["true"]/["yes"] enable, ["0"]/["false"]/["no"]/unset keep
    incremental).  Only executables should call this, mirroring
    {!Dpv_linprog.Faults.init_from_env}. *)

type seed
(** A fully propagated root state over a feature box — the product of
    {!root_propagation}.  {!Verify.bisect_plan} discharges leaves with
    one of these; a surviving leaf hands its seed to {!factory} so the
    MILP guide's first instance starts with the propagation already
    done instead of redoing it at the root node
    ([absint.seeded_roots] counts adoptions). *)

val root_propagation :
  suffix:Dpv_nn.Network.t ->
  head:Dpv_nn.Network.t ->
  feature_box:Dpv_absint.Box_domain.t ->
  seed
(** Propagate both networks over [feature_box] with no fixings (all
    ReLU phases [Unknown]).  Bit-identical to
    {!Dpv_absint.Deeppoly.propagate_all} over each network. *)

val seed_output_box : seed -> Dpv_absint.Box_domain.t
(** The suffix network's propagated output box. *)

val seed_logit_box : seed -> Dpv_absint.Interval.t
(** The characterizer head's propagated logit interval. *)

val query_unreachable :
  psi:Dpv_spec.Risk.t ->
  characterizer_margin:float ->
  output_box:Dpv_absint.Box_domain.t ->
  logit_box:Dpv_absint.Interval.t ->
  bool
(** Whether propagated bounds already rule the query out: the logit
    stays strictly below [characterizer_margin], or some [psi]
    inequality is strictly unreachable from [output_box].  The one
    discharge test behind a guide prune, a {!Verify.bisect_plan}
    sub-box discharge and a {!Verify.verify_incomplete} SAFE. *)

val factory :
  ?seed:seed ->
  suffix:Dpv_nn.Network.t ->
  head:Dpv_nn.Network.t ->
  feature_box:Dpv_absint.Box_domain.t ->
  suffix_relus:(int * Dpv_linprog.Lp.var option array) list ->
  head_relus:(int * Dpv_linprog.Lp.var option array) list ->
  psi:Dpv_spec.Risk.t ->
  characterizer_margin:float ->
  unit ->
  Dpv_linprog.Milp.guide_factory
(** A guide factory over the encoded networks.  Every [new_guide] call
    returns an independent stateful instance (safe to confine one per
    worker domain); the factory's [stats] aggregates
    [absint_incr_hits]/[absint_layers_propagated]/[absint_layers_saved]
    over all instances and is read by the solvers as a start/end
    delta.

    [seed] (if its box matches [feature_box] bit-for-bit) is adopted by
    the first instance created, whose first root consult then
    re-propagates nothing.

    Under an armed fault harness ({!Dpv_linprog.Faults.enabled}) every
    consult is cross-checked bit-for-bit against a fresh
    {!Dpv_absint.Deeppoly.Resumable} state propagated from layer 1
    under the node's effective phases (its own fixings, else the phase
    the bounds imply), which shares no cached layer with the instance;
    a divergence (e.g. injected by the [absint-stale] site) increments
    [absint.stale_fallbacks] and falls back to a clean
    re-propagation. *)
