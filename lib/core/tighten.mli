(** Optimization-based bound tightening (OBBT).

    The big-M encoding's strength depends on how tight the per-neuron
    bounds are: tighter feature bounds fix more ReLU phases outright and
    shrink the big-M constants of the rest.  OBBT solves, for each
    feature coordinate, a pair of LPs over the *relaxed* encoding
    (binaries in [0,1]) — including the octagon faces and the
    "characterizer fires" constraint — and intersects the results with
    the incoming box.  This is the standard preprocessing step of
    MILP-based verifiers in the style of the paper's reference [3]. *)

type stats = {
  lps_solved : int;
  pivots : int;          (** simplex pivots across all [lps_solved] LPs *)
  dims_tightened : int;
  dims_skipped : int;    (** coordinates left untouched by the deadline *)
  width_before : float;  (** mean width of the incoming box *)
  width_after : float;
}

val feature_box :
  ?time_limit_s:float ->
  ?deadline:Dpv_linprog.Clock.deadline ->
  ?shared:Encode.shared ->
  suffix:Dpv_nn.Network.t ->
  head:Dpv_nn.Network.t ->
  feature_box:Dpv_absint.Box_domain.t ->
  ?extra_faces:Dpv_monitor.Polyhedron.halfspace list ->
  ?characterizer_margin:float ->
  unit ->
  Dpv_absint.Box_domain.t * stats
(** Tightened feature box (sound: every point of the original region that
    satisfies the side constraints stays inside).

    [time_limit_s] bounds the preprocessing on the wall clock: once the
    deadline passes, remaining coordinates keep their incoming bounds
    (still sound — OBBT only ever shrinks) and are counted in
    [dims_skipped].  [deadline], when given, takes precedence over
    [time_limit_s]: it lets a caller thread one already-running deadline
    through tightening and the subsequent MILP so a single budget covers
    both phases ({!Verify.verify}).

    [shared], when given, must be an {!Encode.build_shared} result for
    the same [suffix], [feature_box] and [extra_faces]; the suffix
    encoding is then reused instead of rebuilt ([extra_faces] is ignored
    in that case — the faces are already part of the prefix). *)
