(** Oracles for input properties [phi] over scenes.

    These play the role of the human oracle of Section 2.1: they decide,
    from the world state that produced an image, whether the property
    holds.  Thresholds follow the evaluation narrative: a road "bends
    right" when its curvature at the lookahead point is below
    [-bend_threshold]. *)

val bend_threshold : float
(** 1/m; default 0.008 (~ 125 m turn radius at the threshold). *)

val bends_right : Scene.t Dpv_spec.Property.t
val bends_left : Scene.t Dpv_spec.Property.t
val straight : Scene.t Dpv_spec.Property.t
(** Curvature magnitude below half the bend threshold. *)

val traffic_adjacent : Scene.t Dpv_spec.Property.t
(** Some vehicle in a lane adjacent to ego within 40 m — the property the
    paper found untrainable from close-to-output features (information
    bottleneck). *)

val all : (string * Scene.t Dpv_spec.Property.t) list
val find : string -> Scene.t Dpv_spec.Property.t option
