(** A complete world state from which one camera frame is rendered.

    The ego vehicle drives in lane [ego_lane] (0-based, counted from the
    right edge of the road) with a small lateral offset from the lane
    center and a small heading error.  Traffic vehicles occupy lanes at
    longitudinal distances ahead.  The weather knob reproduces the
    paper's footnote-7 data variations. *)

type weather = Clear | Rain | Fog

type vehicle = { lane : int; distance : float  (** m ahead of ego *) }

type t = {
  road : Road.t;
  ego_lane : int;
  lateral_offset : float;  (** m, left-positive, from the ego lane center *)
  heading_error : float;   (** rad, left-positive *)
  weather : weather;
  traffic : vehicle list;
}

val make :
  ?lateral_offset:float ->
  ?heading_error:float ->
  ?weather:weather ->
  ?traffic:vehicle list ->
  road:Road.t ->
  ego_lane:int ->
  unit ->
  t

val lane_center_at : t -> float -> float
(** Lateral position (m, ego frame) of the ego lane center at distance [d];
    this folds in road curvature, the ego lateral offset and heading error. *)

val lane_offset_of : t -> vehicle -> int
(** Vehicle lane relative to ego: negative = to the right. *)
