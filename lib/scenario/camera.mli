(** Synthetic forward-facing camera.

    Renders a scene into a low-resolution grayscale intensity image,
    flattened row-major into a vector in [0,1]^(width*height).  Pixel rows
    map to ground distances with exponential spacing (bottom = near); the
    horizontal field of view widens linearly with distance (pinhole
    model).  Weather degrades the image the way the paper's data
    variations do: fog washes out far rows, rain adds noise. *)

type config = {
  width : int;
  height : int;
  d_near : float;   (** ground distance of the bottom pixel row, m *)
  d_far : float;    (** ground distance of the top pixel row, m *)
  focal : float;    (** pixels-per-unit-slope; larger = narrower FOV *)
  noise_std : float;(** sensor noise in clear weather *)
}

val default_config : config
(** 16x12 pixels, 5..60 m, matching the evaluation setup. *)

val input_dim : config -> int

val row_distance : config -> int -> float
(** Ground distance represented by pixel row [r] (row 0 = top = far). *)

val render : ?rng:Dpv_tensor.Rng.t -> config -> Scene.t -> Dpv_tensor.Vec.t
(** Deterministic apart from sensor/weather noise drawn from [rng]
    (no noise when [rng] is omitted). *)

val to_ascii : config -> Dpv_tensor.Vec.t -> string
(** Debug visualization of a rendered frame. *)
