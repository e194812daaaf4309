type weather = Clear | Rain | Fog

type vehicle = { lane : int; distance : float }

type t = {
  road : Road.t;
  ego_lane : int;
  lateral_offset : float;
  heading_error : float;
  weather : weather;
  traffic : vehicle list;
}

let make ?(lateral_offset = 0.0) ?(heading_error = 0.0) ?(weather = Clear)
    ?(traffic = []) ~road ~ego_lane () =
  if ego_lane < 0 || ego_lane >= road.Road.num_lanes then
    invalid_arg "Scene.make: ego_lane out of range";
  List.iter
    (fun v ->
      if v.lane < 0 || v.lane >= road.Road.num_lanes then
        invalid_arg "Scene.make: traffic lane out of range";
      if v.distance < 0.0 then invalid_arg "Scene.make: traffic behind ego")
    traffic;
  { road; ego_lane; lateral_offset; heading_error; weather; traffic }

(* Small-angle ego-frame transform: the road-induced lateral motion minus
   where the ego actually is and where it points. *)
let lane_center_at scene d =
  Road.centerline_offset scene.road d
  -. scene.lateral_offset
  -. (d *. scene.heading_error)

let lane_offset_of scene v = v.lane - scene.ego_lane
