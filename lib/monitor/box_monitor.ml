module Box_domain = Dpv_absint.Box_domain
module Interval = Dpv_absint.Interval
module Vec = Dpv_tensor.Vec

type t = Box_domain.t

let fit ?(margin = 0.0) points =
  if Array.length points = 0 then invalid_arg "Box_monitor.fit: no points";
  let box = Box_domain.of_points points in
  if margin = 0.0 then box
  else
    Array.map
      (fun (iv : Interval.t) ->
        let pad = margin *. Float.max (Interval.width iv) 1.0 in
        Interval.make ~lo:(iv.lo -. pad) ~hi:(iv.hi +. pad))
      box

let to_box box = box
let dim = Array.length
let contains = Box_domain.contains

let violation_margin box x =
  if Array.length box <> Vec.dim x then
    invalid_arg "Box_monitor.violation_margin: dimension mismatch";
  let worst = ref 0.0 in
  Array.iteri
    (fun i (iv : Interval.t) ->
      let d =
        if x.(i) < iv.lo then iv.lo -. x.(i)
        else if x.(i) > iv.hi then x.(i) -. iv.hi
        else 0.0
      in
      if d > !worst then worst := d)
    box;
  !worst

let widen box x =
  if Array.length box <> Vec.dim x then
    invalid_arg "Box_monitor.widen: dimension mismatch";
  Array.mapi (fun i iv -> Interval.join iv (Interval.point x.(i))) box
