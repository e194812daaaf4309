module Box_domain = Dpv_absint.Box_domain
module Interval = Dpv_absint.Interval
module Vec = Dpv_tensor.Vec

type halfspace = { direction : (int * float) list; bound : float }

type t = { dim : int; faces : halfspace list }

let eval_direction direction x =
  List.fold_left (fun acc (i, c) -> acc +. (c *. x.(i))) 0.0 direction

let octagon_directions d =
  let axis =
    List.concat_map (fun i -> [ [ (i, 1.0) ]; [ (i, -1.0) ] ])
      (List.init d (fun i -> i))
  in
  let pairs = ref [] in
  for i = 0 to d - 1 do
    for j = i + 1 to d - 1 do
      pairs :=
        [ (i, 1.0); (j, 1.0) ] :: [ (i, 1.0); (j, -1.0) ]
        :: [ (i, -1.0); (j, 1.0) ] :: [ (i, -1.0); (j, -1.0) ]
        :: !pairs
    done
  done;
  axis @ List.rev !pairs

let box_directions d =
  List.concat_map (fun i -> [ [ (i, 1.0) ]; [ (i, -1.0) ] ])
    (List.init d (fun i -> i))

let fit_directions ~margin directions points =
  if Array.length points = 0 then invalid_arg "Polyhedron.fit: no points";
  let dim = Vec.dim points.(0) in
  let faces =
    List.map
      (fun direction ->
        let bound =
          Array.fold_left
            (fun acc p -> Float.max acc (eval_direction direction p))
            neg_infinity points
        in
        { direction; bound = bound +. margin })
      directions
  in
  { dim; faces }

let fit_octagon ?(margin = 0.0) points =
  if Array.length points = 0 then invalid_arg "Polyhedron.fit_octagon: no points";
  fit_directions ~margin (octagon_directions (Vec.dim points.(0))) points

let fit_box ?(margin = 0.0) points =
  if Array.length points = 0 then invalid_arg "Polyhedron.fit_box: no points";
  fit_directions ~margin (box_directions (Vec.dim points.(0))) points

let of_halfspaces ~dim faces =
  List.iter
    (fun f ->
      List.iter
        (fun (i, _) ->
          if i < 0 || i >= dim then
            invalid_arg "Polyhedron.of_halfspaces: direction out of range")
        f.direction)
    faces;
  { dim; faces }

let dim p = p.dim
let halfspaces p = p.faces
let num_faces p = List.length p.faces

(* The tightest bound the axis faces alone imply for a direction: push
   each coordinate to the corner the direction points at. *)
let box_implied_bound axis_bounds direction =
  List.fold_left
    (fun acc (i, c) ->
      match Hashtbl.find_opt axis_bounds (i, c >= 0.0) with
      | Some b -> acc +. (Float.abs c *. b)
      | None -> infinity)
    0.0 direction

let prune_redundant ?(slack = 1e-7) p =
  (* axis_bounds maps (dim, positive?) to the bound of the matching axis
     face: x_i <= b for (i, true), -x_i <= b for (i, false). *)
  let axis_bounds = Hashtbl.create 16 in
  List.iter
    (fun f ->
      match f.direction with
      | [ (i, 1.0) ] -> Hashtbl.replace axis_bounds (i, true) f.bound
      | [ (i, -1.0) ] -> Hashtbl.replace axis_bounds (i, false) f.bound
      | _ -> ())
    p.faces;
  let keep f =
    match f.direction with
    | [ (_, 1.0) ] | [ (_, -1.0) ] -> true
    | _ -> f.bound < box_implied_bound axis_bounds f.direction -. slack
  in
  { p with faces = List.filter keep p.faces }

let contains ?(tol = 0.0) p x =
  Vec.dim x = p.dim
  && List.for_all (fun f -> eval_direction f.direction x <= f.bound +. tol) p.faces

let violation_margin p x =
  List.fold_left
    (fun acc f -> Float.max acc (eval_direction f.direction x -. f.bound))
    0.0 p.faces

let bounding_box p =
  let lo = Array.make p.dim neg_infinity and hi = Array.make p.dim infinity in
  List.iter
    (fun f ->
      match f.direction with
      | [ (i, 1.0) ] -> hi.(i) <- Float.min hi.(i) f.bound
      | [ (i, -1.0) ] -> lo.(i) <- Float.max lo.(i) (-.f.bound)
      | _ -> ())
    p.faces;
  Array.init p.dim (fun i ->
      if lo.(i) > hi.(i) then Interval.point lo.(i)
      else Interval.make ~lo:lo.(i) ~hi:hi.(i))
