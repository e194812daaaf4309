module Network = Dpv_nn.Network

type domain = Box | Zonotope | Deeppoly

let domain_name = function
  | Box -> "box"
  | Zonotope -> "zonotope"
  | Deeppoly -> "deeppoly"

let domain_of_string = function
  | "box" -> Some Box
  | "zonotope" -> Some Zonotope
  | "deeppoly" -> Some Deeppoly
  | _ -> None

let all_layer_bounds domain net ~input_box =
  match domain with
  | Box -> Box_domain.propagate_all net input_box
  | Zonotope -> Zonotope.propagate_all net (Zonotope.of_box input_box)
  | Deeppoly -> Deeppoly.propagate_all net input_box

let layer_bounds domain net ~input_box ~cut =
  let all = all_layer_bounds domain (Network.prefix net ~cut) ~input_box in
  all.(Array.length all - 1)

let output_bounds domain net ~input_box =
  layer_bounds domain net ~input_box ~cut:(Network.num_layers net)
