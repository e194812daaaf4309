type t = { terms : (float * int) list; const : float }

let output i =
  if i < 0 then invalid_arg "Linexpr.output: negative index";
  { terms = [ (1.0, i) ]; const = 0.0 }

let const c = { terms = []; const = c }

let scale a e =
  { terms = List.map (fun (c, i) -> (a *. c, i)) e.terms; const = a *. e.const }

let add a b = { terms = a.terms @ b.terms; const = a.const +. b.const }
let sub a b = add a (scale (-1.0) b)

let ( * ) = scale
let ( + ) = add
let ( - ) = sub

let eval e x =
  List.fold_left (fun acc (c, i) -> acc +. (c *. x.(i))) e.const e.terms

let max_output_index e =
  List.fold_left (fun acc (_, i) -> Stdlib.max acc i) (-1) e.terms

let normalized_terms e =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (c, i) ->
      let cur = try Hashtbl.find tbl i with Not_found -> 0.0 in
      Hashtbl.replace tbl i (cur +. c))
    e.terms;
  Hashtbl.fold (fun i c acc -> if c = 0.0 then acc else (c, i) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare a b)
