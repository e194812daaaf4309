type inequality = { expr : Linexpr.t; rel : [ `Le | `Ge ]; bound : float }

type t = { name : string; inequalities : inequality list }

let make ~name inequalities =
  if inequalities = [] then invalid_arg "Risk.make: empty conjunction";
  { name; inequalities }

let ( <=. ) expr bound = { expr; rel = `Le; bound }
let ( >=. ) expr bound = { expr; rel = `Ge; bound }

let output_le i c = Linexpr.output i <=. c
let output_ge i c = Linexpr.output i >=. c

let output_in_band i ~lo ~hi =
  if lo > hi then invalid_arg "Risk.output_in_band: lo > hi";
  [ output_ge i lo; output_le i hi ]

(* ---- parsing ---- *)

type token = Num of float | Var of int | Plus | Minus | Star | Le_tok | Ge_tok | And

exception Parse_error of string

let tokenize s =
  let n = String.length s in
  let tokens = ref [] in
  let i = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = '+' then (tokens := Plus :: !tokens; incr i)
    else if c = '*' then (tokens := Star :: !tokens; incr i)
    else if c = '-' then (tokens := Minus :: !tokens; incr i)
    else if c = '<' || c = '>' then begin
      if !i + 1 >= n || s.[!i + 1] <> '=' then
        fail "expected '%c=' at position %d" c !i;
      tokens := (if c = '<' then Le_tok else Ge_tok) :: !tokens;
      i := !i + 2
    end
    else if c = '&' then begin
      if !i + 1 >= n || s.[!i + 1] <> '&' then fail "expected '&&' at %d" !i;
      tokens := And :: !tokens;
      i := !i + 2
    end
    else if c = 'y' then begin
      let j = ref (!i + 1) in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      if !j = !i + 1 then fail "expected output index after 'y' at %d" !i;
      tokens := Var (int_of_string (String.sub s (!i + 1) (!j - !i - 1))) :: !tokens;
      i := !j
    end
    else if (c >= '0' && c <= '9') || c = '.' then begin
      let j = ref !i in
      while
        !j < n
        && ((s.[!j] >= '0' && s.[!j] <= '9') || s.[!j] = '.' || s.[!j] = 'e'
           || s.[!j] = 'E'
           || ((s.[!j] = '+' || s.[!j] = '-') && !j > !i
              && (s.[!j - 1] = 'e' || s.[!j - 1] = 'E')))
      do
        incr j
      done;
      (try tokens := Num (float_of_string (String.sub s !i (!j - !i))) :: !tokens
       with Failure _ -> fail "bad number at %d" !i);
      i := !j
    end
    else fail "unexpected character %C at %d" c !i
  done;
  List.rev !tokens

(* term := number | [number "*"] "y" digits, with an optional leading
   sign handled by the caller through [sign]. *)
let parse_term sign tokens =
  match tokens with
  | Num c :: Star :: Var v :: rest -> (Linexpr.scale (sign *. c) (Linexpr.output v), rest)
  | Num c :: rest -> (Linexpr.const (sign *. c), rest)
  | Var v :: rest -> (Linexpr.scale sign (Linexpr.output v), rest)
  | _ -> raise (Parse_error "expected a term (number, c*yN or yN)")

let parse_expr tokens =
  let rec more acc tokens =
    match tokens with
    | Plus :: rest ->
        let t, rest = parse_term 1.0 rest in
        more (Linexpr.add acc t) rest
    | Minus :: rest ->
        let t, rest = parse_term (-1.0) rest in
        more (Linexpr.add acc t) rest
    | _ -> (acc, tokens)
  in
  let sign, tokens =
    match tokens with Minus :: rest -> (-1.0, rest) | _ -> (1.0, tokens)
  in
  let first, tokens = parse_term sign tokens in
  more first tokens

let parse_inequality tokens =
  let expr, tokens = parse_expr tokens in
  let rel, tokens =
    match tokens with
    | Le_tok :: rest -> (`Le, rest)
    | Ge_tok :: rest -> (`Ge, rest)
    | _ -> raise (Parse_error "expected '<=' or '>='")
  in
  let bound_expr, tokens = parse_expr tokens in
  if Linexpr.normalized_terms bound_expr <> [] then
    raise (Parse_error "right-hand side must be a constant");
  (* Fold the left expression's constant into the bound. *)
  let bound = bound_expr.Linexpr.const -. expr.Linexpr.const in
  ({ expr = { expr with Linexpr.const = 0.0 }; rel; bound }, tokens)

let of_string s =
  try
    let rec go tokens =
      let ineq, tokens = parse_inequality tokens in
      match tokens with
      | [] -> [ ineq ]
      | And :: rest -> ineq :: go rest
      | _ -> raise (Parse_error "expected '&&' or end of input")
    in
    let tokens = tokenize s in
    if tokens = [] then Error "empty risk condition"
    else Ok (make ~name:s (go tokens))
  with Parse_error m -> Error m

let to_string psi =
  let term_text c v =
    if Float.abs c = 1.0 then Printf.sprintf "y%d" v
    else Printf.sprintf "%g*y%d" (Float.abs c) v
  in
  let expr_text e =
    let terms = Linexpr.normalized_terms e in
    let body =
      List.mapi
        (fun k (c, v) ->
          if k = 0 then
            (if c < 0.0 then "-" else "") ^ term_text c v
          else (if c < 0.0 then " - " else " + ") ^ term_text c v)
        terms
      |> String.concat ""
    in
    let const = e.Linexpr.const in
    if terms = [] then Printf.sprintf "%g" const
    else if const = 0.0 then body
    else if const < 0.0 then Printf.sprintf "%s - %g" body (Float.abs const)
    else Printf.sprintf "%s + %g" body const
  in
  String.concat " && "
    (List.map
       (fun ineq ->
         let rel = match ineq.rel with `Le -> "<=" | `Ge -> ">=" in
         Printf.sprintf "%s %s %g" (expr_text ineq.expr) rel ineq.bound)
       psi.inequalities)

let holds ?(tol = 0.0) psi out =
  List.for_all
    (fun ineq ->
      let v = Linexpr.eval ineq.expr out in
      match ineq.rel with
      | `Le -> v <= ineq.bound +. tol
      | `Ge -> v >= ineq.bound -. tol)
    psi.inequalities

let max_output_index psi =
  List.fold_left
    (fun acc ineq -> Stdlib.max acc (Linexpr.max_output_index ineq.expr))
    (-1) psi.inequalities
