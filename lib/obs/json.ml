type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* [depth] tracks open containers so adversarial input (a network frame
   is attacker-controlled) exhausts a configured budget with a clean
   [Error] long before it exhausts the OCaml stack. *)
type state = {
  src : string;
  mutable pos : int;
  mutable depth : int;
  max_depth : int;
}

let error s fmt =
  Printf.ksprintf (fun msg ->
      raise (Parse_error (Printf.sprintf "at offset %d: %s" s.pos msg)))
    fmt

let peek s = if s.pos < String.length s.src then Some s.src.[s.pos] else None

let advance s = s.pos <- s.pos + 1

let rec skip_ws s =
  match peek s with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance s;
      skip_ws s
  | _ -> ()

let expect s c =
  match peek s with
  | Some c' when c' = c -> advance s
  | Some c' -> error s "expected '%c', found '%c'" c c'
  | None -> error s "expected '%c', found end of input" c

let parse_literal s lit value =
  let n = String.length lit in
  if s.pos + n <= String.length s.src && String.sub s.src s.pos n = lit then begin
    s.pos <- s.pos + n;
    value
  end
  else error s "invalid literal (expected %s)" lit

(* Escapes cover what this project's emitters produce; \uXXXX is decoded
   for the basic multilingual plane only (no surrogate pairs). *)
let parse_string s =
  expect s '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek s with
    | None -> error s "unterminated string"
    | Some '"' -> advance s
    | Some '\\' -> (
        advance s;
        match peek s with
        | Some '"' -> advance s; Buffer.add_char b '"'; loop ()
        | Some '\\' -> advance s; Buffer.add_char b '\\'; loop ()
        | Some '/' -> advance s; Buffer.add_char b '/'; loop ()
        | Some 'n' -> advance s; Buffer.add_char b '\n'; loop ()
        | Some 't' -> advance s; Buffer.add_char b '\t'; loop ()
        | Some 'r' -> advance s; Buffer.add_char b '\r'; loop ()
        | Some 'b' -> advance s; Buffer.add_char b '\b'; loop ()
        | Some 'f' -> advance s; Buffer.add_char b '\012'; loop ()
        | Some 'u' ->
            advance s;
            if s.pos + 4 > String.length s.src then
              error s "truncated \\u escape";
            let hex = String.sub s.src s.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> error s "invalid \\u escape %s" hex
            in
            s.pos <- s.pos + 4;
            (* UTF-8 encode the code point. *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end;
            loop ()
        | Some c -> error s "invalid escape '\\%c'" c
        | None -> error s "unterminated escape")
    | Some c ->
        advance s;
        Buffer.add_char b c;
        loop ()
  in
  loop ();
  Buffer.contents b

let parse_number s =
  let start = s.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek s with Some c -> is_num_char c | None -> false) do
    advance s
  done;
  let text = String.sub s.src start (s.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> error s "invalid number %S" text

let enter s =
  s.depth <- s.depth + 1;
  if s.depth > s.max_depth then
    error s "nesting deeper than %d levels" s.max_depth

let leave s = s.depth <- s.depth - 1

let rec parse_value s =
  skip_ws s;
  match peek s with
  | None -> error s "unexpected end of input"
  | Some '{' ->
      enter s;
      let v = parse_obj s in
      leave s;
      v
  | Some '[' ->
      enter s;
      let v = parse_arr s in
      leave s;
      v
  | Some '"' -> Str (parse_string s)
  | Some 't' -> parse_literal s "true" (Bool true)
  | Some 'f' -> parse_literal s "false" (Bool false)
  | Some 'n' -> parse_literal s "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number s)
  | Some c -> error s "unexpected character '%c'" c

and parse_obj s =
  expect s '{';
  skip_ws s;
  if peek s = Some '}' then begin
    advance s;
    Obj []
  end
  else begin
    let rec members acc =
      skip_ws s;
      let key = parse_string s in
      skip_ws s;
      expect s ':';
      let v = parse_value s in
      skip_ws s;
      match peek s with
      | Some ',' ->
          advance s;
          members ((key, v) :: acc)
      | Some '}' ->
          advance s;
          List.rev ((key, v) :: acc)
      | _ -> error s "expected ',' or '}' in object"
    in
    Obj (members [])
  end

and parse_arr s =
  expect s '[';
  skip_ws s;
  if peek s = Some ']' then begin
    advance s;
    Arr []
  end
  else begin
    let rec elements acc =
      let v = parse_value s in
      skip_ws s;
      match peek s with
      | Some ',' ->
          advance s;
          elements (v :: acc)
      | Some ']' ->
          advance s;
          List.rev (v :: acc)
      | _ -> error s "expected ',' or ']' in array"
    in
    Arr (elements [])
  end

let default_max_depth = 256

let of_string ?(max_depth = default_max_depth) ?max_bytes src =
  match max_bytes with
  | Some limit when String.length src > limit ->
      (* Reject on size alone, before the parser allocates anything
         proportional to the payload: a hostile frame claiming (or
         carrying) hundreds of megabytes costs O(1) to refuse. *)
      Error
        (Printf.sprintf "document of %d bytes exceeds the %d-byte limit"
           (String.length src) limit)
  | _ -> (
      let s = { src; pos = 0; depth = 0; max_depth } in
      try
        let v = parse_value s in
        skip_ws s;
        (match peek s with
        | Some c -> error s "trailing content starting with '%c'" c
        | None -> ());
        Ok v
      with Parse_error msg -> Error msg)

(* ---------------- writer ---------------- *)

(* The one escaper: JSON's escapes for the quote, the backslash and the
   control characters; every other byte is copied, so UTF-8 text passes
   through unchanged. *)
let buf_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The one number printer.  Integral values print as integers, through
   [string_of_int] rather than a format call (every counter of every
   journal line takes this path), and [-0.0] as [-0] so the sign
   survives; other finite values print with 17 significant digits,
   which round-trips every finite double bit for bit.  JSON has no
   literal for NaN or an infinity, so those print as the strings
   [to_float] reads back. *)
let buf_number b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b
      (if f = 0.0 && Float.sign_bit f then "-0"
       else string_of_int (int_of_float f))
  else if Float.is_finite f then Printf.bprintf b "%.17g" f
  else if Float.is_nan f then Buffer.add_string b {|"NaN"|}
  else
    Buffer.add_string b (if f > 0.0 then {|"Infinity"|} else {|"-Infinity"|})

(* [depth] is the nesting level of the container; containers above
   level [indent] put each member on its own line, deeper ones stay on
   one line. *)
let buf_members b ~indent ~depth opening closing emit items =
  Buffer.add_char b opening;
  let broken = depth < indent && items <> [] in
  let newline d = Buffer.add_string b ("\n" ^ String.make (2 * d) ' ') in
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b (if broken then "," else ", ");
      if broken then newline (depth + 1);
      emit x)
    items;
  if broken then newline depth;
  Buffer.add_char b closing

let rec buf_value b ~indent ~depth = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f -> buf_number b f
  | Str s -> buf_string b s
  | Arr l ->
      buf_members b ~indent ~depth '[' ']'
        (buf_value b ~indent ~depth:(depth + 1))
        l
  | Obj fields ->
      buf_members b ~indent ~depth '{' '}'
        (fun (k, v) ->
          buf_string b k;
          Buffer.add_string b ": ";
          buf_value b ~indent ~depth:(depth + 1) v)
        fields

let int n = Num (float_of_int n)

let encode ?(indent = 0) v =
  let b = Buffer.create 512 in
  buf_value b ~indent ~depth:0 v;
  Buffer.contents b

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_bool = function
  | Bool b -> Some b
  | _ -> None

let to_float = function
  | Num f -> Some f
  | Str "NaN" -> Some Float.nan
  | Str "Infinity" -> Some Float.infinity
  | Str "-Infinity" -> Some Float.neg_infinity
  | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_string = function
  | Str s -> Some s
  | _ -> None

let to_list = function
  | Arr l -> Some l
  | _ -> None
