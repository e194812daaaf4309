(** A minimal JSON reader for campaign specification files.

    The project deliberately carries no external JSON dependency (reports
    are emitted with [Printf]); this covers the reading side for the
    small configuration documents [dpv campaign] consumes.  It parses
    standard JSON with two simplifications: numbers are always [float],
    and [\uXXXX] escapes outside the basic multilingual plane are not
    recombined from surrogate pairs. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val of_string : ?max_depth:int -> ?max_bytes:int -> string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a byte offset and a
    description.

    Both limits exist for adversarial input (the serve protocol hands
    this parser raw network frames): [max_depth] (default
    256) bounds container nesting so a deeply nested
    array yields an [Error] instead of a stack overflow, and
    [max_bytes] (default unlimited) rejects oversized documents in O(1)
    before any parsing allocation. *)

val encode : t -> string
(** Compact (single-line) emission; [of_string (encode v)] round-trips
    every value this reader produces. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing keys and non-objects. *)

val to_float : t -> float option
val to_int : t -> int option
(** [to_int] accepts only numbers with no fractional part. *)

val to_string : t -> string option
val to_list : t -> t list option
