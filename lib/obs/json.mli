(** The project's one JSON reader and writer.

    The project deliberately carries no external JSON dependency.  Every
    JSON document [dpv] reads (campaign specs, journals, protocol
    frames) goes through {!of_string}, and every one it writes
    (journals, reports, metrics, traces, frames) through {!encode}.  It
    lives in [dpv_obs], the lowest library that emits JSON.  The reader
    parses standard JSON with two simplifications: numbers are always
    [float], and [\uXXXX] escapes outside the basic multilingual plane
    are not recombined from surrogate pairs. *)

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

val encode : ?indent:int -> t -> string
(** The JSON text of [v].  Strings keep every byte except the quote,
    the backslash and control characters, which take JSON escapes, so
    UTF-8 text passes through unchanged.  Integral numbers below
    [1e15] in magnitude print as integers ([-0.0] as [-0]), other
    finite ones with 17 significant digits: [of_string (encode v)]
    returns [v] with every finite number bit for bit.  NaN and the
    infinities, which JSON cannot write as numbers, print as the
    strings ["NaN"], ["Infinity"] and ["-Infinity"]; they come back as
    those [Str] values, which {!to_float} reads as the doubles (a NaN
    as [Float.nan]).

    [indent] (default 0, one line) lays out the outermost [indent]
    levels of containers one member per line, each level indented by
    two spaces; deeper containers stay on one line.  Members are
    separated by [", "] and keys by [": "] on a line. *)

val int : int -> t
(** [Num] of an integer; exact up to [2^53] in magnitude. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing keys and non-objects. *)

val to_bool : t -> bool option
val to_float : t -> float option
(** A [Num], or one of the strings ["NaN"], ["Infinity"] and
    ["-Infinity"] that {!encode} writes for the non-finite doubles. *)

val to_int : t -> int option
(** [to_int] accepts only numbers with no fractional part. *)

val to_string : t -> string option
val to_list : t -> t list option
