(** Length-prefixed message frames over a file descriptor.

    Wire format: the payload length as ASCII decimal digits, a newline,
    the payload, a newline — [printf '%d\n%s\n' ${#req} "$req"] from a
    shell is a valid client.  The declared length lets the receiver
    refuse an oversized frame in O(1), before allocating anything
    proportional to it.

    Reads and writes are blocking and whole-frame.  Two injection
    sites ([serve-torn-frame], [serve-client-gone];
    {!Dpv_linprog.Faults}) let chaos tests fake a stream dying
    mid-frame without a misbehaving peer. *)

type error =
  | Closed
      (** orderly EOF at a frame boundary on read; peer gone on write *)
  | Torn of string
      (** the stream ended (or the header lied) mid-frame; the
          connection is no longer frame-aligned and must be closed *)

val read : ?max_bytes:int -> Unix.file_descr -> (string, error) result
(** Read one frame's payload.  [max_bytes] bounds the {e declared}
    length — an over-limit frame is [Torn] without reading its
    payload. *)

val write : Unix.file_descr -> string -> (unit, error) result
(** Write one frame.  A vanished peer ([EPIPE]/[ECONNRESET]) is
    [Error Closed], never an exception — the caller decides whether a
    lost client degrades the job. *)
