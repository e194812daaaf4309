module Faults = Dpv_linprog.Faults

(* Wire format: ASCII decimal payload length, '\n', payload bytes,
   '\n'.  Human-composable (printf + netcat suffices as a client) yet
   unambiguous: the receiver knows the payload size before reading it,
   which is what lets an oversized frame be refused before any
   proportional allocation. *)

type error =
  | Closed          (* orderly EOF between frames, or peer vanished *)
  | Torn of string  (* stream died or lied mid-frame *)

let max_header_digits = 20

let rec really_read fd buf ofs len =
  if len = 0 then Ok ()
  else
    match Unix.read fd buf ofs len with
    | 0 -> Error `Eof
    | n -> really_read fd buf (ofs + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_read fd buf ofs len
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        Error `Eof

(* serve-torn-frame: a client frame arrives torn, as if the peer died
   (or lied about its length) mid-frame.  The server must answer that
   connection with a framed error and close that connection only. *)
let serve_torn_frame = Faults.site "serve-torn-frame"

(* The header is read byte-by-byte: it is at most [max_header_digits]
   bytes, and stopping exactly at its '\n' keeps this module free of
   read-ahead buffering state. *)
let read_header fd =
  let b = Buffer.create 8 in
  let one = Bytes.create 1 in
  let rec loop () =
    match really_read fd one 0 1 with
    | Error `Eof ->
        if Buffer.length b = 0 then Error Closed
        else Error (Torn "stream ended inside a frame header")
    | Ok () ->
        (* The torn-frame injection fires only once bytes have begun
           arriving: a stream dies MID-frame, never while parked idle
           between frames.  Firing on an idle read would let the
           injected error reply race the peer's own write. *)
        if Buffer.length b = 0 && Faults.fire serve_torn_frame then
          Error (Torn "injected torn frame")
        else (
        match Bytes.get one 0 with
        | '\n' ->
            if Buffer.length b = 0 then Error (Torn "empty frame header")
            else Ok (Buffer.contents b)
        | '0' .. '9' as c ->
            if Buffer.length b >= max_header_digits then
              Error (Torn "frame header too long")
            else begin
              Buffer.add_char b c;
              loop ()
            end
        | c -> Error (Torn (Printf.sprintf "invalid header byte %C" c)))
  in
  loop ()

let read ?max_bytes fd =
  match read_header fd with
    | Error _ as e -> e
    | Ok header -> (
        match int_of_string_opt header with
        | None -> Error (Torn (Printf.sprintf "invalid frame length %S" header))
        | Some len -> (
            match max_bytes with
            | Some limit when len > limit ->
                (* Refused on the declared length alone — the payload is
                   never allocated, let alone read. *)
                Error
                  (Torn
                     (Printf.sprintf
                        "declared frame of %d bytes exceeds the %d-byte limit"
                        len limit))
            | _ -> (
                let buf = Bytes.create (len + 1) in
                match really_read fd buf 0 (len + 1) with
                | Error `Eof -> Error (Torn "stream ended inside a frame")
                | Ok () ->
                    if Bytes.get buf len <> '\n' then
                      Error (Torn "frame payload not newline-terminated")
                    else Ok (Bytes.sub_string buf 0 len))))

let rec really_write fd buf ofs len =
  if len = 0 then Ok ()
  else
    match Unix.write fd buf ofs len with
    | n -> really_write fd buf (ofs + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_write fd buf ofs len
    | exception
        Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        Error `Eof

(* serve-client-gone: a streamed reply write fails as if the peer
   disconnected mid-stream.  The job must keep running to its journal:
   the server records the client loss and survives. *)
let serve_client_gone = Faults.site "serve-client-gone"

let write fd payload =
  if Faults.fire serve_client_gone then Error Closed
  else begin
    let header = Printf.sprintf "%d\n" (String.length payload) in
    let msg = header ^ payload ^ "\n" in
    let buf = Bytes.of_string msg in
    match really_write fd buf 0 (Bytes.length buf) with
    | Ok () -> Ok ()
    | Error `Eof -> Error Closed
  end
