module Json = Dpv_obs.Json

let connect_unix ~path =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let connect_tcp ~port =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let rpc fd payload =
  match Frame.write fd payload with
  | Error _ -> Error "connection closed while sending"
  | Ok () -> (
      match Frame.read fd with
      | Ok reply -> Ok reply
      | Error Frame.Closed -> Error "server closed the connection"
      | Error (Frame.Torn msg) -> Error (Printf.sprintf "torn reply: %s" msg))

type outcome =
  | Finished of { exit_code : int }
  | Busy of { retry_after_s : float }
  | Failed of string

(* Submit and consume the verdict stream.  [on_frame] sees every raw
   reply payload (the CLI prints them); the return value is what the
   stream concluded. *)
let submit_and_stream fd ~request ~on_frame =
  match Frame.write fd request with
  | Error _ -> Failed "connection closed while sending"
  | Ok () ->
      let rec loop () =
        match Frame.read fd with
        | Error Frame.Closed -> Failed "server closed the stream mid-job"
        | Error (Frame.Torn msg) -> Failed (Printf.sprintf "torn reply: %s" msg)
        | Ok payload -> (
            on_frame payload;
            match Json.of_string payload with
            | Error e -> Failed (Printf.sprintf "unparseable reply: %s" e)
            | Ok v -> (
                let str key = Option.bind (Json.member key v) Json.to_string in
                let num key = Option.bind (Json.member key v) Json.to_float in
                match str "type" with
                | Some "accepted" | Some "verdict" | Some "trace" -> loop ()
                | Some "done" -> (
                    match Option.bind (Json.member "exit_code" v) Json.to_int with
                    | Some exit_code -> Finished { exit_code }
                    | None -> Failed "done frame without exit_code")
                | Some "busy" ->
                    Busy
                      {
                        retry_after_s =
                          Option.value (num "retry_after_s") ~default:1.0;
                      }
                | Some "draining" -> Failed "server is draining"
                | Some "error" ->
                    Failed
                      (Option.value (str "message") ~default:"unknown error")
                | Some other ->
                    Failed (Printf.sprintf "unexpected frame type %S" other)
                | None -> Failed "reply frame without type"))
      in
      loop ()
