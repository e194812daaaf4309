module Json = Dpv_obs.Json

(* The server's own journal: one JSON line per lifecycle event,
   appended and fsynced BEFORE the event's consequences can happen.
   Recovery is a pure fold over the lines — accepted jobs with no
   finished record are re-run from their persisted spec.  Torn tails
   (a crash mid-append) are ignored, same contract as
   {!Dpv_core.Journal}. *)

type event =
  | Accepted of {
      job : string;
      name : string;
      priority : int;
      budget_s : float option;
      deadline_s : float option;
      trace : string;
      spec : Json.t;
    }
  | Finished of { job : string; exit_code : int }
  | Client_gone of { job : string }

let encode event =
  let opt_num = function None -> Json.Null | Some f -> Json.Num f in
  Json.encode
    (Json.Obj
       (match event with
       | Accepted { job; name; priority; budget_s; deadline_s; trace; spec } ->
           [
             ("event", Json.Str "accepted");
             ("job", Json.Str job);
             ("name", Json.Str name);
             ("priority", Json.int priority);
             ("budget_s", opt_num budget_s);
             ("deadline_s", opt_num deadline_s);
             ("trace", Json.Str trace);
             ("spec", spec);
           ]
       | Finished { job; exit_code } ->
           [
             ("event", Json.Str "finished");
             ("job", Json.Str job);
             ("exit_code", Json.int exit_code);
           ]
       | Client_gone { job } ->
           [ ("event", Json.Str "client_gone"); ("job", Json.Str job) ]))

let decode line =
  match Json.of_string line with
  | Error e -> Error e
  | Ok v -> (
      let str key = Option.bind (Json.member key v) Json.to_string in
      let job () =
        match str "job" with
        | Some j -> Ok j
        | None -> Error "event is missing \"job\""
      in
      match str "event" with
      | Some "accepted" -> (
          match (job (), Json.member "spec" v) with
          | Error e, _ -> Error e
          | Ok _, None -> Error "accepted event is missing \"spec\""
          | Ok job, Some spec ->
              let num key = Option.bind (Json.member key v) Json.to_float in
              Ok
                (Accepted
                   {
                     job;
                     name = Option.value (str "name") ~default:job;
                     priority =
                       Option.value
                         (Option.bind (Json.member "priority" v) Json.to_int)
                         ~default:0;
                     budget_s = num "budget_s";
                     deadline_s = num "deadline_s";
                     (* pre-dpv-obs/2 joblogs have no trace id *)
                     trace = Option.value (str "trace") ~default:"";
                     spec;
                   }))
      | Some "finished" -> (
          match (job (), Option.bind (Json.member "exit_code" v) Json.to_int) with
          | Error e, _ -> Error e
          | Ok _, None -> Error "finished event is missing \"exit_code\""
          | Ok job, Some exit_code -> Ok (Finished { job; exit_code }))
      | Some "client_gone" ->
          Result.map (fun job -> Client_gone { job }) (job ())
      | Some e -> Error (Printf.sprintf "unknown event %S" e)
      | None -> Error "line has no \"event\"")

(* Append + fsync: when this returns, the event survives a crash.  The
   fd is opened per append — the joblog sees a handful of writes per
   job, nowhere near a hot path. *)
let append ~path event =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let line = encode event ^ "\n" in
      let buf = Bytes.of_string line in
      let rec put ofs len =
        if len > 0 then begin
          let n = Unix.write fd buf ofs len in
          put (ofs + n) (len - n)
        end
      in
      put 0 (Bytes.length buf);
      Unix.fsync fd)

let load ~path =
  if not (Sys.file_exists path) then Ok []
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec lines acc =
          match input_line ic with
          | line -> lines (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        let all = lines [] in
        let n = List.length all in
        let rec decode_all i acc = function
          | [] -> Ok (List.rev acc)
          | line :: rest -> (
              match decode line with
              | Ok e -> decode_all (i + 1) (e :: acc) rest
              | Error msg ->
                  if i = n - 1 then
                    (* Torn tail: the process died mid-append.  Every
                       complete line before it is intact. *)
                    Ok (List.rev acc)
                  else
                    Error (Printf.sprintf "%s, line %d: %s" path (i + 1) msg))
        in
        decode_all 0 [] all)
  end

let pending events =
  let finished = Hashtbl.create 8 in
  List.iter
    (function
      | Finished { job; _ } -> Hashtbl.replace finished job ()
      | Accepted _ | Client_gone _ -> ())
    events;
  List.filter_map
    (function
      | Accepted { job; name; priority; budget_s; deadline_s; trace; spec }
        when not (Hashtbl.mem finished job) ->
          Some (job, name, priority, budget_s, deadline_s, trace, spec)
      | _ -> None)
    events
