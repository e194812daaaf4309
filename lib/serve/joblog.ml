module Json = Dpv_obs.Json

(* The server's own journal: one JSON line per lifecycle event.
   Recovery is a pure fold over the lines — a job whose latest
   acceptance has no finished record after it is re-run from its
   persisted spec.  Lines are read by {!Dpv_core.Journal.read_lines},
   so a torn tail (a crash mid-append) is dropped under the campaign
   journal's rule.

   Only [accepted] is fsynced, before the [accepted] frame can go out:
   it is the no-lost-jobs promise.  [finished] and [client_gone] guard
   no promise — a lost [finished] only re-runs a job that then replays
   wholly from its own journal — so they are written without an fsync
   of their own, and the next [accepted] fsync (or the drain's) makes
   them durable.  Every served job writes here, so each fsync is paid
   once per job. *)

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

(* Append, and with [sync] fsync: then the text survives a crash.
   The call that creates the file also fsyncs the directory, so the
   joblog's name survives one too. *)
let write ~path ~sync text =
  let created = not (Sys.file_exists path) in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let buf = Bytes.of_string text in
      let rec put ofs len =
        if len > 0 then begin
          let n = Unix.write fd buf ofs len in
          put (ofs + n) (len - n)
        end
      in
      put 0 (Bytes.length buf);
      if sync then Unix.fsync fd);
  if created then Dpv_core.Journal.fsync_dir path

let append ~path event =
  let sync =
    match event with Accepted _ -> true | Finished _ | Client_gone _ -> false
  in
  write ~path ~sync (encode event ^ "\n")

let sync ~path =
  if Sys.file_exists path then begin
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
  end

let load ~path =
  if not (Sys.file_exists path) then Ok []
  else
    Dpv_core.Journal.read_lines ~path (fun ~line text ->
        Result.map_error (Printf.sprintf "line %d: %s" line) (decode text))

let seal ~path =
  if Sys.file_exists path then
    let content = In_channel.with_open_bin path In_channel.input_all in
    let len = String.length content in
    let cut = try String.rindex content '\n' + 1 with Not_found -> 0 in
    if cut < len then
      if Result.is_ok (decode (String.sub content cut (len - cut))) then
        write ~path ~sync:true "\n"
      else Unix.truncate path cut

(* A job id is accepted again when a client resubmits the same queries
   after an earlier run finished, so only an id's latest acceptance
   counts: it is pending unless a [finished] for the id comes after it.
   Read backwards, the first [accepted] or [finished] naming an id
   decides it. *)
let pending events =
  let decided = Hashtbl.create 8 in
  List.fold_left
    (fun acc event ->
      match event with
      | Client_gone _ -> acc
      | (Accepted { job; _ } | Finished { job; _ }) when Hashtbl.mem decided job
        ->
          acc
      | Finished { job; _ } ->
          Hashtbl.replace decided job ();
          acc
      | Accepted { job; name; priority; budget_s; deadline_s; trace; spec } ->
          Hashtbl.replace decided job ();
          (job, name, priority, budget_s, deadline_s, trace, spec) :: acc)
    [] (List.rev events)
