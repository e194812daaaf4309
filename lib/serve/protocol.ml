module Json = Dpv_obs.Json
module Campaign = Dpv_core.Campaign
module Verify = Dpv_core.Verify
module Metrics = Dpv_obs.Metrics

let version = "dpv-serve/1"

type request =
  | Submit of {
      name : string option;
      priority : int;
      budget_s : float option;
      deadline_s : float option;
      trace : bool;
      spec : Json.t;
    }
  | Metrics of { since : int option }
  | Ping
  | Drain

(* Submission envelope keys; everything else in an [op = "query"]
   request is part of the spec it denotes. *)
let envelope_keys =
  [ "op"; "name"; "priority"; "budget_s"; "deadline_s"; "trace"; "query" ]

let parse_request ?max_depth ?max_bytes payload =
  match Json.of_string ?max_depth ?max_bytes payload with
  | Error e -> Error (Printf.sprintf "invalid request JSON: %s" e)
  | Ok req -> (
      let str key = Option.bind (Json.member key req) Json.to_string in
      let num key = Option.bind (Json.member key req) Json.to_float in
      let int_def key default =
        match Option.bind (Json.member key req) Json.to_int with
        | Some i -> i
        | None -> default
      in
      let envelope () =
        let trace =
          Option.value ~default:false
            (Option.bind (Json.member "trace" req) Json.to_bool)
        in
        (str "name", int_def "priority" 0, num "budget_s", num "deadline_s",
         trace)
      in
      match str "op" with
      | None -> Error "request is missing \"op\""
      | Some "ping" -> Ok Ping
      | Some "metrics" ->
          Ok
            (Metrics
               { since = Option.bind (Json.member "since" req) Json.to_int })
      | Some "drain" -> Ok Drain
      | Some "submit" -> (
          match Json.member "spec" req with
          | None -> Error "submit request is missing \"spec\""
          | Some spec ->
              let name, priority, budget_s, deadline_s, trace = envelope () in
              Ok (Submit { name; priority; budget_s; deadline_s; trace; spec }))
      | Some "query" -> (
          (* Sugar: one query object becomes a one-query spec.  Any
             non-envelope top-level keys (timeout_s, setup, ...) carry
             over as spec-level keys. *)
          match Json.member "query" req with
          | None -> Error "query request is missing \"query\""
          | Some q ->
              let carried =
                match req with
                | Json.Obj fields ->
                    List.filter
                      (fun (k, _) -> not (List.mem k envelope_keys))
                      fields
                | _ -> []
              in
              let spec = Json.Obj (("queries", Json.Arr [ q ]) :: carried) in
              let name, priority, budget_s, deadline_s, trace = envelope () in
              Ok (Submit { name; priority; budget_s; deadline_s; trace; spec }))
      | Some op -> Error (Printf.sprintf "unknown op %S" op))

(* ---- responses (each the payload of one frame) ---- *)

let busy ~retry_after_s ~queue_depth =
  Json.encode
    (Json.Obj
       [
         ("type", Json.Str "busy");
         ("retry_after_s", Json.Num retry_after_s);
         ("queue_depth", Json.int queue_depth);
       ])

let error ~message =
  Json.encode
    (Json.Obj [ ("type", Json.Str "error"); ("message", Json.Str message) ])

let accepted ~job ~position ~trace =
  Json.encode
    (Json.Obj
       [
         ("type", Json.Str "accepted");
         ("job", Json.Str job);
         ("position", Json.int position);
         ("trace", Json.Str trace);
       ])

let verdict_line (qr : Campaign.query_report) =
  let verdict =
    match qr.Campaign.outcome with
    | Campaign.Done r ->
        [ ("verdict", Json.Str (Campaign.verdict_word r.Verify.verdict)) ]
    | Campaign.Crashed reason | Campaign.Skipped reason ->
        [ ("verdict", Json.Null); ("detail", Json.Str reason) ]
  in
  Json.encode
    (Json.Obj
       ([
          ("type", Json.Str "verdict");
          ("label", Json.Str qr.Campaign.query.Campaign.label);
          ("outcome", Json.Str (Campaign.outcome_word qr.Campaign.outcome));
        ]
       @ verdict
       @ [
           ("from_journal", Json.Bool qr.Campaign.from_journal);
           ("attempts", Json.int qr.Campaign.attempts);
         ]))

let done_line ~job ?(trace = "") (report : Campaign.report) =
  Json.encode
    (Json.Obj
       [
         ("type", Json.Str "done");
         ("job", Json.Str job);
         ("trace", Json.Str trace);
         ("exit_code", Json.int (Campaign.report_exit_code report));
         ("degraded", Json.Bool report.Campaign.degraded);
         ("crashed", Json.int report.Campaign.crashed);
         ("skipped", Json.int report.Campaign.skipped);
         ("resumed", Json.int report.Campaign.resumed);
         ("total_wall_s", Json.Num report.Campaign.total_wall_s);
       ])

(* [cursor] names this snapshot for later delta polls; [since] echoes
   the base cursor when the payload is a delta (absent: a full
   snapshot, either because the client asked for one or its cursor aged
   out). *)
let metrics_reply ?cursor ?since snapshot =
  let opt key = function Some c -> [ (key, Json.int c) ] | None -> [] in
  Json.encode
    (Json.Obj
       ((("type", Json.Str "metrics") :: opt "cursor" cursor)
       @ opt "since" since
       @ [ ("metrics", Metrics.to_json snapshot) ]))

(* The events payload is a complete Chrome trace_event document,
   carried as a string so the client can write it to a file verbatim —
   no float round-trip through the value type. *)
let trace_reply ~job ~trace ~events =
  Json.encode
    (Json.Obj
       [
         ("type", Json.Str "trace");
         ("job", Json.Str job);
         ("trace", Json.Str trace);
         ("events", Json.Str events);
       ])

let pong ~jobs_running ~queue_depth =
  Json.encode
    (Json.Obj
       [
         ("type", Json.Str "pong");
         ("server", Json.Str version);
         ("jobs_running", Json.int jobs_running);
         ("queue_depth", Json.int queue_depth);
       ])

let draining =
  Json.encode (Json.Obj [ ("type", Json.Str "draining") ])
