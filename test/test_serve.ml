(* The serve daemon: framing, admission control, the joblog, JSON
   hardening, and in-process end-to-end runs over a Unix-domain socket
   — concurrent clients, backpressure, journal replay, the three serve
   fault sites, and a spawned-process kill-and-restart recovery e2e.

   The in-process tests share one lazily prepared tiny pipeline (the
   smoke-test setup: 8x6 camera, hidden [8;4]); each test gets its own
   temp state dir and socket. *)

module Json = Dpv_core.Json
module Campaign = Dpv_core.Campaign
module Journal = Dpv_core.Journal
module Specfile = Dpv_core.Specfile
module Workflow = Dpv_core.Workflow
module Verify = Dpv_core.Verify
module Faults = Dpv_linprog.Faults
module Metrics = Dpv_obs.Metrics
module Frame = Dpv_serve.Frame
module Admission = Dpv_serve.Admission
module Joblog = Dpv_serve.Joblog
module Server = Dpv_serve.Server
module Sclient = Dpv_serve.Client

(* ---- helpers ---- *)

let temp_counter = ref 0

let temp_dir prefix =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !temp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* ---- JSON hardening (satellite: depth and payload limits) ---- *)

let test_json_depth_limit () =
  (* 5000 nested arrays: in an unguarded recursive-descent parser this
     is a stack overflow.  The default cap turns it into an Error. *)
  let deep n = String.make n '[' ^ String.make n ']' in
  (match Json.of_string (deep 5000) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "5000-deep nesting must be refused");
  (match Json.of_string (deep 50) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "50-deep nesting should parse: %s" e);
  (match Json.of_string ~max_depth:4 (deep 5) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth 5 must exceed max_depth 4");
  match Json.of_string ~max_depth:4 (deep 4) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth 4 fits max_depth 4: %s" e

let test_json_payload_limit () =
  (match Json.of_string ~max_bytes:10 "[1,2,3,4,5,6,7,8]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "17 bytes must exceed max_bytes 10");
  match Json.of_string ~max_bytes:1024 "[1,2,3]" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "7 bytes fit in 1024: %s" e

(* ---- framing ---- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair @@ fun a b ->
  let payloads = [ "hello"; ""; "{\"op\": \"ping\"}"; String.make 4096 'x' ] in
  List.iter
    (fun p ->
      (match Frame.write a p with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "frame write failed");
      match Frame.read b with
      | Ok got -> Alcotest.(check string) "payload round-trips" p got
      | Error _ -> Alcotest.fail "frame read failed")
    payloads;
  Unix.close a;
  match Frame.read b with
  | Error Frame.Closed -> ()
  | _ -> Alcotest.fail "EOF at a frame boundary must be Closed"

let test_frame_torn () =
  with_socketpair @@ fun a b ->
  (* Header promises 10 bytes; the stream dies after 3. *)
  ignore (Unix.write_substring a "10\nabc" 0 6);
  Unix.close a;
  match Frame.read b with
  | Error (Frame.Torn _) -> ()
  | Error Frame.Closed -> Alcotest.fail "mid-frame EOF must be Torn, not Closed"
  | Ok _ -> Alcotest.fail "torn frame must not parse"

let test_frame_oversized_refused_on_header () =
  with_socketpair @@ fun a b ->
  (* A declared 100 MB frame with no payload behind it: the limit must
     trip on the declared length alone (the error says so), never on
     running out of stream — which would mean the reader had started
     consuming the payload. *)
  ignore (Unix.write_substring a "100000000\n" 0 10);
  match Frame.read ~max_bytes:(8 * 1024 * 1024) b with
  | Error (Frame.Torn msg) ->
      Alcotest.(check bool)
        ("refused on the declared length: " ^ msg)
        true
        (contains msg "declared frame")
  | _ -> Alcotest.fail "oversized frame must be Torn"

let test_frame_bad_header () =
  with_socketpair @@ fun a b ->
  ignore (Unix.write_substring a "12x\nwhatever" 0 12);
  match Frame.read b with
  | Error (Frame.Torn _) -> ()
  | _ -> Alcotest.fail "non-digit header byte must be Torn"

(* ---- admission queue ---- *)

let test_admission_priority_and_fifo () =
  let q = Admission.create ~capacity:8 in
  List.iter
    (fun (p, x) ->
      match Admission.submit q ~priority:p x with
      | Admission.Admitted _ -> ()
      | Admission.Rejected _ -> Alcotest.fail "queue should have room")
    [ (0, "a"); (0, "b"); (5, "hi"); (0, "c"); (5, "hi2") ];
  let order = List.init 5 (fun _ -> Option.get (Admission.take q)) in
  Alcotest.(check (list string)) "priority first, FIFO within a priority"
    [ "hi"; "hi2"; "a"; "b"; "c" ]
    order

let test_admission_capacity_backpressure () =
  let q = Admission.create ~capacity:2 in
  ignore (Admission.submit q ~priority:0 "a");
  ignore (Admission.submit q ~priority:0 "b");
  (match Admission.submit q ~priority:0 "c" with
  | Admission.Rejected { queue_depth } ->
      Alcotest.(check int) "rejection reports the depth" 2 queue_depth
  | Admission.Admitted _ -> Alcotest.fail "full queue must reject");
  ignore (Admission.take q);
  match Admission.submit q ~priority:0 "c" with
  | Admission.Admitted _ -> ()
  | Admission.Rejected _ -> Alcotest.fail "room freed by take must readmit"

let test_admission_before_failure_aborts () =
  let q = Admission.create ~capacity:4 in
  (match
     Admission.submit q ~priority:0 ~before:(fun () -> failwith "disk full") "a"
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "a raising [before] must propagate");
  Alcotest.(check int) "aborted submission leaves nothing queued" 0
    (Admission.depth q);
  match Admission.submit q ~priority:0 "b" with
  | Admission.Admitted 0 -> ()
  | _ -> Alcotest.fail "the queue survives an aborted submission"

let test_admission_close_drains () =
  let q = Admission.create ~capacity:4 in
  ignore (Admission.submit q ~priority:0 "a");
  ignore (Admission.submit q ~priority:3 "b");
  Alcotest.(check (list string)) "close returns queued items" [ "b"; "a" ]
    (Admission.close q);
  (match Admission.submit q ~priority:0 "c" with
  | Admission.Rejected _ -> ()
  | Admission.Admitted _ -> Alcotest.fail "closed queue must reject");
  Alcotest.(check bool) "take on closed+empty is None" true
    (Admission.take q = None)

(* ---- joblog ---- *)

let sample_spec = Json.Obj [ ("queries", Json.Arr []) ]

let test_joblog_roundtrip_and_pending () =
  let dir = temp_dir "dpv-joblog" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "joblog.jsonl" in
  Joblog.append ~path
    (Joblog.Accepted
       {
         job = "aaa";
         name = "first";
         priority = 2;
         budget_s = Some 1.5;
         deadline_s = None;
         trace = "t-aaa";
         spec = sample_spec;
       });
  Joblog.append ~path
    (Joblog.Accepted
       {
         job = "bbb";
         name = "second";
         priority = 0;
         budget_s = None;
         deadline_s = Some 30.0;
         trace = "t-bbb";
         spec = sample_spec;
       });
  Joblog.append ~path (Joblog.Client_gone { job = "aaa" });
  Joblog.append ~path (Joblog.Finished { job = "aaa"; exit_code = 0 });
  let events = ok (Joblog.load ~path) in
  Alcotest.(check int) "all four events load" 4 (List.length events);
  (match List.nth events 0 with
  | Joblog.Accepted { job; name; priority; budget_s; deadline_s; trace; spec }
    ->
      Alcotest.(check string) "job id round-trips" "aaa" job;
      Alcotest.(check string) "name round-trips" "first" name;
      Alcotest.(check int) "priority round-trips" 2 priority;
      Alcotest.(check (option (float 1e-9))) "budget round-trips" (Some 1.5)
        budget_s;
      Alcotest.(check (option (float 1e-9))) "deadline round-trips" None
        deadline_s;
      Alcotest.(check string) "trace id round-trips" "t-aaa" trace;
      Alcotest.(check bool) "spec round-trips" true (spec = sample_spec)
  | _ -> Alcotest.fail "first event should be Accepted");
  match Joblog.pending events with
  | [ ("bbb", "second", 0, None, Some d, trace, _) ] ->
      Alcotest.(check (float 1e-9)) "pending keeps the deadline" 30.0 d;
      Alcotest.(check string) "pending carries the trace id" "t-bbb" trace
  | p ->
      Alcotest.failf "finished job must not be pending (got %d)" (List.length p)

let test_joblog_torn_tail_dropped () =
  let dir = temp_dir "dpv-joblog" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "joblog.jsonl" in
  Joblog.append ~path (Joblog.Finished { job = "aaa"; exit_code = 0 });
  (* Simulate a crash mid-append: a final line with no newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"event\": \"accepted\", \"job\": \"bb";
  close_out oc;
  let events = ok (Joblog.load ~path) in
  Alcotest.(check int) "torn tail is dropped" 1 (List.length events)

let test_joblog_mid_file_corruption_is_error () =
  let dir = temp_dir "dpv-joblog" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "joblog.jsonl" in
  write_file path
    "not json at all\n{\"event\": \"finished\", \"job\": \"a\", \"exit_code\": 0}\n";
  match Joblog.load ~path with
  | Error e ->
      Alcotest.(check bool) ("error names the line: " ^ e) true (contains e "1")
  | Ok _ -> Alcotest.fail "mid-file corruption must be a hard error"

let test_joblog_missing_file_empty () =
  Alcotest.(check int) "missing joblog is an empty history" 0
    (List.length (ok (Joblog.load ~path:"/nonexistent/dpv-joblog.jsonl")))

(* ---- campaign journal: meta trailer on resume (satellite) ---- *)

let test_resume_skips_meta_trailer () =
  let dir = temp_dir "dpv-meta" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "journal.jsonl" in
  let qs = Test_campaign.queries () in
  let report =
    Campaign.run ~runners:1 ~journal:path ~perception:Test_campaign.perception
      qs
  in
  (* Append a shard meta trailer after the entries, as a sharded
     campaign would. *)
  let entries = ok (Journal.load ~path) in
  let w = Journal.create ~path entries in
  Journal.append_meta w
    {
      Journal.shard = 0;
      shard_count = 1;
      runners = 1;
      total_wall_s = report.Campaign.total_wall_s;
      trace = "";
      metrics = Metrics.snapshot ();
    };
  Journal.close w;
  (* Plain load skips the trailer, so a resume over a sharded journal
     replays every settled query without re-solving. *)
  let resumed_entries = ok (Journal.load ~path) in
  Alcotest.(check int) "load skips the meta trailer" (List.length qs)
    (List.length resumed_entries);
  let resumed =
    Campaign.run ~runners:1 ~resume:resumed_entries
      ~perception:Test_campaign.perception qs
  in
  Alcotest.(check int) "every query replays from the journal"
    (List.length qs)
    (List.length
       (List.filter
          (fun (qr : Campaign.query_report) -> qr.Campaign.from_journal)
          resumed.Campaign.query_reports));
  List.iter2
    (fun (orig : Campaign.query_report) (rep : Campaign.query_report) ->
      match (orig.Campaign.outcome, rep.Campaign.outcome) with
      | Campaign.Done a, Campaign.Done b ->
          Alcotest.(check string)
            (orig.Campaign.query.Campaign.label ^ ": replayed verdict matches")
            (Campaign.verdict_word a.Verify.verdict)
            (Campaign.verdict_word b.Verify.verdict)
      | _ -> Alcotest.fail "clean runs should be Done on both sides")
    report.Campaign.query_reports resumed.Campaign.query_reports

(* ---- in-process server e2e ---- *)

let base_spec_text =
  {|{
  "seed": 3,
  "runners": 1,
  "workers": 1,
  "max_nodes": 4000,
  "timeout_s": 30.0,
  "setup": {
    "hidden": [8, 4],
    "cut": 6,
    "train_size": 100,
    "val_size": 30,
    "perception_epochs": 4,
    "characterizer_samples": 60,
    "bounds_samples": 60,
    "camera_width": 8,
    "camera_height": 6
  },
  "queries": []
}|}

(* One pipeline train shared by every in-process server test. *)
let pipeline =
  lazy
    (let spec = ok (Json.of_string base_spec_text) in
     let parsed = ok (Specfile.parse spec) in
     let prepared = Workflow.prepare parsed.Specfile.setup in
     (spec, parsed, prepared))

let query_obj ?(psi = "far-left:30") ?(strategy = "data-box") name =
  Json.Obj
    [
      ("name", Json.Str name);
      ("property", Json.Str "bends-right");
      ("psi", Json.Str psi);
      ("strategy", Json.Str strategy);
    ]

(* The submission envelope: a campaign spec under "spec", with the
   scheduling fields alongside the op.  Seed and setup are omitted,
   inheriting the server's. *)
let submission ?name ?priority ?budget_s ?deadline_s queries =
  let opt k = function None -> [] | Some v -> [ (k, v) ] in
  Json.encode
    (Json.Obj
       ([
          ("op", Json.Str "submit");
          ("spec", Json.Obj [ ("queries", Json.Arr queries) ]);
        ]
       @ opt "name" (Option.map (fun s -> Json.Str s) name)
       @ opt "priority"
           (Option.map (fun p -> Json.Num (float_of_int p)) priority)
       @ opt "budget_s" (Option.map (fun b -> Json.Num b) budget_s)
       @ opt "deadline_s" (Option.map (fun d -> Json.Num d) deadline_s)))

let with_server ?(tune = fun c -> c) ?before_execute f =
  let dir = temp_dir "dpv-serve" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let spec, parsed, prepared = Lazy.force pipeline in
  let state_dir = Filename.concat dir "state" in
  let config = tune (Server.default_config ~state_dir) in
  let server =
    Server.create ~config ?before_execute
      ~perception:prepared.Workflow.perception
      ~builder:(Specfile.builder prepared) ~base:parsed ~base_spec:spec ()
  in
  let sock = Filename.concat dir "dpv.sock" in
  let listen_fd = Server.listen_unix ~path:sock in
  let th = Thread.create (fun () -> Server.serve server listen_fd) () in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain server;
      Thread.join th)
    (fun () -> f server ~sock ~state_dir)

let submit_collect sock request =
  let fd = Sclient.connect_unix ~path:sock in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let frames = ref [] in
      let outcome =
        Sclient.submit_and_stream fd ~request ~on_frame:(fun p ->
            frames := p :: !frames)
      in
      (outcome, List.rev !frames))

(* Extract field [key] from every frame of type [ty], as raw Json. *)
let frames_of frames ~ty key =
  List.filter_map
    (fun p ->
      match Json.of_string p with
      | Ok v when Option.bind (Json.member "type" v) Json.to_string = Some ty
        ->
          Json.member key v
      | _ -> None)
    frames

let string_frames frames ~ty key =
  List.filter_map Json.to_string (frames_of frames ~ty key)

let finished_code = function
  | Sclient.Finished { exit_code } -> exit_code
  | Sclient.Busy _ -> Alcotest.fail "unexpected busy reply"
  | Sclient.Failed msg -> Alcotest.failf "stream failed: %s" msg

let test_serve_submit_streams_verdicts () =
  with_server @@ fun _server ~sock ~state_dir:_ ->
  let qs = [ query_obj "fl"; query_obj ~psi:"far-right:30" "fr" ] in
  let outcome, frames = submit_collect sock (submission ~name:"two" qs) in
  let code = finished_code outcome in
  Alcotest.(check bool) "clean exit code" true (code = 0 || code = 2);
  (* Settle order is pool order, not input order: compare as sets of
     (label, verdict) pairs. *)
  let streamed =
    List.sort compare
      (List.combine
         (string_frames frames ~ty:"verdict" "label")
         (string_frames frames ~ty:"verdict" "verdict"))
  in
  (* Daemon and batch answer alike: the same queries through the same
     builder, run directly, give the same verdict words. *)
  let _, parsed, prepared = Lazy.force pipeline in
  let queries =
    ok
      (Specfile.queries
         (Specfile.builder prepared)
         ~default_cut:parsed.Specfile.setup.Workflow.cut qs)
  in
  let report =
    Campaign.run ~runners:1 ~perception:prepared.Workflow.perception queries
  in
  let batch =
    List.sort compare
      (List.map
         (fun (qr : Campaign.query_report) ->
           ( qr.Campaign.query.Campaign.label,
             match qr.Campaign.outcome with
             | Campaign.Done r -> Campaign.verdict_word r.Verify.verdict
             | _ -> "crashed" ))
         report.Campaign.query_reports)
  in
  Alcotest.(check (list (pair string string)))
    "daemon verdicts equal batch verdicts" batch streamed;
  Alcotest.(check int) "batch exit code agrees"
    (Campaign.report_exit_code report)
    code

let test_serve_concurrent_clients_independent_streams () =
  with_server @@ fun _server ~sock ~state_dir:_ ->
  (* Client A carries a zero budget (every query skipped, degraded
     exit 4); client B has none and verifies cleanly.  Budgets are
     per-job, and each stream must see only its own labels. *)
  let res_a = ref None and res_b = ref None in
  let spawn out request =
    Thread.create (fun () -> out := Some (submit_collect sock request)) ()
  in
  let ta =
    spawn res_a (submission ~name:"a" ~budget_s:0.0 [ query_obj "qa" ])
  in
  let tb =
    spawn res_b (submission ~name:"b" [ query_obj ~psi:"far-left:25" "qb" ])
  in
  Thread.join ta;
  Thread.join tb;
  let outcome_a, frames_a = Option.get !res_a in
  let outcome_b, frames_b = Option.get !res_b in
  Alcotest.(check int) "zero budget degrades to 4" 4 (finished_code outcome_a);
  Alcotest.(check int) "unconstrained client exits clean" 0
    (finished_code outcome_b);
  Alcotest.(check (list string)) "stream A sees only its own labels" [ "qa" ]
    (string_frames frames_a ~ty:"verdict" "label");
  Alcotest.(check (list string)) "stream B sees only its own labels" [ "qb" ]
    (string_frames frames_b ~ty:"verdict" "label");
  Alcotest.(check (list string)) "A's queries were skipped, not solved"
    [ "skipped" ]
    (string_frames frames_a ~ty:"verdict" "outcome");
  Alcotest.(check (list string)) "B's query solved" [ "done" ]
    (string_frames frames_b ~ty:"verdict" "outcome")

(* An executor gate: [before] parks the executor at job start until
   [release]; [wait_entered] lets the test synchronize on "a job is
   now running". *)
let gate () =
  let m = Mutex.create () and c = Condition.create () in
  let entered = ref false and released = ref false in
  let before _id =
    Mutex.protect m (fun () ->
        entered := true;
        Condition.broadcast c;
        while not !released do
          Condition.wait c m
        done)
  in
  let wait_entered () =
    Mutex.protect m (fun () ->
        while not !entered do
          Condition.wait c m
        done)
  in
  let release () =
    Mutex.protect m (fun () ->
        released := true;
        Condition.broadcast c)
  in
  (before, wait_entered, release)

let test_serve_backpressure_and_duplicates () =
  let before, wait_entered, release = gate () in
  with_server
    ~tune:(fun c -> { c with Server.capacity = 1; retry_after_s = 0.25 })
    ~before_execute:before
  @@ fun _server ~sock ~state_dir:_ ->
  let first = submission ~name:"first" [ query_obj "q1" ] in
  let second = submission ~name:"second" [ query_obj ~psi:"far-left:25" "q2" ] in
  let res = ref None in
  let t1 = Thread.create (fun () -> res := Some (submit_collect sock first)) () in
  wait_entered ();
  (* The single capacity slot is occupied by the running job: both a
     new job and a duplicate of the in-flight one get explicit busy
     replies carrying the configured retry hint. *)
  (match submit_collect sock second with
  | Sclient.Busy { retry_after_s }, _ ->
      Alcotest.(check (float 1e-9)) "busy carries the retry hint" 0.25
        retry_after_s
  | (Sclient.Finished _ | Sclient.Failed _), _ ->
      Alcotest.fail "saturated server must answer busy");
  (match submit_collect sock first with
  | Sclient.Busy _, _ -> ()
  | _ -> Alcotest.fail "duplicate of an in-flight job must answer busy");
  release ();
  Thread.join t1;
  let outcome1, _ = Option.get !res in
  Alcotest.(check int) "held job finishes clean" 0 (finished_code outcome1);
  (* Capacity freed: the rejected job is accepted on resubmission. *)
  let outcome2, _ = submit_collect sock second in
  Alcotest.(check int) "resubmission after drain of the slot runs" 0
    (finished_code outcome2)

let test_serve_deadline_spent_in_queue () =
  (* The hook runs before the budget is carved, so sleeping past the
     1 ms deadline there makes the expiry certain instead of a race with
     the start of execution. *)
  with_server ~before_execute:(fun _ -> Unix.sleepf 0.01)
  @@ fun _server ~sock ~state_dir:_ ->
  (* A deadline that has already passed when execution starts leaves a
     zero carve: queries are skipped and the job reports degraded. *)
  let outcome, frames =
    submit_collect sock
      (submission ~name:"hurried" ~deadline_s:0.001 [ query_obj "late" ])
  in
  Alcotest.(check int) "expired deadline degrades to 4" 4
    (finished_code outcome);
  Alcotest.(check (list string)) "the query was skipped" [ "skipped" ]
    (string_frames frames ~ty:"verdict" "outcome")

let test_serve_resubmit_replays_from_journal () =
  with_server @@ fun _server ~sock ~state_dir:_ ->
  let request = submission ~name:"replay" [ query_obj "rq" ] in
  let outcome1, frames1 = submit_collect sock request in
  Alcotest.(check int) "first run exits clean" 0 (finished_code outcome1);
  Alcotest.(check (list bool)) "first run solves live" [ false ]
    (List.filter_map
       (fun v -> match v with Json.Bool b -> Some b | _ -> None)
       (frames_of frames1 ~ty:"verdict" "from_journal"));
  let outcome2, frames2 = submit_collect sock request in
  Alcotest.(check int) "replayed run exits clean" 0 (finished_code outcome2);
  Alcotest.(check (list bool)) "second run replays from the journal" [ true ]
    (List.filter_map
       (fun v -> match v with Json.Bool b -> Some b | _ -> None)
       (frames_of frames2 ~ty:"verdict" "from_journal"));
  match frames_of frames2 ~ty:"done" "resumed" with
  | [ v ] -> Alcotest.(check (option int)) "done counts the replay" (Some 1)
               (Json.to_int v)
  | _ -> Alcotest.fail "expected exactly one done frame"

let test_serve_warm_cache_across_jobs () =
  with_server @@ fun _server ~sock ~state_dir:_ ->
  let hits () = Metrics.counter_value (Metrics.counter "campaign.cache_hits") in
  let outcome1, _ =
    submit_collect sock (submission ~name:"warmup" [ query_obj "w1" ])
  in
  ignore (finished_code outcome1);
  let before = hits () in
  (* Same strategy and cut, different psi: a distinct job whose shared
     encoding is already in the server's persistent cache. *)
  let outcome2, _ =
    submit_collect sock
      (submission ~name:"warmed" [ query_obj ~psi:"far-left:20" "w2" ])
  in
  ignore (finished_code outcome2);
  Alcotest.(check bool) "second job hits the persistent encoding cache" true
    (hits () > before)

let test_serve_setup_mismatch_refused () =
  with_server @@ fun _server ~sock ~state_dir:_ ->
  let request =
    Json.encode
      (Json.Obj
         [
           ("op", Json.Str "submit");
           ( "spec",
             Json.Obj
               [
                 ("seed", Json.Num 99.0);
                 ("queries", Json.Arr [ query_obj "q" ]);
               ] );
         ])
  in
  match submit_collect sock request with
  | Sclient.Failed msg, _ ->
      Alcotest.(check bool) ("refusal names the mismatch: " ^ msg) true
        (contains msg "setup mismatch")
  | _ -> Alcotest.fail "a different seed must be refused"

let test_serve_drain_refuses_submissions () =
  with_server @@ fun _server ~sock ~state_dir:_ ->
  (* One connection: a drain request, then a submit on the same (still
     live) connection — the handler must answer [draining], not run
     the job. *)
  let fd = Sclient.connect_unix ~path:sock in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (match Sclient.rpc fd (Json.encode (Json.Obj [ ("op", Json.Str "drain") ])) with
      | Ok reply ->
          Alcotest.(check bool) "drain acknowledged" true
            (contains reply "draining")
      | Error e -> Alcotest.failf "drain request failed: %s" e);
      match
        Sclient.submit_and_stream fd
          ~request:(submission [ query_obj "q" ])
          ~on_frame:(fun _ -> ())
      with
      | Sclient.Failed msg ->
          Alcotest.(check bool) ("draining reply: " ^ msg) true
            (contains msg "draining")
      | Sclient.Finished _ | Sclient.Busy _ ->
          Alcotest.fail "a draining server must refuse submissions")

(* ---- fault sites (satellite: serve-accept, serve-torn-frame,
   serve-client-gone) ---- *)

let with_faults plan f =
  Fun.protect ~finally:Faults.disable (fun () ->
      Faults.configure plan;
      f ())

let test_fault_serve_accept_absorbed () =
  with_server @@ fun _server ~sock ~state_dir:_ ->
  with_faults [ (Faults.Serve_accept, 1) ] @@ fun () ->
  (* First connection: the accept-side hiccup closes it before the
     handler exists; the client sees EOF, the server keeps listening. *)
  let fd = Sclient.connect_unix ~path:sock in
  (match Sclient.rpc fd (Json.encode (Json.Obj [ ("op", Json.Str "ping") ])) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "the injected accept hiccup should kill this one");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Alcotest.(check int) "the hiccup fired" 1 (Faults.fired Faults.Serve_accept);
  (* Second connection: alive and answering. *)
  let fd = Sclient.connect_unix ~path:sock in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match
        Sclient.rpc fd (Json.encode (Json.Obj [ ("op", Json.Str "ping") ]))
      with
      | Ok reply ->
          Alcotest.(check bool) "server still answers" true
            (contains reply "pong")
      | Error e -> Alcotest.failf "server must survive the hiccup: %s" e)

(* A faults-free frame reader: the injection tests' client must not
   consume the armed site's occurrence itself, so it bypasses
   Frame.read. *)
let raw_read_frame fd =
  let one = Bytes.create 1 in
  (* Like Frame.really_read, a peer that closed with our bytes still
     unread (AF_UNIX resets instead of EOF-ing then) reads as EOF. *)
  let read_byte buf ofs len =
    try Unix.read fd buf ofs len
    with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0
  in
  let rec header acc =
    match read_byte one 0 1 with
    | 0 -> Error `Eof
    | _ -> (
        match Bytes.get one 0 with
        | '\n' -> Ok acc
        | c -> header (acc ^ String.make 1 c))
  in
  match header "" with
  | Error `Eof -> Error `Eof
  | Ok h -> (
      let len = int_of_string h in
      let buf = Bytes.create (len + 1) in
      let rec fill ofs =
        if ofs >= len + 1 then Ok (Bytes.sub_string buf 0 len)
        else
          match read_byte buf ofs (len + 1 - ofs) with
          | 0 -> Error `Eof
          | n -> fill (ofs + n)
      in
      fill 0)

let test_fault_serve_torn_frame_isolates_connection () =
  with_server @@ fun _server ~sock ~state_dir:_ ->
  let fd = Sclient.connect_unix ~path:sock in
  (* The injection fires only once bytes begin arriving at the
     handler's read, so the ping below is what tears the stream: the
     client's write always lands before the framed error reply (no
     race).  The client reads raw, consuming no occurrences. *)
  ( with_faults [ (Faults.Serve_torn_frame, 1) ] @@ fun () ->
    (match Frame.write fd (Json.encode (Json.Obj [ ("op", Json.Str "ping") ])) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "client write should succeed");
    (match raw_read_frame fd with
    | Ok reply ->
        Alcotest.(check bool) ("framed error before close: " ^ reply) true
          (contains reply "torn")
    | Error `Eof ->
        Alcotest.fail "the torn connection gets a framed error first");
    (match raw_read_frame fd with
    | Error `Eof -> ()
    | Ok _ -> Alcotest.fail "the torn connection is then closed") );
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* Only that connection died: a fresh one is served normally. *)
  let fd = Sclient.connect_unix ~path:sock in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match
        Sclient.rpc fd (Json.encode (Json.Obj [ ("op", Json.Str "ping") ]))
      with
      | Ok reply ->
          Alcotest.(check bool) "server still answers" true
            (contains reply "pong")
      | Error e -> Alcotest.failf "other connections must be unaffected: %s" e)

let test_fault_serve_client_gone_job_survives () =
  with_server @@ fun _server ~sock ~state_dir ->
  (* Occurrences of the write site, in causal order: 1 = this client's
     submit frame, 2 = the server's accepted frame, 3 = the first
     verdict — which is where the peer "vanishes". *)
  with_faults [ (Faults.Serve_client_gone, 3) ] @@ fun () ->
  let outcome, frames =
    submit_collect sock (submission ~name:"ghost" [ query_obj "gq" ])
  in
  (match outcome with
  | Sclient.Failed _ -> ()
  | Sclient.Finished _ | Sclient.Busy _ ->
      Alcotest.fail "the stream should die after the accepted frame");
  Alcotest.(check int) "only the accepted frame arrived" 1 (List.length frames);
  (* The job ran on headless: the joblog records both the loss and the
     finish, and the campaign journal holds the verdict. *)
  let events = ok (Joblog.load ~path:(Filename.concat state_dir "joblog.jsonl")) in
  let job =
    match
      List.find_map
        (function Joblog.Accepted { job; _ } -> Some job | _ -> None)
        events
    with
    | Some j -> j
    | None -> Alcotest.fail "job should be journaled"
  in
  Alcotest.(check bool) "client loss recorded" true
    (List.exists
       (function Joblog.Client_gone { job = j } -> j = job | _ -> false)
       events);
  Alcotest.(check bool) "job finished despite the lost client" true
    (List.exists
       (function
         | Joblog.Finished { job = j; exit_code = 0 } -> j = job | _ -> false)
       events);
  let entries =
    ok
      (Journal.load
         ~path:(Filename.concat state_dir ("job-" ^ job ^ ".jsonl")))
  in
  Alcotest.(check int) "the verdict reached the journal" 1
    (List.length entries)

(* ---- observability e2e: scrape endpoint, trace correlation,
   since-cursor, slow log (dpv-obs/2) ---- *)

(* [with_server] plus a loopback scrape listener on an ephemeral port. *)
let with_scrape_server ?(tune = fun c -> c) ?before_execute f =
  let dir = temp_dir "dpv-serve" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let spec, parsed, prepared = Lazy.force pipeline in
  let state_dir = Filename.concat dir "state" in
  let config = tune (Server.default_config ~state_dir) in
  let server =
    Server.create ~config ?before_execute
      ~perception:prepared.Workflow.perception
      ~builder:(Specfile.builder prepared) ~base:parsed ~base_spec:spec ()
  in
  let sock = Filename.concat dir "dpv.sock" in
  let listen_fd = Server.listen_unix ~path:sock in
  let scrape_fd = Server.listen_tcp ~port:0 in
  let scrape_port =
    match Unix.getsockname scrape_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "scrape listener is not inet"
  in
  let th =
    Thread.create (fun () -> Server.serve ~scrape_fd server listen_fd) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain server;
      Thread.join th)
    (fun () -> f server ~sock ~state_dir ~scrape_port)

let http_request ~port request =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring fd request 0 (String.length request));
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            drain ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            ()
      in
      drain ();
      Buffer.contents b)

let scrape ~port =
  http_request ~port "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n"

let http_body response =
  let n = String.length response in
  let rec find i =
    if i + 4 > n then
      Alcotest.failf "no header/body split in %S" response
    else if String.sub response i 4 = "\r\n\r\n" then
      String.sub response (i + 4) (n - i - 4)
    else find (i + 1)
  in
  find 0

(* The value of sample line [name <int>] in an exposition body (the
   test server attaches no labels). *)
let sample_value body name =
  List.find_map
    (fun line ->
      match String.index_opt line ' ' with
      | Some i when String.sub line 0 i = name ->
          int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
      | _ -> None)
    (String.split_on_char '\n' body)

let test_serve_scrape_endpoint_live () =
  let before, wait_entered, release = gate () in
  with_scrape_server ~before_execute:before
  @@ fun _server ~sock ~state_dir:_ ~scrape_port:port ->
  (* Park the executor mid-job so the scrape observably lands while a
     job is in the system. *)
  let res = ref None in
  let t =
    Thread.create
      (fun () ->
        res := Some (submit_collect sock (submission ~name:"scraped" [ query_obj "sq" ])))
      ()
  in
  wait_entered ();
  let r1 = scrape ~port in
  Alcotest.(check bool) "HTTP 200" true (contains r1 "HTTP/1.1 200 OK");
  Alcotest.(check bool) "OpenMetrics content type" true
    (contains r1 "text/plain; version=0.0.4");
  let b1 = http_body r1 in
  Alcotest.(check bool) "typed counter family" true
    (contains b1 "# TYPE dpv_serve_submissions counter");
  Alcotest.(check bool) "histogram family present" true
    (contains b1 "# TYPE dpv_journal_append_ns histogram");
  Alcotest.(check bool) "terminated by # EOF" true (contains b1 "# EOF\n");
  Alcotest.(check bool) "the in-flight submission is counted" true
    (Option.value ~default:0 (sample_value b1 "dpv_serve_submissions_total")
    >= 1);
  release ();
  Thread.join t;
  ignore (finished_code (fst (Option.get !res)));
  (* Second scrape after the job: every counter is monotone and the
     scrape itself was counted. *)
  let b2 = http_body (scrape ~port) in
  let totals body =
    List.filter_map
      (fun line ->
        match String.index_opt line ' ' with
        | Some i ->
            let name = String.sub line 0 i in
            if
              String.length name > 6
              && String.sub name (String.length name - 6) 6 = "_total"
            then
              Option.map (fun v -> (name, v)) (sample_value body name)
            else None
        | None -> None)
      (String.split_on_char '\n' body)
  in
  List.iter
    (fun (name, v1) ->
      match sample_value b2 name with
      | Some v2 ->
          if v2 < v1 then
            Alcotest.failf "counter %s went backwards: %d -> %d" name v1 v2
      | None -> Alcotest.failf "counter %s vanished between scrapes" name)
    (totals b1);
  Alcotest.(check bool) "scrapes count themselves" true
    (Option.value ~default:0 (sample_value b2 "dpv_serve_scrapes_total")
    > Option.value ~default:0 (sample_value b1 "dpv_serve_scrapes_total"));
  (* Non-GET methods are refused without killing the listener. *)
  let bad = http_request ~port "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n" in
  Alcotest.(check bool) "POST answers 405" true (contains bad "405");
  Alcotest.(check bool) "listener survives the refusal" true
    (contains (scrape ~port) "# EOF")

let test_fault_serve_scrape_isolates_connection () =
  with_scrape_server @@ fun _server ~sock ~state_dir:_ ~scrape_port:port ->
  with_faults [ (Faults.Serve_scrape, 1) ] @@ fun () ->
  (* The injected tear declares more bytes than it sends: the body we
     receive before the connection drops is short of the header's
     Content-Length. *)
  let torn = scrape ~port in
  let declared =
    List.find_map
      (fun line ->
        let line = String.trim line in
        let prefix = "Content-Length:" in
        let pl = String.length prefix in
        if String.length line > pl && String.sub line 0 pl = prefix then
          int_of_string_opt
            (String.trim (String.sub line pl (String.length line - pl)))
        else None)
      (String.split_on_char '\n' torn)
  in
  (match declared with
  | Some n ->
      Alcotest.(check bool) "the body is torn short" true
        (String.length (http_body torn) < n)
  | None -> Alcotest.failf "torn response has no Content-Length: %S" torn);
  Alcotest.(check int) "the tear fired" 1 (Faults.fired Faults.Serve_scrape);
  (* Only that connection died: the next scrape is whole, and jobs are
     untouched. *)
  let whole = scrape ~port in
  Alcotest.(check bool) "next scrape is complete" true
    (contains (http_body whole) "# EOF\n");
  let outcome, _ =
    submit_collect sock (submission ~name:"post-tear" [ query_obj "pt" ])
  in
  Alcotest.(check int) "jobs still run" 0 (finished_code outcome)

let is_hex c = match c with '0' .. '9' | 'a' .. 'f' -> true | _ -> false

let test_serve_trace_correlation_e2e () =
  with_server @@ fun _server ~sock ~state_dir ->
  let request =
    Json.encode
      (Json.Obj
         [
           ("op", Json.Str "submit");
           ("spec", Json.Obj [ ("queries", Json.Arr [ query_obj "tq" ]) ]);
           ("name", Json.Str "traced");
           ("trace", Json.Bool true);
         ])
  in
  let outcome, frames = submit_collect sock request in
  Alcotest.(check int) "traced job exits clean" 0 (finished_code outcome);
  let tid =
    match string_frames frames ~ty:"accepted" "trace" with
    | [ t ] -> t
    | _ -> Alcotest.fail "accepted frame must mint a trace id"
  in
  Alcotest.(check bool) "trace id is 16 hex chars" true
    (String.length tid = 16 && String.for_all is_hex tid);
  let job =
    match string_frames frames ~ty:"accepted" "job" with
    | [ j ] -> j
    | _ -> Alcotest.fail "no job id"
  in
  Alcotest.(check (list string)) "done frame carries the same id" [ tid ]
    (string_frames frames ~ty:"done" "trace");
  (* The trace frame: one per traced job, its events string a complete
     Chrome trace whose spans are all stamped with the id. *)
  Alcotest.(check (list string)) "trace frame carries the id" [ tid ]
    (string_frames frames ~ty:"trace" "trace");
  let events_doc =
    match string_frames frames ~ty:"trace" "events" with
    | [ e ] -> e
    | _ -> Alcotest.fail "expected exactly one trace frame"
  in
  (match Json.of_string events_doc with
  | Error e -> Alcotest.failf "trace events do not parse: %s" e
  | Ok doc ->
      let evs =
        Option.value ~default:[]
          (Option.bind (Json.member "traceEvents" doc) Json.to_list)
      in
      let has_span name =
        List.exists
          (fun e -> Option.bind (Json.member "name" e) Json.to_string = Some name)
          evs
      in
      Alcotest.(check bool) "serve.job span present" true
        (has_span "serve.job");
      Alcotest.(check bool) "campaign.query span present" true
        (has_span "campaign.query");
      List.iter
        (fun e ->
          match Option.bind (Json.member "ph" e) Json.to_string with
          | Some ("X" | "i") -> (
              match
                Option.bind (Json.member "args" e) (fun a ->
                    Option.bind (Json.member "trace" a) Json.to_string)
              with
              | Some t when t = tid -> ()
              | _ ->
                  Alcotest.failf "event %s not stamped with the job's id"
                    (Option.value ~default:"?"
                       (Option.bind (Json.member "name" e) Json.to_string)))
          | _ -> ())
        evs);
  (* Joblog correlation: the Accepted entry carries the same id. *)
  let events =
    ok (Joblog.load ~path:(Filename.concat state_dir "joblog.jsonl"))
  in
  Alcotest.(check bool) "joblog Accepted carries the id" true
    (List.exists
       (function
         | Joblog.Accepted { job = j; trace; _ } -> j = job && trace = tid
         | _ -> false)
       events);
  (* Journal-meta correlation: the per-job campaign journal's trailer
     carries it too. *)
  let _, metas =
    ok
      (Journal.load_with_meta
         ~path:(Filename.concat state_dir ("job-" ^ job ^ ".jsonl")))
  in
  (match metas with
  | [ m ] ->
      Alcotest.(check string) "journal meta carries the id" tid
        m.Journal.trace
  | _ -> Alcotest.fail "expected exactly one meta trailer");
  (* A job submitted without trace:true streams no trace frame. *)
  let _, untraced =
    submit_collect sock
      (submission ~name:"untraced" [ query_obj ~psi:"far-left:20" "uq" ])
  in
  Alcotest.(check (list string)) "no trace frame unless asked" []
    (string_frames untraced ~ty:"trace" "trace")

let test_serve_metrics_since_cursor () =
  with_server @@ fun _server ~sock ~state_dir:_ ->
  let outcome, _ =
    submit_collect sock (submission ~name:"c1" [ query_obj "cq" ])
  in
  ignore (finished_code outcome);
  let fd = Sclient.connect_unix ~path:sock in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let poll since =
    let req =
      Json.Obj
        (("op", Json.Str "metrics")
        ::
        (match since with
        | None -> []
        | Some c -> [ ("since", Json.Num (float_of_int c)) ]))
    in
    match Sclient.rpc fd (Json.encode req) with
    | Error e -> Alcotest.failf "metrics rpc failed: %s" e
    | Ok reply -> (
        match Json.of_string reply with
        | Error e -> Alcotest.failf "metrics reply does not parse: %s" e
        | Ok j ->
            let cursor =
              match Option.bind (Json.member "cursor" j) Json.to_int with
              | Some c -> c
              | None -> Alcotest.fail "reply mints no cursor"
            in
            let echoed = Option.bind (Json.member "since" j) Json.to_int in
            let snap =
              match Json.member "metrics" j with
              | Some m -> ok (Journal.parse_metrics ~line:0 m)
              | None -> Alcotest.fail "no metrics in reply"
            in
            (cursor, echoed, snap))
  in
  let subs snap =
    Option.value ~default:0 (Metrics.counter_in snap "serve.submissions")
  in
  let c1, e1, full = poll None in
  Alcotest.(check (option int)) "first poll is a full snapshot" None e1;
  Alcotest.(check bool) "full snapshot counts the job" true (subs full >= 1);
  let c2, e2, idle = poll (Some c1) in
  Alcotest.(check (option int)) "cursor echoed back" (Some c1) e2;
  Alcotest.(check int) "idle delta is zero" 0 (subs idle);
  let outcome, _ =
    submit_collect sock
      (submission ~name:"c2" [ query_obj ~psi:"far-left:20" "cq2" ])
  in
  ignore (finished_code outcome);
  let _, e3, delta = poll (Some c2) in
  Alcotest.(check (option int)) "second cursor echoed" (Some c2) e3;
  Alcotest.(check int) "delta counts exactly the one new job" 1 (subs delta);
  (* An unknown (or evicted) cursor degrades to a full snapshot. *)
  let _, e4, full2 = poll (Some 999_999) in
  Alcotest.(check (option int)) "unknown cursor is not echoed" None e4;
  Alcotest.(check bool) "and yields full totals again" true
    (subs full2 >= 2)

let test_serve_slowlog_phases () =
  with_server ~tune:(fun c -> { c with Server.slow_ms = Some 0.0 })
  @@ fun _server ~sock ~state_dir ->
  let outcome, frames =
    submit_collect sock (submission ~name:"slow" [ query_obj "sq" ])
  in
  Alcotest.(check int) "job exits clean" 0 (finished_code outcome);
  let job =
    match string_frames frames ~ty:"accepted" "job" with
    | [ j ] -> j
    | _ -> Alcotest.fail "no job id"
  in
  let tid =
    match string_frames frames ~ty:"accepted" "trace" with
    | [ t ] -> t
    | _ -> Alcotest.fail "no trace id"
  in
  Alcotest.(check (list string)) "slow logging streams no trace frame" []
    (string_frames frames ~ty:"trace" "trace");
  (* The slow log is appended before the done frame, so it is already
     on disk. *)
  let slurp path = In_channel.with_open_text path In_channel.input_all in
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n'
         (slurp (Filename.concat state_dir "slowlog.jsonl")))
  in
  Alcotest.(check int) "one slow line for the one query" 1 (List.length lines);
  match Json.of_string (List.hd lines) with
  | Error e -> Alcotest.failf "slow line does not parse: %s" e
  | Ok j ->
      let str key = Option.bind (Json.member key j) Json.to_string in
      let num key = Option.bind (Json.member key j) Json.to_float in
      Alcotest.(check (option string)) "correlated by job" (Some job)
        (str "job");
      Alcotest.(check (option string)) "correlated by trace id" (Some tid)
        (str "trace");
      Alcotest.(check (option string)) "names the span" (Some "campaign.query")
        (str "span");
      Alcotest.(check (option string)) "names the query" (Some "sq")
        (str "label");
      let wall =
        match num "wall_ms" with
        | Some w -> w
        | None -> Alcotest.fail "no wall_ms"
      in
      Alcotest.(check bool) "wall clock positive" true (wall > 0.0);
      let phases =
        match Json.member "phases" j with
        | Some p -> p
        | None -> Alcotest.fail "no phase breakdown"
      in
      let phase key =
        match Option.bind (Json.member key phases) Json.to_float with
        | Some v -> v
        | None -> Alcotest.failf "phase %s missing" key
      in
      let total =
        phase "resolve_bounds_ms" +. phase "encode_ms" +. phase "tighten_ms"
        +. phase "milp_ms"
      in
      Alcotest.(check bool) "phases are nonnegative and contained" true
        (total >= 0.0 && total <= wall +. 0.5);
      Alcotest.(check bool) "the MILP phase was attributed" true
        (phase "milp_ms" > 0.0)

(* ---- kill-and-restart recovery e2e (spawned server process) ---- *)

(* Resolved relative to the test binary, so the test also runs when
   invoked from outside the build tree. *)
let cli_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "dpv_cli.exe"))

let spawn_server ~base ~sock ~state ~cache ~log ~settle_delay_s =
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process cli_exe
      [|
        cli_exe;
        "serve";
        base;
        "--socket";
        sock;
        "--state-dir";
        state;
        "--cache-dir";
        cache;
        "--settle-delay-s";
        string_of_float settle_delay_s;
      |]
      Unix.stdin out out
  in
  Unix.close out;
  pid

let wait_for ~timeout_s what cond =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec loop () =
    if cond () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.05;
      loop ()
    end
  in
  loop ()

let wait_for_socket sock =
  wait_for ~timeout_s:120.0 ("socket " ^ sock) (fun () ->
      match Sclient.connect_unix ~path:sock with
      | fd ->
          Unix.close fd;
          true
      | exception Unix.Unix_error _ -> false)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_kill_and_restart_recovers_without_loss () =
  let dir = temp_dir "dpv-killtest" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let base = Filename.concat dir "base.json" in
  write_file base base_spec_text;
  let sock = Filename.concat dir "dpv.sock" in
  let state = Filename.concat dir "state" in
  let cache = Filename.concat dir "cache" in
  let log = Filename.concat dir "server.log" in
  (* Four queries, 0.6 s pacing after each settle: the kill below lands
     deterministically mid-campaign. *)
  let queries =
    [
      query_obj "k1";
      query_obj ~psi:"far-right:30" "k2";
      query_obj ~psi:"far-left:25" "k3";
      query_obj ~psi:"far-right:25" "k4";
    ]
  in
  let pid1 =
    spawn_server ~base ~sock ~state ~cache ~log ~settle_delay_s:0.6
  in
  wait_for_socket sock;
  let fd = Sclient.connect_unix ~path:sock in
  (match Frame.write fd (submission ~name:"killjob" queries) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "submit write failed");
  let job =
    match Frame.read fd with
    | Ok payload -> (
        match Json.of_string payload with
        | Ok v -> (
            match Option.bind (Json.member "job" v) Json.to_string with
            | Some j -> j
            | None -> Alcotest.failf "no job id in %s" payload)
        | Error e -> Alcotest.failf "bad accepted frame: %s" e)
    | Error _ -> Alcotest.fail "no accepted frame"
  in
  let journal = Filename.concat state ("job-" ^ job ^ ".jsonl") in
  (* Wait for the first settled verdict to be journaled, then SIGKILL
     the server mid-campaign. *)
  wait_for ~timeout_s:120.0 "first journaled verdict" (fun () ->
      match Journal.load ~path:journal with
      | Ok (_ :: _) -> true
      | _ -> false);
  Unix.kill pid1 Sys.sigkill;
  ignore (Unix.waitpid [] pid1);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let snapshot = ok (Journal.load ~path:journal) in
  Alcotest.(check bool) "killed mid-campaign" true
    (List.length snapshot >= 1 && List.length snapshot < List.length queries);
  (* The accepted job is journaled but unfinished. *)
  let events = ok (Joblog.load ~path:(Filename.concat state "joblog.jsonl")) in
  Alcotest.(check int) "the job is pending after the kill" 1
    (List.length (Joblog.pending events));
  (* Restart over the same state dir: recovery re-runs the job
     headless, replaying the settled prefix from its journal. *)
  let pid2 =
    spawn_server ~base ~sock ~state ~cache ~log ~settle_delay_s:0.0
  in
  wait_for ~timeout_s:120.0 "recovered job to finish" (fun () ->
      match Joblog.load ~path:(Filename.concat state "joblog.jsonl") with
      | Ok events ->
          List.exists
            (function
              | Joblog.Finished { job = j; _ } -> j = job | _ -> false)
            events
      | Error _ -> false);
  Unix.kill pid2 Sys.sigterm;
  (match Unix.waitpid [] pid2 with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Alcotest.fail "SIGTERM must drain to a clean exit");
  Alcotest.(check bool) "restart reports the recovery" true
    (contains (read_file log) "recovered 1 journaled job");
  (* No accepted work lost: every query settled, and the pre-kill
     entries replayed bit-identically. *)
  let final = ok (Journal.load ~path:journal) in
  Alcotest.(check int) "every query settled after recovery"
    (List.length queries) (List.length final);
  List.iter
    (fun (snap : Journal.entry) ->
      match
        List.find_opt
          (fun (e : Journal.entry) -> e.Journal.key = snap.Journal.key)
          final
      with
      | Some e ->
          Alcotest.(check bool)
            (snap.Journal.label ^ ": pre-kill entry replayed bit-identically")
            true (e = snap)
      | None -> Alcotest.failf "%s: settled entry lost" snap.Journal.label)
    snapshot

let tests =
  [
    ("json: depth limit", `Quick, test_json_depth_limit);
    ("json: payload limit", `Quick, test_json_payload_limit);
    ("frame: roundtrip", `Quick, test_frame_roundtrip);
    ("frame: torn stream", `Quick, test_frame_torn);
    ("frame: oversized refused on header", `Quick,
     test_frame_oversized_refused_on_header);
    ("frame: bad header byte", `Quick, test_frame_bad_header);
    ("admission: priority and fifo", `Quick, test_admission_priority_and_fifo);
    ("admission: capacity backpressure", `Quick,
     test_admission_capacity_backpressure);
    ("admission: failing before aborts", `Quick,
     test_admission_before_failure_aborts);
    ("admission: close drains", `Quick, test_admission_close_drains);
    ("joblog: roundtrip and pending", `Quick,
     test_joblog_roundtrip_and_pending);
    ("joblog: torn tail dropped", `Quick, test_joblog_torn_tail_dropped);
    ("joblog: mid-file corruption is error", `Quick,
     test_joblog_mid_file_corruption_is_error);
    ("joblog: missing file empty", `Quick, test_joblog_missing_file_empty);
    ("journal: resume skips meta trailer", `Quick,
     test_resume_skips_meta_trailer);
    ("serve: submit streams verdicts", `Slow,
     test_serve_submit_streams_verdicts);
    ("serve: concurrent clients", `Slow,
     test_serve_concurrent_clients_independent_streams);
    ("serve: backpressure and duplicates", `Slow,
     test_serve_backpressure_and_duplicates);
    ("serve: deadline spent in queue", `Slow,
     test_serve_deadline_spent_in_queue);
    ("serve: resubmit replays from journal", `Slow,
     test_serve_resubmit_replays_from_journal);
    ("serve: warm cache across jobs", `Slow,
     test_serve_warm_cache_across_jobs);
    ("serve: setup mismatch refused", `Slow,
     test_serve_setup_mismatch_refused);
    ("serve: drain refuses submissions", `Slow,
     test_serve_drain_refuses_submissions);
    ("serve: fault serve-accept absorbed", `Slow,
     test_fault_serve_accept_absorbed);
    ("serve: fault torn frame isolates connection", `Slow,
     test_fault_serve_torn_frame_isolates_connection);
    ("serve: fault client gone, job survives", `Slow,
     test_fault_serve_client_gone_job_survives);
    ("serve: scrape endpoint live", `Slow, test_serve_scrape_endpoint_live);
    ("serve: fault scrape isolates connection", `Slow,
     test_fault_serve_scrape_isolates_connection);
    ("serve: trace correlation e2e", `Slow,
     test_serve_trace_correlation_e2e);
    ("serve: metrics since cursor", `Slow, test_serve_metrics_since_cursor);
    ("serve: slow log phases", `Slow, test_serve_slowlog_phases);
    ("serve: kill and restart recovers without loss", `Slow,
     test_kill_and_restart_recovers_without_loss);
  ]
