module Json = Dpv_obs.Json
module Campaign = Dpv_core.Campaign
module Journal = Dpv_core.Journal
module Specfile = Dpv_core.Specfile
module Workflow = Dpv_core.Workflow
module Clock = Dpv_linprog.Clock
module Faults = Dpv_linprog.Faults
module Metrics = Dpv_obs.Metrics
module Trace = Dpv_obs.Trace

let m_connections = Metrics.counter "serve.connections"
let m_submissions = Metrics.counter "serve.submissions"
let m_rejected_busy = Metrics.counter "serve.rejected_busy"
let m_client_gone = Metrics.counter "serve.client_gone"
let m_jobs_recovered = Metrics.counter "serve.jobs_recovered"
let m_jobs_finished = Metrics.counter "serve.jobs_finished"
let m_scrapes = Metrics.counter "serve.scrapes"
let m_slow_queries = Metrics.counter "serve.slow_queries"
let m_queue_depth = Metrics.gauge "serve.queue_depth"
let m_job_ns = Metrics.histogram "serve.job_ns"

(* Continuous-profiling feeds, published by the background sampler
   domain only — the solve path never touches them.  Cumulative
   sources (solver counters, GC words) become rolling-window rates;
   point sources (queue depth, jobs in system) are plain samples. *)
let s_jobs_in_system = Metrics.sample "serve.jobs_in_system"
let s_queue_depth_now = Metrics.sample "serve.queue_depth_now"
let s_gc_heap_words = Metrics.sample "gc.heap_words"
let r_solves = Metrics.rate "serve.solves_per_s"
let r_journal_appends = Metrics.rate "journal.appends_per_s"
let r_milp_nodes = Metrics.rate "milp.nodes_per_s"
let r_gc_minor_words = Metrics.rate "gc.minor_words_per_s"
let r_gc_majors = Metrics.rate "gc.majors_per_s"
let c_campaign_queries = Metrics.counter "campaign.queries"
let c_journal_appends = Metrics.counter "journal.appends"
let c_milp_nodes = Metrics.counter "milp.nodes"

type config = {
  capacity : int;
  runners : int;
  retry_after_s : float;
  max_frame_bytes : int;
  state_dir : string;
  settle_delay_s : float;
  slow_ms : float option;
  sampler_interval_s : float;
}

let default_config ~state_dir =
  {
    capacity = 4;
    runners = 1;
    retry_after_s = 1.0;
    max_frame_bytes = 8 * 1024 * 1024;
    state_dir;
    settle_delay_s = 0.0;
    slow_ms = None;
    sampler_interval_s = 0.5;
  }

(* One client connection's write side.  Verdicts stream from worker
   domains while the executor writes terminal frames, so every write
   holds [wlock]; the first failed write flips [alive] and the job
   carries on headless — a vanished client degrades nothing but its
   own view. *)
type reply = {
  fd : Unix.file_descr;
  wlock : Mutex.t;
  alive : bool Atomic.t;
}

(* The handler thread parks here while its submission streams, so one
   connection never interleaves two jobs' streams. *)
type waiter = {
  w_lock : Mutex.t;
  w_cond : Condition.t;
  mutable w_done : bool;
}

type job = {
  id : string;
  name : string;
  priority : int;
  budget_s : float option;
  deadline : Clock.deadline;
  runners : int;
  milp_options : Dpv_linprog.Milp.options;
  queries : Campaign.query list;
  trace : string;         (* correlates frames, joblog, journal, spans *)
  want_trace : bool;      (* stream the job's spans back before [done] *)
  reply : reply option;   (* [None]: recovered, runs headless *)
  waiter : waiter option;
}

type t = {
  config : config;
  perception : Dpv_nn.Network.t;
  builder : Specfile.builder;
  base : Specfile.parsed;
  base_spec : Json.t;
  cache : Campaign.cache;
  queue : job Admission.t;
  joblog_path : string;
  (* jobs accepted and not yet finished (queued or running); the
     capacity check and duplicate detection both read it, so both are
     decided under [submit_lock]. *)
  in_flight : (string, unit) Hashtbl.t;
  submit_lock : Mutex.t;
  in_system : int Atomic.t;
  jobs_running : int Atomic.t;
  draining : bool Atomic.t;
  before_execute : (string -> unit) option;
  mutable recovered : int;
  mutable recovery_failures : (string * string) list;
  mutable executor : Thread.t option;
  (* [since]-cursor store for cheap delta polls: each metrics reply
     names its snapshot with a fresh cursor; a later poll carrying that
     cursor gets [Metrics.since] of the two.  Bounded — ancient cursors
     age out and those clients fall back to a full snapshot. *)
  cursor_lock : Mutex.t;
  mutable cursors : (int * Metrics.snapshot) list;
  mutable next_cursor : int;
  mutable sampler : Dpv_obs.Sampler.t option;
}

let job_id queries =
  Digest.to_hex
    (Digest.string (String.concat "" (List.map Campaign.query_key queries)))

(* Short but collision-safe for one server's lifetime: jobs are
   content-addressed, so the id alone cannot distinguish a resubmission
   — the trace id adds acceptance instant and a process-wide counter. *)
let trace_counter = Atomic.make 0

let fresh_trace_id job_id =
  String.sub
    (Digest.to_hex
       (Digest.string
          (Printf.sprintf "%s:%.9f:%d:%d" job_id (Unix.gettimeofday ())
             (Unix.getpid ())
             (Atomic.fetch_and_add trace_counter 1))))
    0 16

let signal_waiter = function
  | None -> ()
  | Some w ->
      Mutex.protect w.w_lock (fun () ->
          w.w_done <- true;
          Condition.broadcast w.w_cond)

let await_waiter w =
  Mutex.protect w.w_lock (fun () ->
      while not w.w_done do
        Condition.wait w.w_cond w.w_lock
      done)

let send t ~job_id reply payload =
  if Atomic.get reply.alive then
    match Mutex.protect reply.wlock (fun () -> Frame.write reply.fd payload) with
    | Ok () -> ()
    | Error _ ->
        (* Record the loss exactly once; the job keeps running to its
           journal. *)
        if Atomic.exchange reply.alive false then begin
          Metrics.incr m_client_gone 1;
          try Joblog.append ~path:t.joblog_path (Joblog.Client_gone { job = job_id })
          with _ -> ()
        end

let job_journal_path t id =
  Filename.concat t.config.state_dir ("job-" ^ id ^ ".jsonl")

let slowlog_path t = Filename.concat t.config.state_dir "slowlog.jsonl"

(* ---- slow-query log ----

   After a traced job, any [campaign.query] / [campaign.subbox] span
   over the threshold becomes one structured JSON line with its
   per-phase breakdown: the time inside [verify.resolve-bounds],
   [campaign.shared-encode], [tighten.feature-box] and [milp.solve]
   spans that fall within the query's window.  Phases are attributed by
   time containment, so a phase run on behalf of a different concurrent
   query window is simply not counted here. *)
let slow_lines ~trace ~job ~slow_ms events =
  let spans =
    List.filter_map
      (function
        | Trace.Complete { name; ts_ns; dur_ns; args; _ } ->
            Some (name, ts_ns, dur_ns, args)
        | Trace.Instant _ | Trace.Thread_name _ -> None)
      events
  in
  let ms ns = float_of_int ns /. 1e6 in
  let phase_ms ~t0 ~t1 pname =
    ms
      (List.fold_left
         (fun acc (name, ts, dur, _) ->
           if name = pname && ts >= t0 && ts + dur <= t1 then acc + dur
           else acc)
         0 spans)
  in
  List.filter_map
    (fun (name, ts, dur, args) ->
      if
        (name = "campaign.query" || name = "campaign.subbox")
        && ms dur > slow_ms
      then begin
        let label = Option.value (List.assoc_opt "label" args) ~default:"" in
        let t1 = ts + dur in
        let phase pname = Json.Num (phase_ms ~t0:ts ~t1 pname) in
        Some
          (Json.encode
             (Json.Obj
                [
                  ("slow_query", Json.Num 1.0);
                  ("trace", Json.Str trace);
                  ("job", Json.Str job);
                  ("span", Json.Str name);
                  ("label", Json.Str label);
                  ("wall_ms", Json.Num (ms dur));
                  ("threshold_ms", Json.Num slow_ms);
                  ( "phases",
                    Json.Obj
                      [
                        ("resolve_bounds_ms", phase "verify.resolve-bounds");
                        ("encode_ms", phase "campaign.shared-encode");
                        ("tighten_ms", phase "tighten.feature-box");
                        ("milp_ms", phase "milp.solve");
                      ] );
                ]))
      end
      else None)
    spans

let append_slowlog t lines =
  if lines <> [] then begin
    Metrics.incr m_slow_queries (List.length lines);
    try
      let oc =
        open_out_gen [ Open_append; Open_creat ] 0o644 (slowlog_path t)
      in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines)
    with Sys_error _ -> ()
  end

(* ---- execution ---- *)

exception Resume_failed of string

let execute t job =
  let t0 = Clock.monotonic_ns () in
  (* Job-scoped collection: when the client asked for its trace (or a
     slow-query threshold is set) and no global trace is running, arm
     the buffer for just this job and drop it afterwards.  The ambient
     context stamps the trace id into every span recorded meanwhile —
     including those from pool worker domains — which is what makes the
     per-job extract possible. *)
  let job_armed =
    (not (Trace.enabled ()))
    && (job.want_trace || t.config.slow_ms <> None)
    && job.trace <> ""
  in
  if job_armed then Trace.arm ();
  Fun.protect
    ~finally:(fun () ->
      if job_armed then begin
        Trace.disable ();
        Trace.clear ()
      end)
  @@ fun () ->
  (* Recovered jobs from pre-dpv-obs/2 joblogs have no trace id; they
     run without ambient context rather than stamping an empty one. *)
  (if job.trace = "" then fun f -> f () else Trace.with_context job.trace)
  @@ fun () ->
  (* Explicit begin/complete rather than [with_span]: the job's trace
     is extracted while the job-level span is still open, so it must be
     closed by hand just before extraction to land in its own frame. *)
  let span_t0 = Trace.begin_ns () in
  let end_span () =
    Trace.complete
      ~args:[ ("job", job.id); ("name", job.name) ]
      ~name:"serve.job" span_t0
  in
  (match t.before_execute with Some f -> f job.id | None -> ());
  let journal_path = job_journal_path t job.id in
  (* Queue wait spends the client's deadline; the budget is carved from
     what remains at the moment execution starts. *)
  let budget_s = Clock.carve job.deadline job.budget_s in
  (* Called from the journal's syncer once the verdict's line is
     durable: a [verdict] frame never promises more than the disk
     holds. *)
  let on_settled qr =
    match job.reply with
    | Some r -> send t ~job_id:job.id r (Protocol.verdict_line qr)
    | None -> ()
  in
  (* The test pacing pauses the settling runner, not the syncer, so
     each verdict reaches the disk (and the client) before the next
     query settles. *)
  let after_settle () =
    if t.config.settle_delay_s > 0.0 then Unix.sleepf t.config.settle_delay_s
  in
  let finish () =
    Mutex.protect t.submit_lock (fun () -> Hashtbl.remove t.in_flight job.id);
    Atomic.decr t.in_system
  in
  match
    (* The per-job campaign journal is the replay store: a job killed
       (or resubmitted) resumes from it bit-identically via the same
       --resume machinery the batch CLI uses.  A journal that does not
       load fails the job as [dpv campaign --resume] fails, before
       [Campaign.run] could rewrite the file and lose its verdicts. *)
    let resume =
      if not (Sys.file_exists journal_path) then None
      else
        match Journal.load ~path:journal_path with
        | Ok entries -> Some entries
        | Error e ->
            raise
              (Resume_failed
                 (Printf.sprintf "cannot resume from %s: %s" journal_path e))
    in
    Campaign.run ~milp_options:job.milp_options ~runners:job.runners ?budget_s
      ~journal:journal_path ?resume ~cache:t.cache ~on_settled ~after_settle
      ~trace:job.trace ~perception:t.perception job.queries
  with
  | report ->
      let code = Campaign.report_exit_code report in
      (try Joblog.append ~path:t.joblog_path (Joblog.Finished { job = job.id; exit_code = code })
       with _ -> ());
      (* Capacity is released before the done frame goes out: a client
         that reacts to [done] by resubmitting immediately must not
         race its own job's slot. *)
      finish ();
      end_span ();
      (* The job's spans, extracted while still buffered: the trace
         frame must precede [done] (the stream's terminal frame), and
         the slow-query log wants the same extract. *)
      if job.trace <> "" && (job.want_trace || t.config.slow_ms <> None)
      then begin
        let events = Trace.tagged_events job.trace in
        (match t.config.slow_ms with
        | Some slow_ms ->
            append_slowlog t
              (slow_lines ~trace:job.trace ~job:job.id ~slow_ms events)
        | None -> ());
        match (job.want_trace, job.reply) with
        | true, Some r ->
            send t ~job_id:job.id r
              (Protocol.trace_reply ~job:job.id ~trace:job.trace
                 ~events:(Trace.events_to_json events))
        | _ -> ()
      end;
      (match job.reply with
      | Some r ->
          send t ~job_id:job.id r
            (Protocol.done_line ~job:job.id ~trace:job.trace report)
      | None -> ());
      Metrics.incr m_jobs_finished 1;
      Metrics.observe m_job_ns (Clock.monotonic_ns () - t0);
      signal_waiter job.waiter
  | exception e ->
      (* Fault isolation: a crashing job degrades that job only — the
         pool, the queue and every other connection are untouched.
         Exit 4 is the same degraded code a crashed batch campaign
         earns. *)
      let msg =
        match e with Resume_failed m -> m | e -> Printexc.to_string e
      in
      (try Joblog.append ~path:t.joblog_path (Joblog.Finished { job = job.id; exit_code = 4 })
       with _ -> ());
      finish ();
      end_span ();
      (match job.reply with
      | Some r ->
          send t ~job_id:job.id r
            (Protocol.error ~message:(Printf.sprintf "job %s crashed: %s" job.id msg))
      | None -> ());
      Metrics.incr m_jobs_finished 1;
      signal_waiter job.waiter

let executor_loop t =
  let rec loop () =
    match Admission.take t.queue with
    | None -> ()
    | Some job ->
        Atomic.incr t.jobs_running;
        (try execute t job with _ -> signal_waiter job.waiter);
        Atomic.decr t.jobs_running;
        loop ()
  in
  loop ()

(* ---- submission ---- *)

(* Submissions may omit "seed"/"setup": they inherit the server's base
   spec, so the common client (same pipeline, new queries) stays
   small.  An explicit setup must match the server's — the resident
   trained pipeline is fixed at startup. *)
let resolve_spec t spec =
  match spec with
  | Json.Obj fields ->
      let fields =
        if List.mem_assoc "seed" fields then fields
        else ("seed", Json.int t.base.Specfile.seed) :: fields
      in
      let fields =
        if List.mem_assoc "setup" fields then fields
        else
          match Json.member "setup" t.base_spec with
          | Some s -> ("setup", s) :: fields
          | None -> fields
      in
      Json.Obj fields
  | v -> v

type prepared_job = {
  p_spec : Json.t;         (* resolved; what the joblog persists *)
  p_parsed : Specfile.parsed;
  p_queries : Campaign.query list;
  p_id : string;
}

let prepare_submission t spec =
  let spec = resolve_spec t spec in
  match Specfile.parse spec with
  | Error e -> Error (Printf.sprintf "bad spec: %s" e)
  | Ok parsed ->
      if parsed.Specfile.setup <> t.base.Specfile.setup then
        Error
          "setup mismatch: this server's trained pipeline was prepared with \
           a different setup/seed; omit \"setup\" and \"seed\" to inherit it"
      else begin
        match
          Specfile.queries t.builder
            ~default_cut:parsed.Specfile.setup.Workflow.cut
            parsed.Specfile.query_specs
        with
        | Error e -> Error (Printf.sprintf "bad query: %s" e)
        | Ok queries ->
            Ok { p_spec = spec; p_parsed = parsed; p_queries = queries;
                 p_id = job_id queries }
      end

type admit_result =
  | Accepted of { job : string; position : int; trace : string; waiter : waiter }
  | Busy of { queue_depth : int }
  | Refused of string

let admit t ~name ~priority ~budget_s ~deadline_s ~want_trace ~reply prep =
  let id = prep.p_id in
  let name = Option.value name ~default:(String.sub id 0 8) in
  let parsed = prep.p_parsed in
  let trace = fresh_trace_id id in
  let w = { w_lock = Mutex.create (); w_cond = Condition.create (); w_done = false } in
  let job =
    {
      id;
      name;
      priority;
      budget_s;
      deadline = Clock.deadline_after deadline_s;
      runners =
        Stdlib.min (Stdlib.max 1 parsed.Specfile.runners) t.config.runners;
      milp_options = Specfile.milp_options parsed;
      queries = prep.p_queries;
      trace;
      want_trace;
      reply;
      waiter = (match reply with None -> None | Some _ -> Some w);
    }
  in
  Mutex.protect t.submit_lock (fun () ->
      if Hashtbl.mem t.in_flight id then
        (* The same job is already queued or running: an immediate
           duplicate gains nothing (its verdicts land in the same
           journal), so the client is told to come back — once the
           twin finishes, resubmission replays from the journal. *)
        Busy { queue_depth = Atomic.get t.in_system }
      else if Atomic.get t.in_system >= t.config.capacity then begin
        Metrics.incr m_rejected_busy 1;
        Busy { queue_depth = Atomic.get t.in_system }
      end
      else begin
        match
          Admission.submit
            ~before:(fun () ->
              (* Journaled before the executor can see it: [Accepted]
                 on disk is the no-lost-jobs guarantee.  A failing
                 append aborts admission — an unjournalable job would
                 be a silent non-guarantee. *)
              Joblog.append ~path:t.joblog_path
                (Joblog.Accepted
                   {
                     job = id;
                     name;
                     priority;
                     budget_s;
                     deadline_s;
                     trace;
                     spec = prep.p_spec;
                   });
              Hashtbl.replace t.in_flight id ();
              Atomic.incr t.in_system)
            t.queue ~priority job
        with
        | Admission.Admitted position ->
            Metrics.incr m_submissions 1;
            Metrics.set_max m_queue_depth (Atomic.get t.in_system);
            Accepted { job = id; position; trace; waiter = w }
        | Admission.Rejected { queue_depth } ->
            Metrics.incr m_rejected_busy 1;
            Busy { queue_depth }
        | exception e ->
            Refused
              (Printf.sprintf "cannot journal job: %s" (Printexc.to_string e))
      end)

(* ---- connections ---- *)

(* Bounded cursor store: enough live cursors for a handful of pollers
   (dpv top keeps exactly one), small enough that a client minting a
   cursor per poll cannot grow the server. *)
let max_cursors = 16

let metrics_with_cursor t ~since =
  Mutex.protect t.cursor_lock (fun () ->
      let snap = Metrics.snapshot () in
      let cursor = t.next_cursor in
      t.next_cursor <- cursor + 1;
      t.cursors <-
        (cursor, snap) :: List.filteri (fun i _ -> i < max_cursors - 1) t.cursors;
      match Option.bind since (fun c -> List.assoc_opt c t.cursors) with
      | Some before when since <> Some cursor ->
          Protocol.metrics_reply ~cursor ?since (Metrics.since ~before snap)
      | _ ->
          (* No cursor, an aged-out cursor, or (degenerate) the one just
             minted: a full snapshot, with no "since" echo. *)
          Protocol.metrics_reply ~cursor snap)

let handle_conn t fd =
  Metrics.incr m_connections 1;
  Trace.with_span "serve.conn" @@ fun () ->
  let reply = { fd; wlock = Mutex.create (); alive = Atomic.make true } in
  let direct payload =
    ignore (Mutex.protect reply.wlock (fun () -> Frame.write fd payload))
  in
  let rec loop () =
    match Frame.read ~max_bytes:t.config.max_frame_bytes fd with
    | Error Frame.Closed -> ()
    | Error (Frame.Torn msg) ->
        (* The stream is no longer frame-aligned: answer with a framed
           error and close this connection — and only this one. *)
        direct (Protocol.error ~message:(Printf.sprintf "torn frame: %s" msg))
    | Ok payload -> (
        match Protocol.parse_request payload with
        | Error msg ->
            direct (Protocol.error ~message:msg);
            loop ()
        | Ok Protocol.Ping ->
            direct
              (Protocol.pong
                 ~jobs_running:(Atomic.get t.jobs_running)
                 ~queue_depth:(Admission.depth t.queue));
            loop ()
        | Ok (Protocol.Metrics { since }) ->
            direct (metrics_with_cursor t ~since);
            loop ()
        | Ok Protocol.Drain ->
            direct Protocol.draining;
            Atomic.set t.draining true;
            loop ()
        | Ok (Protocol.Submit { name; priority; budget_s; deadline_s; trace; spec })
          -> (
            if Atomic.get t.draining then begin
              direct Protocol.draining;
              loop ()
            end
            else
              match prepare_submission t spec with
              | Error msg ->
                  direct (Protocol.error ~message:msg);
                  loop ()
              | Ok prep -> (
                  match
                    admit t ~name ~priority ~budget_s ~deadline_s
                      ~want_trace:trace ~reply:(Some reply) prep
                  with
                  | Busy { queue_depth } ->
                      direct
                        (Protocol.busy ~retry_after_s:t.config.retry_after_s
                           ~queue_depth);
                      loop ()
                  | Refused msg ->
                      direct (Protocol.error ~message:msg);
                      loop ()
                  | Accepted { job; position; trace; waiter } ->
                      direct (Protocol.accepted ~job ~position ~trace);
                      (* Park until the stream finishes, so a pipelined
                         next request never interleaves two jobs'
                         verdicts on this connection. *)
                      await_waiter waiter;
                      if Atomic.get reply.alive then loop ())))
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    loop

(* ---- lifecycle ---- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?config ?before_execute ~perception ~builder ~base ~base_spec () =
  (* A client vanishing mid-write must be an [EPIPE] result, not a
     process-killing signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let config =
    match config with Some c -> c | None -> default_config ~state_dir:"_serve"
  in
  mkdir_p config.state_dir;
  let joblog_path = Filename.concat config.state_dir "joblog.jsonl" in
  (* A damaged joblog is refused, not read as empty, and a torn tail is
     sealed: new events appended after either would make every later
     restart drop or refuse the jobs the joblog holds. *)
  let pending =
    match Joblog.load ~path:joblog_path with
    | Ok events ->
        Joblog.seal ~path:joblog_path;
        Joblog.pending events
    | Error e ->
        failwith (Printf.sprintf "cannot recover from %s: %s" joblog_path e)
  in
  let t =
    {
      config;
      perception;
      builder;
      base;
      base_spec;
      cache = Campaign.create_cache ();
      queue =
        Admission.create
          ~capacity:(Stdlib.max config.capacity (List.length pending));
      joblog_path;
      in_flight = Hashtbl.create 8;
      submit_lock = Mutex.create ();
      in_system = Atomic.make 0;
      jobs_running = Atomic.make 0;
      draining = Atomic.make false;
      before_execute;
      recovered = 0;
      recovery_failures = [];
      executor = None;
      cursor_lock = Mutex.create ();
      cursors = [];
      next_cursor = 1;
      sampler = None;
    }
  in
  (* Restart recovery: every accepted-but-unfinished job re-enters the
     queue from its persisted spec, headless, before any client can
     connect.  Its campaign journal then replays the queries that had
     already settled.  A spec that no longer prepares fails its job as
     an unloadable journal does: [finished] with exit 4, its journal
     left untouched, so it is not skipped again on every restart. *)
  List.iter
    (fun (id, name, priority, budget_s, deadline_s, trace, spec) ->
      match prepare_submission t spec with
      | Error reason ->
          (try
             Joblog.append ~path:joblog_path
               (Joblog.Finished { job = id; exit_code = 4 })
           with _ -> ());
          t.recovery_failures <- (id, reason) :: t.recovery_failures
      | Ok prep ->
          let prep = { prep with p_id = id } in
          (match
             Mutex.protect t.submit_lock (fun () ->
                 if Hashtbl.mem t.in_flight id then `Dup
                 else begin
                   Hashtbl.replace t.in_flight id ();
                   Atomic.incr t.in_system;
                   `Fresh
                 end)
           with
          | `Dup -> ()
          | `Fresh ->
              Metrics.incr m_jobs_recovered 1;
              t.recovered <- t.recovered + 1;
              let job =
                {
                  id;
                  name;
                  priority;
                  budget_s;
                  (* The original acceptance instant is gone; the
                     deadline restarts at recovery. *)
                  deadline = Clock.deadline_after deadline_s;
                  runners =
                    Stdlib.min
                      (Stdlib.max 1 prep.p_parsed.Specfile.runners)
                      t.config.runners;
                  milp_options = Specfile.milp_options prep.p_parsed;
                  queries = prep.p_queries;
                  (* The joblog's trace id survives the restart, so the
                     recovered run's spans and journal meta still
                     correlate with the original acceptance. *)
                  trace;
                  want_trace = false;
                  reply = None;
                  waiter = None;
                }
              in
              ignore (Admission.submit t.queue ~priority job)))
    pending;
  t.recovery_failures <- List.rev t.recovery_failures;
  t.executor <- Some (Thread.create executor_loop t);
  (* The continuous-profiling tick.  Reading counters and Gc.quick_stat
     is a handful of loads every half second — observability the hot
     path never feels. *)
  t.sampler <-
    Some
      (Dpv_obs.Sampler.start ~interval_s:config.sampler_interval_s
         ~sample:(fun ~now_ns ->
           let gc = Gc.quick_stat () in
           Metrics.set s_jobs_in_system (Atomic.get t.in_system);
           Metrics.set s_queue_depth_now (Admission.depth t.queue);
           Metrics.set s_gc_heap_words gc.Gc.heap_words;
           Metrics.rate_tick r_solves ~now_ns
             (Metrics.counter_value c_campaign_queries);
           Metrics.rate_tick r_journal_appends ~now_ns
             (Metrics.counter_value c_journal_appends);
           Metrics.rate_tick r_milp_nodes ~now_ns
             (Metrics.counter_value c_milp_nodes);
           Metrics.rate_tick r_gc_minor_words ~now_ns
             (int_of_float gc.Gc.minor_words);
           Metrics.rate_tick r_gc_majors ~now_ns gc.Gc.major_collections)
         ());
  t

let recovered t = t.recovered
let recovery_failures t = t.recovery_failures

let request_drain t = Atomic.set t.draining true

(* Stop admitting, notify queued clients, finish the running job, join
   the executor.  Queued jobs stay journaled — restart recovery picks
   them up; their clients are told so explicitly. *)
let drain t =
  Atomic.set t.draining true;
  let queued = Admission.close t.queue in
  List.iter
    (fun job ->
      (match job.reply with
      | Some r ->
          send t ~job_id:job.id r
            (Protocol.error
               ~message:
                 (Printf.sprintf
                    "server draining; job %s is journaled and will run on \
                     restart"
                    job.id))
      | None -> ());
      signal_waiter job.waiter)
    queued;
  (match t.sampler with
  | Some s ->
      Dpv_obs.Sampler.stop s;
      t.sampler <- None
  | None -> ());
  match t.executor with
  | None -> ()
  | Some th ->
      Thread.join th;
      t.executor <- None;
      (* The [finished] and [client_gone] events went out without an
         fsync; one here makes a clean exit leave them all durable. *)
      (try Joblog.sync ~path:t.joblog_path with Unix.Unix_error _ -> ())

let listen_unix ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  fd

let listen_tcp ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 16;
  fd

(* ---- metrics scrape endpoint ----

   A minimal GET-only HTTP responder for Prometheus-style scrapes, on
   the same select loop as the protocol listener — no HTTP library, no
   extra deps.  One short-lived thread per scrape; any failure (bad
   request, timeout, injected tear) closes that connection only. *)

let has_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let max_scrape_head = 16 * 1024

(* serve-scrape: one scrape response is torn: the responder declares
   more bytes than it sends and drops the connection mid-body. *)
let serve_scrape = Faults.site "serve-scrape"

let handle_scrape fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  try
    (* A stalled scraper must not pin the handler thread. *)
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    let buf = Bytes.create 1024 in
    let head = Buffer.create 256 in
    let rec read_head () =
      if Buffer.length head <= max_scrape_head then begin
        let n = Unix.read fd buf 0 (Bytes.length buf) in
        if n > 0 then begin
          Buffer.add_subbytes head buf 0 n;
          let s = Buffer.contents head in
          if not (has_substring s "\r\n\r\n" || has_substring s "\n\n") then
            read_head ()
        end
      end
    in
    read_head ();
    let req = Buffer.contents head in
    let write_all s =
      let b = Bytes.of_string s in
      let rec put ofs len =
        if len > 0 then begin
          let n = Unix.write fd b ofs len in
          put (ofs + n) (len - n)
        end
      in
      put 0 (Bytes.length b)
    in
    if String.length req < 4 || String.sub req 0 4 <> "GET " then
      write_all
        "HTTP/1.1 405 Method Not Allowed\r\nAllow: GET\r\n\
         Content-Length: 0\r\nConnection: close\r\n\r\n"
    else begin
      Metrics.incr m_scrapes 1;
      let body = Dpv_obs.Expo.render (Metrics.snapshot ()) in
      if Faults.fire serve_scrape then begin
        (* Injected tear: promise twice the bytes, send half, vanish.
           The scraper sees a truncated response; the server must shrug
           — this connection closes and nothing else notices. *)
        let half = String.sub body 0 (String.length body / 2) in
        write_all
          (Printf.sprintf
             "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; \
              charset=utf-8\r\nContent-Length: %d\r\nConnection: close\r\n\r\n\
              %s"
             (2 * String.length body)
             half)
      end
      else
        write_all
          (Printf.sprintf
             "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; \
              charset=utf-8\r\nContent-Length: %d\r\nConnection: close\r\n\r\n\
              %s"
             (String.length body) body)
    end
  with _ -> ()

(* serve-accept: the accept loop hiccups once: the freshly accepted
   connection dies as if the peer vanished between [accept] and the
   handler handoff.  A transient accept failure is never a server
   exit. *)
let serve_accept = Faults.site "serve-accept"

let serve ?scrape_fd t listen_fd =
  let watched = listen_fd :: Option.to_list scrape_fd in
  while not (Atomic.get t.draining) do
    match Unix.select watched [] [] 0.2 with
    | [], _, _ -> ()
    | ready, _, _ ->
        List.iter
          (fun rfd ->
            if Some rfd = scrape_fd then (
              match Unix.accept rfd with
              | fd, _ ->
                  ignore
                    (Thread.create (fun () -> try handle_scrape fd with _ -> ()) ())
              | exception
                  Unix.Unix_error
                    ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN), _, _) ->
                  ())
            else
              match Unix.accept listen_fd with
              | fd, _ ->
                  if Faults.fire serve_accept then begin
                    (* The injected accept hiccup: the connection dies
                       between accept and handoff.  Absorbed — the loop
                       keeps listening. *)
                    try Unix.close fd with Unix.Unix_error _ -> ()
                  end
                  else
                    ignore
                      (Thread.create
                         (fun () -> try handle_conn t fd with _ -> ())
                         ())
              | exception
                  Unix.Unix_error
                    ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN), _, _) ->
                  ())
          ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (match scrape_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  drain t
