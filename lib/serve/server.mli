(** The [dpv serve] daemon: a crash-tolerant, long-lived verification
    service.

    One resident process holds the trained pipeline, a persistent
    shared-encoding cache ({!Dpv_core.Campaign.cache}) and a memoized
    {!Dpv_core.Specfile.builder}, and accepts campaign submissions
    over a Unix-domain or TCP socket ({!Frame} / {!Protocol}).
    Verdicts stream back as they settle.

    Robustness spine:
    - {b Admission control.}  A bounded queue; a full server answers
      [busy] with a retry hint immediately — explicit backpressure,
      never a silent drop.
    - {b Journal-before-execution.}  Every accepted job is appended
      (spec included) to the server {!Joblog} and fsynced before the
      executor can see it; each running job journals its verdicts to a
      per-job campaign journal.  SIGKILL at any instant loses no
      accepted job, and restart recovery re-runs the pending ones,
      replaying already-settled queries bit-identically via the same
      [--resume] machinery the batch CLI uses.  Three promises hold:
      an [accepted] frame goes out after the job's joblog line is
      durable, a [verdict] frame after its journal line is (the
      journal's syncer sends it once the line's group commit is done),
      and [done] after all of the job's lines are.
    - {b Fault isolation.}  A crashing job degrades that job only
      (error frame, degraded exit code 4); a torn frame closes that
      connection only; a client vanishing mid-stream is recorded and
      its job runs on to the journal.
    - {b Graceful drain.}  Stop accepting, notify queued clients
      (their jobs stay journaled for restart), finish the running job,
      then return so the caller can flush telemetry. *)

type config = {
  capacity : int;        (** max jobs in the system (queued + running) *)
  runners : int;         (** per-job domain-budget cap *)
  retry_after_s : float; (** hint carried in busy replies *)
  max_frame_bytes : int; (** declared-length cap on request frames *)
  state_dir : string;    (** joblog + per-job campaign journals *)
  settle_delay_s : float;
      (** pause of the settling runner after each settled query, before
          its next one: test pacing so a kill-mid-campaign lands
          deterministically between queries.  The journal's syncer is
          not paused, so each verdict is durable (and its frame sent)
          during the pause *)
  slow_ms : float option;
      (** slow-query threshold: any [campaign.query]/[campaign.subbox]
          span over this many ms is appended to
          [state_dir/slowlog.jsonl] as a structured JSON line with its
          per-phase breakdown.  [None] (default) disables the log *)
  sampler_interval_s : float;
      (** continuous-profiling tick for the background sampler domain *)
}

val default_config : state_dir:string -> config
(** capacity 4, runners 1, retry after 1s, 8 MiB frames, no delay, no
    slow log, 0.5 s sampler tick. *)

type t

val create :
  ?config:config ->
  ?before_execute:(string -> unit) ->
  perception:Dpv_nn.Network.t ->
  builder:Dpv_core.Specfile.builder ->
  base:Dpv_core.Specfile.parsed ->
  base_spec:Dpv_obs.Json.t ->
  unit ->
  t
(** Create the server state, run restart recovery (pending joblog
    entries re-enter the queue, headless) and start the executor
    thread.  [base]/[base_spec] fix the trained pipeline; submissions
    omitting [seed]/[setup] inherit them, and an explicit mismatch is
    refused.  [before_execute] (tests) runs on the executor thread
    with the job id just before each job starts.  Ignores [SIGPIPE]
    process-wide — a vanished peer must be an error result, not a
    kill.  Raises [Failure "cannot recover from PATH: line N: ..."]
    when the joblog does not load, leaving it untouched. *)

val recovered : t -> int
(** Jobs re-queued from the joblog at startup; equal to the
    [serve.jobs_recovered] counter this server added. *)

val recovery_failures : t -> (string * string) list
(** [(job, reason)] for each pending joblog job whose persisted spec no
    longer prepares, in joblog order.  Each was failed at startup: a
    [finished] event with exit 4, its journal left untouched. *)

val listen_unix : path:string -> Unix.file_descr
(** Bind + listen on a Unix-domain socket (unlinking any stale one). *)

val listen_tcp : port:int -> Unix.file_descr
(** Bind + listen on loopback. *)

val serve : ?scrape_fd:Unix.file_descr -> t -> Unix.file_descr -> unit
(** Accept loop: one handler thread per connection, until a drain is
    requested — then close the listener(s), run the drain, and return.
    The [serve-accept] fault site ({!Dpv_linprog.Faults}) injects an
    accept-time hiccup here; the loop absorbs it.

    [scrape_fd] (a second listener, typically {!listen_tcp}) serves
    GET-only HTTP metrics scrapes in OpenMetrics text format
    ({!Dpv_obs.Expo.render}) — one short-lived thread per scrape, any
    failure (including the tear the [serve-scrape] fault site injects)
    closing that connection only. *)

val request_drain : t -> unit
(** Flag the drain; async-signal-safe (the CLI calls it from SIGTERM
    and SIGINT handlers).  {!serve} notices within its select
    timeout. *)
