(** The serve daemon's crash-recovery journal.

    One JSON line per job lifecycle event, appended {e before} the
    event's consequences can be observed.  A job is [accepted] on disk
    (spec included, verbatim, and fsynced) before any executor can
    start it, so SIGKILL or a power cut at any instant leaves either no
    trace of a job or enough to re-run it.  [finished] and
    [client_gone] are written without an fsync: a lost [finished] only
    re-runs a job whose verdicts all replay from its own journal.  The
    next [accepted] fsync, or {!sync} at drain, makes them durable.
    Restart recovery is {!load} + {!pending}: each job whose latest
    acceptance has no finished record after it is re-submitted from
    its persisted spec, and each job's own campaign journal then
    replays whatever queries already settled — no accepted job is ever
    lost, no settled verdict re-solved. *)

module Json = Dpv_obs.Json

type event =
  | Accepted of {
      job : string;   (** content digest over the job's query keys *)
      name : string;
      priority : int;
      budget_s : float option;
      deadline_s : float option;
      trace : string;
          (** the trace id correlating this job's frames, spans and
              journal meta; [""] when read from a pre-dpv-obs/2 log *)
      spec : Json.t;  (** the submitted spec, replayable verbatim *)
    }
  | Finished of { job : string; exit_code : int }
  | Client_gone of { job : string }
      (** the submitter vanished mid-stream; the job ran on *)

val append : path:string -> event -> unit
(** Append one event, and [fsync] it when it is [Accepted].  The
    append that creates the file also fsyncs its directory.  Raises
    [Sys_error]/[Unix_error] on I/O failure — the server treats an
    unjournalable job as unacceptable (the client gets an error, not a
    silent non-guarantee). *)

val sync : path:string -> unit
(** [fsync] the joblog, if it exists: what the drain does once, so the
    events {!append} wrote without an fsync are durable at a clean
    exit.  Raises [Unix_error] on I/O failure. *)

val load : path:string -> (event list, string) result
(** All events, in append order.  A missing file is [Ok []]; an
    unterminated final line that does not decode (a crash mid-append)
    is dropped; corruption anywhere else, a newline-terminated final
    line included, is an [Error] naming the line
    ({!Dpv_core.Journal.read_lines}). *)

val seal : path:string -> unit
(** Call after {!load} accepts the file, before the first {!append}.
    {!load} drops a torn tail, but its bytes stay, and the next append
    would land on their end as a bad line that every later {!load}
    refuses.  So an unterminated final line is cut when it does not
    decode, and terminated when it does (only its newline was lost). *)

val pending :
  event list ->
  (string * string * int * float option * float option * string * Json.t)
  list
(** [(job, name, priority, budget_s, deadline_s, trace, spec)] for
    every job whose latest [accepted] event has no [finished] event
    after it, taken from that acceptance, in the order of those
    acceptances — the restart recovery work list.  A job accepted
    again after an earlier run finished (a resubmission) is pending
    once, until its new run finishes. *)
