(** The serve daemon's crash-recovery journal.

    One JSON line per job lifecycle event, appended and fsynced
    {e before} the event's consequences can be observed: a job is
    [accepted] on disk (spec included, verbatim) before any executor
    can start it, so SIGKILL at any instant leaves either no trace of
    a job or enough to re-run it.  Restart recovery is
    {!load} + {!pending}: accepted events with no finished record are
    re-submitted from their persisted specs, and each job's own
    campaign journal then replays whatever queries already settled —
    no accepted job is ever lost, no settled verdict re-solved. *)

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
(** Append one event and [fsync].  Raises [Sys_error]/[Unix_error] on
    I/O failure — the server treats an unjournalable job as
    unacceptable (the client gets an error, not a silent
    non-guarantee). *)

val load : path:string -> (event list, string) result
(** All events, in append order.  A missing file is [Ok []]; a torn
    final line (crash mid-append) is dropped; corruption anywhere else
    is an [Error] naming the line. *)

val pending :
  event list ->
  (string * string * int * float option * float option * string * Json.t)
  list
(** [(job, name, priority, budget_s, deadline_s, trace, spec)] for
    every accepted job with no finished event, in acceptance order —
    the restart recovery work list. *)
