(** Crash-safe campaign journal: one JSON line per settled query.

    A campaign that dies — machine reboot, OOM kill, operator ctrl-C —
    should not forfeit the queries it already answered.  The journal
    records each query's outcome as soon as it settles, keyed by a
    content digest of the query itself, and [dpv campaign --resume]
    replays [Done] entries instead of re-solving them.

    Durability model: the first write (and any write after a failure)
    rewrites the whole journal to a temporary file in the same
    directory, fsyncs it and [Sys.rename]s it over the target — the
    atomic path that also compacts a resumed campaign's replayed
    entries.  Steady-state appends then take an O(1) fast path: one
    line written to an open append channel, flushed and fsynced.  A
    crash mid-append can tear at most the final, unterminated line,
    which {!load} drops; corruption anywhere else is still a hard
    parse error.

    Writes are serialized with a mutex: campaign runners settle queries
    concurrently.  Append latency lands in the [journal.append_ns]
    histogram of {!Dpv_obs.Metrics}. *)

type outcome =
  | Done of Verify.result
      (** The query produced a verdict (possibly [Unknown]). *)
  | Crashed of string
      (** The solve raised; the message is the exception text.  Not
          replayed on resume — a resumed campaign retries it. *)
  | Skipped of string
      (** Never attempted (campaign budget exhausted before its turn).
          Not replayed on resume. *)

type entry = {
  key : string;           (** content digest of the query (hex) *)
  label : string;
  outcome : outcome;
  attempts : int;         (** solve attempts, [>= 1]; 0 for [Skipped] *)
  dense_retry : bool;
  deadline_retry : bool;
}

type meta = {
  shard : int;            (** this journal's slice index, [0 <= shard] *)
  shard_count : int;      (** total slices in the partition, [>= 1] *)
  runners : int;          (** pool runners the shard ran with *)
  total_wall_s : float;   (** the shard's campaign wall clock *)
  trace : string;
      (** trace id correlating this run with its spans, joblog entries
          and protocol frames; [""] when the run had none (batch
          campaigns, pre-dpv-obs/2 journals) — the field is then
          omitted from the line *)
  metrics : Dpv_obs.Metrics.snapshot;
      (** the shard's [dpv-metrics/1] delta; [dpv merge-journals] sums
          these ({!Dpv_obs.Metrics.merge}) into exact campaign totals *)
}
(** Shard trailer.  A sharded campaign ([dpv campaign --shard i/n])
    appends exactly one meta line after its entries; unsharded journals
    carry none, so their line count stays one-per-query.  Served jobs
    also append one (unsharded: [shard = 0], [shard_count = 1]) to
    carry the job's trace id. *)

type writer

val create : path:string -> entry list -> writer
(** [create ~path existing] opens a journal writer on [path], seeded
    with [existing] entries (the replayed portion of a resumed
    campaign) so the file on disk always describes the whole campaign.
    Writes nothing until the first {!append}. *)

val append : writer -> entry -> unit
(** Record one settled query and persist it durably (fast append when
    the file is in a known-good state, atomic whole-file rewrite
    otherwise).  Raises [Sys_error] if the filesystem write fails (or
    under the [Journal_crash] fault-injection site); the in-memory
    entry list is updated first and the writer falls back to the
    rewrite path, so a later append re-persists everything. *)

val append_meta : writer -> meta -> unit
(** Record the shard trailer (same durability contract as {!append});
    a recovery rewrite reproduces it after the entries.  Meant to be
    called once, at the end of a sharded campaign. *)

val close : writer -> unit
(** Close the fast-path append channel, if open.  Further appends
    reopen it through the rewrite path; calling close is optional but
    polite at campaign end. *)

val load : path:string -> (entry list, string) result
(** Parse a journal written by {!append}.  A final line without a
    trailing newline is treated as the torn tail of an interrupted
    append and dropped; any other malformed line is an [Error]
    carrying its 1-based line number.  Meta trailer lines are skipped,
    so sharded and merged journals resume like plain ones. *)

val load_with_meta :
  path:string -> (entry list * meta list, string) result
(** Like {!load} but also returning the meta trailers — what
    [dpv merge-journals] reads from each shard journal.  A well-formed
    shard journal has exactly one; hand-concatenated files may carry
    several. *)

val save : path:string -> entry list -> unit
(** Write a complete journal in one atomic pass (sibling tmp file,
    fsync, rename) — no writer state, no fast path.  Used to
    materialize merged journals. *)

val result_of_entry : entry -> Verify.result option
(** The replayable result: [Some] exactly for [Done] entries. *)

val parse_metrics :
  line:int -> Json.t -> (Dpv_obs.Metrics.snapshot, string) result
(** Parse a [dpv-metrics/1] JSON object (the ["metrics"] member of a
    meta trailer, a campaign report, or a serve metrics reply) back
    into a snapshot.  [line] seeds error messages.  Derived fields
    ([p50_ns] etc.) are ignored; a missing ["rates"] object (pre
    dpv-obs/2) reads as empty. *)
