(** Crash-safe campaign journal: one JSON line per settled query.

    A campaign that dies — machine reboot, OOM kill, operator ctrl-C —
    should not forfeit the queries it already answered.  The journal
    records each query's outcome as soon as it settles, keyed by a
    content digest of the query itself, and [dpv campaign --resume]
    replays [Done] entries instead of re-solving them.

    Durability model: group commit.  A settling task {e files} its
    record ({!file}) and goes on; it does not wait for the disk.  Each
    writer has one syncer thread, which takes every record filed so
    far, writes them and makes them durable with one fsync (a group),
    then runs the records' [on_sync] callbacks in filing order.  So a
    callback runs only once its line is durable, and {!close} returns
    only once every filed line is.

    - A fresh writer (no seeded entries) creates its file, or
      truncates a stale one, with its first group: open, append, fsync
      the file, then fsync the directory so the new name is durable
      too.
    - A seeded writer (the replayed entries of a resumed campaign)
      rewrites the whole journal with its first group: a temporary
      file in the same directory, fsync, [Sys.rename] over the target,
      fsync of the directory.  That also compacts the journal.
    - A failed group write is counted once ({!write_failures} and the
      [journal.write_failures] counter), its callbacks still run (with
      [Error]), and the next group rewrites the whole file, so no
      filed record is lost.  {!close} retries a rewrite the last group
      left pending.

    A crash mid-group can tear at most the final, unterminated line,
    which {!load} drops; corruption anywhere else is still a hard
    parse error.

    Metrics: [journal.appends] counts records at filing,
    [journal.append_ns] observes each record from filing to durable,
    [journal.sync_ns] each group commit, and [journal.rewrites] each
    whole-file rewrite.  The syncer records one [journal.sync] span per
    group. *)

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
    campaign) so the file on disk always describes the whole campaign,
    and starts its syncer thread.  Writes nothing until the first
    record is filed.  Every writer must be {!close}d. *)

val file : writer -> ?on_sync:((unit, exn) result -> unit) -> entry -> unit
(** Queue one settled query for the next group commit and return at
    once.  [on_sync] runs on the syncer, in filing order, once the
    group holding the line is durable ([Ok ()]) or its write failed
    ([Error e]); exceptions it raises are ignored, and it must not
    wait on the same writer ({!append}, {!close}).  Raises
    [Invalid_argument] after {!close}. *)

val file_meta : writer -> meta -> unit
(** Queue the shard trailer like {!file}; a rewrite reproduces it
    after the entries.  Meant to be filed once, after the last
    entry. *)

val append : writer -> entry -> unit
(** {!file} and wait: returns once the line is durable.  Raises
    [Sys_error] if its group write failed (or under the
    [journal-crash] fault-injection site); the entry stays filed, so
    the next group rewrites the whole journal with it. *)

val append_meta : writer -> meta -> unit
(** {!file_meta} and wait, with {!append}'s contract. *)

val close : writer -> unit
(** Wait for the last group, join the syncer, retry a rewrite that a
    failed last group left pending, and close the file.  No syncer
    outlives it.  Closing twice does nothing more. *)

val write_failures : writer -> int
(** Group writes that failed so far, each counted once however many
    records it held. *)

val load : path:string -> (entry list, string) result
(** Parse a journal written by {!append}.  A final line without a
    trailing newline is treated as the torn tail of an interrupted
    append and dropped; any other malformed line is an [Error]
    carrying its 1-based line number.  Meta trailer lines are skipped,
    so sharded and merged journals resume like plain ones. *)

val read_lines :
  path:string ->
  (line:int -> string -> ('a, string) result) ->
  ('a list, string) result
(** The torn-tail rule of an append-only JSON-lines log (this journal
    and the serve joblog): every line of the file at [path], decoded in
    order by [decode ~line text] ([line] is 1-based; blank lines are
    skipped).  A final line without a trailing newline is the torn
    tail of an interrupted append and is dropped when it does not
    decode; any other line [decode] rejects is an [Error] with
    [decode]'s message, as is an unreadable file. *)

val load_with_meta :
  path:string -> (entry list * meta list, string) result
(** Like {!load} but also returning the meta trailers — what
    [dpv merge-journals] reads from each shard journal.  A well-formed
    shard journal has exactly one; hand-concatenated files may carry
    several. *)

val save : path:string -> entry list -> unit
(** Write a complete journal in one atomic pass (sibling tmp file,
    fsync, rename, fsync of the directory) — no writer state, no group
    commit.  Used to materialize merged journals. *)

val fsync_dir : string -> unit
(** [fsync_dir path] fsyncs the directory holding [path], so a file
    just created or renamed there keeps its name across a power cut.
    Errors are ignored (some filesystems refuse a directory fsync). *)

val result_of_entry : entry -> Verify.result option
(** The replayable result: [Some] exactly for [Done] entries. *)

val parse_metrics :
  line:int -> Json.t -> (Dpv_obs.Metrics.snapshot, string) result
(** {!Dpv_obs.Metrics.of_json}, under the name earlier callers use. *)
