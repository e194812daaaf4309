(** Batched verification campaigns with a shared-encoding cache,
    per-query fault isolation, and crash-safe resume.

    The paper's evaluation (Section 5) answers {e families} of queries —
    one per (input property phi, risk condition psi, bounds strategy)
    combination — against one perception network.  Run one at a time,
    every query re-slices the suffix, re-fits the data bounds, and
    re-encodes the suffix big-M model, although those depend only on the
    [(cut, bounds)] pair.  A campaign amortizes them: each distinct
    [(cut, bounds)] key is resolved and encoded exactly once (the
    {!Encode.shared} prefix is persistent, and it memoizes each head's
    rows and each bisection sub-box, so completing it per query adds
    only the psi and phi rows), and the per-query MILP solves then fan
    out on the {!Dpv_linprog.Pool} work-stealing domains.

    {b Failure semantics.}  A campaign is a batch job: one misbehaving
    query must not take the other N-1 answers down with it.

    - Each solve runs under the {!Retry} ladder: escaped numerical
      trouble earns one dense re-solve, and a deadline expiry with
      campaign budget left earns one re-carved re-solve.
    - A query whose final attempt still raises is recorded as
      [Crashed] — the exception text becomes the outcome, the batch
      proceeds.
    - Queries whose turn comes after the campaign budget is exhausted
      are recorded as [Skipped "budget exhausted"], not silently
      dropped and not burned attempting doomed solves.
    - A report containing any [Crashed] or [Skipped] outcome is marked
      [degraded]; the CLI maps that to its own exit code.

    {b Journaling and resume.}  With [?journal], every settled query is
    filed with a {!Journal} writer, whose syncer makes it durable with
    the next group commit: the task that settled it goes on to its next
    unit without waiting, so a verdict is durable within one group, not
    before the next query starts.  A campaign killed after k durable
    verdicts of N can be resumed: pass the loaded entries as [?resume]
    and the k settled [Done] verdicts are replayed (bit-identical,
    marked [from_journal]) while only the remaining N-k queries are
    solved.  [Crashed]/[Skipped] journal entries are retried on resume,
    not replayed. *)

type query = {
  label : string;                    (** name used in reports *)
  characterizer : Characterizer.t;   (** fixes the cut layer and head *)
  psi : Dpv_spec.Risk.t;
  bounds : Verify.bounds_spec;
  characterizer_margin : float;
}

val query :
  ?characterizer_margin:float ->
  label:string ->
  characterizer:Characterizer.t ->
  psi:Dpv_spec.Risk.t ->
  bounds:Verify.bounds_spec ->
  unit ->
  query
(** [characterizer_margin] defaults to [0.0]. *)

val query_key : query -> string
(** Content digest (hex) identifying a query across processes: two
    structurally equal queries have equal keys.  This is the key the
    journal records and resume matches on, so reordering or extending
    the query list between runs cannot misattribute verdicts — and the
    value {!shard_index} partitions on. *)

val shard_index : shards:int -> string -> int
(** The slice a query key belongs to in an [shards]-way partition: the
    key's first eight hex digits as an integer, mod [shards].  Pure
    arithmetic on the content digest, so every process holding the same
    spec computes the same partition regardless of query order, host or
    OCaml version.  Raises [Invalid_argument] if [shards < 1]. *)

val plan_workers :
  runners:int -> milp_workers:int -> pending:int -> int * int
(** [(pool_runners, inner_workers)] for a campaign granted [runners]
    domains with [pending] units to solve (see {!run}):
    [(1, milp_workers)] when [runners = 1] (defer to the caller's MILP
    setting), [(runners, 1)] when units are plentiful, and
    [(pending, runners / pending)] when units are scarcer than domains,
    so thin shards spend the budget inside the MILP subtree searches
    instead of idling.  Exposed for tests.  Raises [Invalid_argument]
    if [runners < 1]. *)

type outcome = Journal.outcome =
  | Done of Verify.result
  | Crashed of string   (** solve raised; text of the exception *)
  | Skipped of string   (** never attempted (budget exhausted) *)

type query_report = {
  query : query;
  outcome : outcome;
  from_cache : bool;
      (** whether this query's [(cut, bounds)] prefix was already in the
          cache when the campaign prepared it *)
  from_journal : bool;
      (** replayed from a resume journal instead of being solved *)
  attempts : int;
      (** retry-ladder attempts: the most any of the query's units
          needed, at least 1 for [Done] and [Crashed], 0 for a
          [Skipped] query none of whose units ran *)
  dense_retry : bool;
  deadline_retry : bool;
}

type cache_stats = {
  entries : int;  (** distinct [(cut, bounds)] keys built by this run *)
  hits : int;     (** queries served from an existing entry *)
  misses : int;   (** queries that had to build their entry; [= entries] *)
}

type cache
(** A shared-encoding cache that outlives one {!run}.  By default each
    run builds and discards its own; a long-lived caller (the serve
    daemon) creates one with {!create_cache} and passes it to every
    run, so a [(cut, bounds)] prefix built for one job is served warm
    to every later job, together with the head completions and
    sub-box restrictions the prefix memoized for earlier queries
    (see {!Encode.shared}).  Thread-safe: lookups and inserts are
    mutex-protected. *)

val create_cache : unit -> cache

type report = {
  query_reports : query_report list;  (** in input query order *)
  cache : cache_stats;
  runners : int;
  shard : (int * int) option;
      (** [(index, count)] when the run covered one slice of a sharded
          partition; [None] for whole-spec (and merged) reports *)
  budget_s : float option;
  total_wall_s : float;
  degraded : bool;
      (** some query crashed or was skipped: the report is not a full
          answer to the campaign *)
  crashed : int;
  skipped : int;
  retried : int;   (** queries that needed more than one attempt *)
  resumed : int;   (** queries replayed from the resume journal *)
  journal_write_failures : int;
      (** journal group writes that failed, each counted once; the
          campaign carries on (the next group, or the journal's close,
          rewrites the full journal) *)
  metrics : Dpv_obs.Metrics.snapshot;
      (** the campaign's delta against the global metrics registry
          ({!Dpv_obs.Metrics.since} over the run): counter and histogram
          totals attribute to this campaign exactly — e.g.
          [simplex.pivots] equals the sum of [pivots] over the
          non-replayed query stats — while gauges carry end-of-run
          high-water values.  Taken before the journal's last group
          commit, so that group's [journal.append_ns] and
          [journal.sync_ns] observations (and a failure of it) reach
          the process registry but not this snapshot.  Embedded in
          {!to_json} as the ["metrics"] object ([dpv-metrics/1]). *)
}

val run :
  ?milp_options:Dpv_linprog.Milp.options ->
  ?runners:int ->
  ?shard:int * int ->
  ?budget_s:float ->
  ?journal:string ->
  ?resume:Journal.entry list ->
  ?absint:bool ->
  ?bisect:Verify.bisect_options ->
  ?cache:cache ->
  ?on_settled:(query_report -> unit) ->
  ?after_settle:(unit -> unit) ->
  ?trace:string ->
  perception:Dpv_nn.Network.t ->
  query list ->
  report
(** Execute every query against [perception].

    [cache] supplies a persistent shared-encoding cache
    ({!create_cache}) reused across runs; omitted, the run builds a
    private one.  [cache_stats.entries]/[misses] always count only what
    {e this} run built; [hits] includes warm hits against entries a
    previous run left in a persistent cache.

    Every query that needs solving becomes units, the tasks of one
    runner pool: without [bisect] one unit over the query's whole
    shared prefix, with it one unit per surviving sub-box.  A query
    settles in the task that finishes its last unit, which folds the
    unit outcomes in plan order and files the query with the journal.
    Queries left with no unit settle before the pool starts: an
    encoding failure as [Crashed], a plan whose every sub-box
    propagation discharged as [Done].

    [on_settled] is invoked once per query (solved, crashed, skipped,
    or replayed from the resume journal) — the hook behind streamed
    serve verdicts.  With a journal, a settled query's call comes once
    its line is durable, from the journal's syncer thread, in settle
    order; even when the line's group write failed (the failure is
    counted in [journal_write_failures]).  Replayed queries, and every
    query without a journal, are handed over at once by the settling
    task.  It must be thread-safe; exceptions it raises are swallowed
    (observability must not kill the solve).  Order is settle order,
    not input order — the report still lists queries in input order.
    [run] returns only after every call.

    [after_settle] (default: nothing) runs in the settling task right
    after each query settles and is filed, before the task takes its
    next unit.  The serve daemon's [settle_delay_s] pauses here, which
    paces its kill-and-restart tests.

    [absint] (default false) arms the DeepPoly branch-and-bound guide
    on every solve (see {!Verify.run_query}).  [bisect] (default off)
    turns each query into its input-bisection plan
    ({!Verify.bisect_plan}): sub-boxes discharged by propagation cost
    no solve at all, and each surviving sub-box becomes its own unit —
    so {!plan_workers} sees the true pending width and a campaign of
    one hard query still fans out across the domain budget.  Per-query
    verdicts are merged soundly ({!Verify.merge_bisected}); a
    validated UNSAFE witness in any sub-box decides its query even if
    sibling sub-boxes crashed, and otherwise one crashed (resp.
    budget-skipped) sub-box degrades the query to [Crashed] (resp.
    [Skipped]).  The journal records one merged entry per query,
    written (and passed to [on_settled]) when the query's last
    sub-box finishes, so resume and sharding are oblivious to
    bisection.

    [runners] (default 1) is the campaign's total domain budget.
    {!plan_workers} splits it between the unit pool and the inner
    MILP searches: with at least [runners] units, one coarse-grained
    task per unit with sequential inner solves (tasks never nest
    domain pools); with fewer units than runners — a thin shard, or
    one large query — the spare domains move inside the MILPs as
    subtree-search workers.  With [runners = 1] the
    [milp_options.workers] setting applies unchanged.  Verdicts never
    depend on [runners]: each query solves the same model that a
    standalone {!Verify.verify} call would (only solver scheduling
    differs).

    [budget_s] is a wall-clock budget for the whole campaign; each
    unit's [time_limit_s] is capped by the remaining budget when it
    starts ({!Dpv_linprog.Clock.carve}), and units reaching the pool
    after expiry are skipped: a query none of whose units ran is
    [Skipped] with [attempts = 0].

    [journal] files every settled query with a writer on the given
    path (see {!Journal}) and closes it before [run] returns; [resume]
    replays [Done] entries previously loaded with {!Journal.load}.
    When both are given the journal is seeded with the replayed
    entries, so the file always describes the whole campaign.
    [milp_options] applies to every query (default
    {!Verify.default_milp_options}).

    [shard = Some (i, n)] runs slice [i] of a deterministic [n]-way
    partition of the query keys ({!shard_index}): the campaign sees the
    full spec, filters to its slice before any solving, and shares the
    encoding cache within the slice.  An empty slice is legal and
    yields a valid empty report.  When a sharded run journals, it
    appends one {!Journal.meta} trailer carrying its metrics snapshot,
    which [dpv merge-journals] sums into whole-campaign totals.
    Raises [Invalid_argument] unless [0 <= i < n].

    [trace] (default [""]) is a correlating trace id stamped into the
    journal's meta trailer: when non-empty and the run journals, a
    {!Journal.meta} trailer (unsharded: [shard = 0], [shard_count = 1])
    is appended carrying it — how a served job's journal is tied back
    to its joblog entry, protocol frames and spans. *)

val verdict_word : Verify.verdict -> string
(** ["safe"], ["unsafe"] or ["unknown"] — the JSON verdict field. *)

val outcome_word : outcome -> string
(** ["done"], ["crashed"] or ["skipped"]. *)

val to_json : report -> string
(** The aggregated machine-readable report, [BENCH_milp.json]-style
    (schema tag ["dpv-campaign/2"]): campaign totals, degradation
    counters, cache statistics, the embedded [dpv-metrics/1] snapshot,
    and one record per query with outcome, verdict, retry telemetry,
    wall time, encoding size and the {!Dpv_linprog.Milp.stats}
    telemetry. *)

val save_json : report -> path:string -> unit

(** {2 Shard merging}

    A sharded campaign runs as [n] independent processes, each covering
    one slice of the partition and journaling its slice's outcomes plus
    one meta trailer.  [dpv merge-journals] reassembles the whole
    campaign from the shard journals alone: {!merge_journals} merges
    their entries and trailers, and {!merged_to_json} writes the
    report. *)

val merge_journals :
  (Journal.entry list * Journal.meta list) list ->
  Journal.entry list * Journal.meta list
(** Merge shard journals as loaded by {!Journal.load_with_meta}.
    Entries deduplicate by content key — the most conclusive outcome
    wins ([Done] > [Crashed] > [Skipped]), first occurrence on ties —
    in first-seen order; meta trailers concatenate in argument order.
    The merged entry list is a valid {!Journal.save} payload and a
    valid [?resume] input. *)

val merged_to_json :
  entries:Journal.entry list -> metas:Journal.meta list -> string
(** The [dpv-campaign/2] report of a merged partition, rebuilt from
    the journals alone: campaign totals (cache statistics, journal
    write failures) come from the summed meta metrics, [total_wall_s]
    is the slowest shard, and every query record is [from_journal] —
    merging never re-solves anything. *)

val worst_exit_code : Journal.entry list -> int
(** The exit code a merged campaign deserves, same precedence the CLI
    applies to a live one: [1] if any query is unsafe (a
    counterexample must never be masked), else [4] if any crashed or
    was skipped, else [2] if any verdict is unknown, else [0]. *)

val report_exit_code : report -> int
(** The same severity ladder over a live {!report} — the one definition
    the CLI campaign command and the serve daemon both answer with:
    [1] unsafe, else [4] degraded, else [2] unknown, else [0]. *)
