(** Always-on typed metrics registry for the verification stack.

    One global registry holds named counters, high-water gauges and
    log-scale histograms.  Construction ({!counter}, {!gauge},
    {!histogram}) registers the metric once — call it at module-init
    time and keep the handle.  The hot-path operations ({!incr},
    {!set_max}, {!observe}) are single atomic read-modify-writes on
    preallocated cells: no allocation, no lock, safe from any domain.

    Unlike {!Trace}, metrics are always collected — they are a handful
    of atomic adds against LP solves, too cheap to gate.  Snapshots
    ({!snapshot}, {!since}) give a consistent view; {!to_json} exports
    the [dpv-metrics/1] schema embedded in campaign reports and bench
    baselines.

    Conventions: durations are accumulated as integer {e nanoseconds}
    (histogram sums are reported as [sum_ns]); names are dotted paths
    such as ["simplex.pivots"] or ["journal.append_ns"]. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Register (or look up) the counter with this name. *)

val gauge : string -> gauge
(** Register (or look up) the high-water gauge with this name. *)

val sample : string -> gauge
(** Register (or look up) a {e sampled} gauge: a last-writer-wins
    point sample (queue depth right now) rather than a high-water
    mark.  Sampled gauges are reported under ["rates"] in the JSON so
    shard-merging consumers never sum or max them as if they were
    cumulative. *)

val histogram : string -> histogram
(** Register (or look up) a histogram with fixed log2 buckets over
    nanoseconds: bucket [i] counts observations [v] with
    [2^(i-1) < v <= 2^i] (bucket 0 catches [v <= 1]).  63 buckets
    cover the whole non-negative range. *)

val incr : counter -> int -> unit
val counter_value : counter -> int

val set_max : gauge -> int -> unit
(** Raise the gauge to [v] if [v] exceeds its current value (CAS loop);
    gauges are monotonic high-water marks, not last-write samples. *)

val gauge_value : gauge -> int

val set : gauge -> int -> unit
(** Overwrite the gauge (for {!sample} gauges fed by a sampler).
    Stored as [v * 1000] so every value under ["rates"] — point sample
    or windowed rate — is uniformly in milli-units. *)

val observe : histogram -> int -> unit
(** Record one observation (negative values clamp to 0). *)

(** {2 Rolling-window rates}

    A rate gauge turns a cumulative series (a counter, GC minor words)
    into events-per-second over a rolling window.  {!rate_tick} is
    meant to be called by a background sampler on a fixed tick — never
    from a hot path.  The published gauge value is in
    {e milli-events per second} (integer gauges cannot carry
    fractions). *)

type rate

val rate : ?window_s:float -> string -> rate
(** Register a {!sample}-kind gauge named [name] driven by a rolling
    window (default 10 s). *)

val rate_tick : rate -> now_ns:int -> int -> unit
(** Feed one (timestamp, cumulative value) observation and republish
    the windowed per-second rate (×1000) to the gauge. *)

val rate_value : rate -> int
(** The current published value (milli-events/second). *)

val bucket_index : int -> int
(** The bucket an observation lands in — exposed for tests. *)

val bucket_upper : int -> int
(** Inclusive upper bound of bucket [i] in ns ([max_int] for the last). *)

(** {2 Snapshots} *)

type hist_snapshot = {
  count : int;
  sum : int;
  buckets : (int * int) list;
      (** [(upper_bound_ns, count)] for nonzero buckets (bound is
          inclusive), in
          ascending bound order *)
}

type snapshot = {
  snap_counters : (string * int) list;    (** sorted by name *)
  snap_gauges : (string * int) list;
      (** high-water gauges only, sorted by name *)
  snap_rates : (string * int) list;
      (** {!sample}-kind gauges (point samples / windowed rates in
          milli-units), sorted by name *)
  snap_histograms : (string * hist_snapshot) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
(** A consistent-enough copy of every registered metric (each cell is
    read atomically; the set of metrics is read under the registry
    lock). *)

val since : before:snapshot -> snapshot -> snapshot
(** [since ~before after] is what happened between the two snapshots:
    counters and histogram totals subtract (metrics absent at [before]
    count from zero); gauges and rates keep the [after] value, since
    subtracting high-water marks or point samples is meaningless. *)

val empty_snapshot : snapshot
(** A snapshot of nothing: the identity of {!merge}. *)

val merge : snapshot -> snapshot -> snapshot
(** Combine snapshots taken in {e different} processes (campaign
    shards): counters and histogram totals add, gauges keep the larger
    high-water mark, histogram buckets merge bucket-wise.  Rates are
    {e never} summed (shards usually ran sequentially; adding their
    throughputs would fabricate parallelism) — the larger sustained
    rate is kept.  This is how [dpv merge-journals] turns per-shard
    [dpv-metrics/1] snapshots into exact whole-campaign totals.  Not
    for two snapshots of the same process — use {!since} for
    in-process deltas. *)

val counter_in : snapshot -> string -> int option
val gauge_in : snapshot -> string -> int option
val rate_in : snapshot -> string -> int option
val histogram_in : snapshot -> string -> hist_snapshot option

val quantile_of_hist : hist_snapshot -> q:float -> float
(** Estimate the [q]-quantile (in ns) from the log2 buckets: find the
    bucket holding the target rank and interpolate linearly inside it.
    The log2 resolution bounds the error to the bucket, i.e. a factor
    of 2 of the true sample quantile.  [0.0] for an empty histogram;
    raises [Invalid_argument] outside [0 <= q <= 1]. *)

val to_json : snapshot -> Json.t
(** The [dpv-metrics/1] JSON object.  Sampled gauges are reported under
    ["rates"]; histograms with observations additionally carry derived
    [p50_ns]/[p90_ns]/[p99_ns], rounded to whole nanoseconds. *)

val of_json : line:int -> Json.t -> (snapshot, string) result
(** Parse a [dpv-metrics/1] object (the ["metrics"] member of a journal
    meta trailer, a campaign report, or a serve metrics reply) back
    into a snapshot.  [line] seeds error messages.  Derived fields
    ([p50_ns] etc.) are ignored; a missing ["rates"] object (pre
    dpv-obs/2) reads as empty. *)

val save_json : snapshot -> path:string -> unit
(** Write {!to_json} to [path], one member per line down to the
    histograms. *)
