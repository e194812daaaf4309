(** Deterministic fault injection for chaos-style testing.

    The solver and campaign stack advertise a recovery ladder (dense
    fallback, deadline retry, crash isolation, skip-with-degraded
    report).  This module lets tests and CI {e prove} each rung fires:
    a handful of named injection sites are compiled into the hot paths
    behind a single enabled-flag check, and a configured site raises or
    corrupts exactly on its Nth dynamic occurrence.

    Disabled (the default), every site is one relaxed atomic load —
    no counters move and no randomness is drawn — so production and
    benchmark runs pay nothing measurable.

    Occurrence counting is global and atomic, so a spec like
    [task-crash=2] means "the second time {e any} domain reaches the
    task-crash site", which is deterministic whenever the call order
    is (sequential campaigns, single-runner pools).  Each site fires at
    most once per configuration.

    Configuration comes either from {!configure} (tests) or from the
    [DPV_FAULTS] environment variable (CLI and bench executables call
    {!init_from_env} at startup; the library never reads the
    environment on its own, so [dune runtest] stays deterministic). *)

type site =
  | Lp_trouble          (** raise [Simplex.Numerical_trouble] at [resolve]
                            entry, {e outside} its internal fallback — the
                            exception escapes to the query level *)
  | Pivot_corrupt       (** silently scribble on a U diagonal of the basis
                            factors and the matching basic value after a
                            pivot; caught by the next refactorization's
                            check or the post-solve residual check *)
  | Refactor_singular   (** refactorization reports a singular basis *)
  | Deadline_jitter     (** one [Clock.expired] check on a finite deadline
                            returns true early *)
  | Task_crash          (** a campaign query task raises mid-flight *)
  | Journal_crash       (** a journal write fails with [Sys_error] *)
  | Lp_unbounded        (** a branch-and-bound node's LP relaxation
                            reports [Unbounded] — with exact arithmetic
                            this is impossible below a bounded root, so
                            the site models the numerical artifact the
                            solvers must survive without abandoning the
                            search *)
  | Absint_stale        (** the incremental abstract-interpretation guide
                            serves a stale cached layer state once: a
                            consult that should have invalidated part of
                            its prefix cache skips the invalidation.  The
                            guide's debug cross-check (active whenever the
                            harness is enabled) must detect the divergence
                            against a from-scratch propagation and fall
                            back *)
  | Serve_accept        (** the server's accept loop hiccups once: the
                            freshly accepted connection raises as if the
                            peer vanished between [accept] and the
                            handler handoff.  The loop must absorb it
                            and keep listening — a transient accept
                            failure is never a server exit *)
  | Serve_torn_frame    (** a client frame arrives torn: the framed read
                            reports truncation as if the peer died (or
                            lied about its length) mid-frame.  The
                            server must answer that connection with a
                            framed error and close {e that} connection
                            only *)
  | Serve_client_gone   (** a streamed reply write fails as if the peer
                            disconnected mid-stream.  The job must keep
                            running to its journal — the server records
                            the client loss and survives *)
  | Serve_scrape        (** one metrics scrape response is torn: the
                            HTTP responder declares more bytes than it
                            sends and drops the connection mid-body.
                            The endpoint must close {e that} connection
                            only — the accept loop, running jobs and
                            later scrapes are untouched *)

val configure : ?seed:int -> (site * int) list -> unit
(** [configure ~seed plan] arms the harness: each [(site, n)] pair makes
    that site fire on its [n]th occurrence ([n >= 1]), once.  Counters
    reset.  [seed] (default 0) perturbs {e how} a corrupting site
    misbehaves (which factor entry [Pivot_corrupt] scribbles and by how
    much), not {e when} it fires. *)

val disable : unit -> unit
(** Disarm every site and zero the counters. *)

val parse_spec : string -> ((int * (site * int) list), string) result
(** Parse a [DPV_FAULTS] spec such as ["seed=7,task-crash=2,deadline-jitter=1"]
    into [(seed, plan)].  Unknown site names and malformed counts are
    reported, not ignored. *)

val init_from_env : unit -> unit
(** [configure] from the [DPV_FAULTS] environment variable if it is set
    and non-empty; print the parse error to stderr and exit 3 when it is
    malformed (a typo silently disabling chaos would defeat the point).
    Only executables should call this. *)

val enabled : unit -> bool

val fire : site -> bool
(** Count one occurrence of [site] and return whether this occurrence is
    the injected one.  When the harness is disabled this is a single
    atomic load returning [false] — nothing is counted. *)

val seed : unit -> int
(** The configured seed (0 when disabled). *)

val occurrences : site -> int
(** Dynamic occurrences counted since the last [configure]/[disable]. *)

val fired : site -> int
(** Times [fire] returned [true] for [site] since the last configure. *)

val describe : unit -> string
(** One-line summary of the armed plan (["disabled"] when off); used by
    reports so chaos runs are self-documenting. *)

val trace_sites : unit -> unit
(** Emit one [fault-site:<name>] instant trace event per injection site
    (with its occurrence/fired counters as arguments), so a written
    trace always names every site even when none fired.  Individual
    fires additionally emit [fault-fire:<name>] markers at the moment
    they happen.  No-op while tracing is disabled. *)
