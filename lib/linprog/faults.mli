(** Deterministic fault injection for chaos-style testing.

    The solver and campaign stack advertise a recovery ladder (dense
    fallback, deadline retry, crash isolation, skip-with-degraded
    report).  This module lets tests and CI {e prove} each rung fires:
    named injection sites are compiled into the hot paths behind a
    single enabled-flag check, and a configured site raises or corrupts
    exactly on its Nth dynamic occurrence.

    This module names no site.  Each layer declares its own with
    {!site}, at the top level of the module that fires it, next to the
    doc of what the site injects.  A site therefore exists in an
    executable exactly when its layer is linked: [dpv] accepts every
    site, while an executable that links no campaign, journal or serve
    module refuses theirs.

    Disabled (the default), every site is one relaxed atomic load —
    no counters move and no randomness is drawn — so production and
    benchmark runs pay nothing measurable.

    Occurrence counting is global and atomic, so a spec like
    [lp-trouble=2] means "the second time {e any} domain reaches the
    lp-trouble site", which is deterministic whenever the call order
    is (sequential campaigns, single-runner pools).  Each site fires at
    most once per configuration.

    Configuration comes either from {!configure} (tests) or from the
    [DPV_FAULTS] environment variable (CLI and bench executables call
    {!init_from_env} at startup; the library never reads the
    environment on its own, so [dune runtest] stays deterministic).
    Both name sites by the strings their layers registered. *)

type site
(** A registered injection site. *)

val site : string -> site
(** [site name] registers the injection site that tests and
    [DPV_FAULTS] call [name].  Raises [Invalid_argument] when [name]
    is already registered. *)

val names : unit -> string list
(** The registered site names, in registration order. *)

val configure : ?seed:int -> (string * int) list -> unit
(** [configure ~seed plan] arms the harness: each [(name, n)] pair makes
    that site fire on its [n]th occurrence ([n >= 1]), once.  Counters
    reset.  [seed] (default 0) perturbs {e how} a corrupting site
    misbehaves (which factor entry [pivot-corrupt] scribbles and by how
    much), not {e when} it fires.  Raises [Invalid_argument] for an
    unregistered name or an occurrence below 1. *)

val disable : unit -> unit
(** Disarm every site and zero the counters. *)

val parse_spec : string -> ((int * (string * int) list), string) result
(** Parse a [DPV_FAULTS] spec such as ["seed=7,lp-trouble=2,deadline-jitter=1"]
    into [(seed, plan)].  Unregistered site names (the error lists the
    registered ones) and malformed counts are reported, not ignored. *)

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

val occurrences : string -> int
(** Dynamic occurrences of the named site counted since the last
    [configure]/[disable].  Raises [Invalid_argument] for an
    unregistered name. *)

val fired : string -> int
(** Times [fire] returned [true] for the named site since the last
    configure.  Raises [Invalid_argument] for an unregistered name. *)

val trace_sites : unit -> unit
(** Emit one [fault-site:<name>] instant trace event per registered
    site (with its occurrence/fired counters as arguments), so a
    written trace always names every site even when none fired.
    Individual fires additionally emit [fault-fire:<name>] markers at
    the moment they happen.  No-op while tracing is disabled. *)
