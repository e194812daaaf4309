(** Monotonic time source for trace timestamps.

    Trace spans must never go negative or jump when the wall clock is
    adjusted mid-run.  With no monotonic-clock binding available in the
    toolchain, this module derives a never-decreasing nanosecond counter
    from [Unix.gettimeofday]: each reading is clamped (with a CAS loop,
    so it is safe across domains) to be at least the previous one.  A
    backwards wall-clock step therefore freezes the trace clock until
    real time catches up instead of producing negative span durations.

    Deadline logic deliberately keeps using {!Dpv_linprog.Clock.now_s}
    (raw wall time): a deadline is a promise about the wall. *)

val now_ns : unit -> int
(** Nanoseconds since process start; never decreases. *)
