(** Human-readable reporting for workflow results. *)

val pp_case : Format.formatter -> Workflow.case_report -> unit

val pp_verdict_line : Format.formatter -> Workflow.case_report -> unit
(** One-line summary: property, psi, strategy, verdict, time. *)

val pp_milp_stats : Format.formatter -> Dpv_linprog.Milp.stats -> unit
(** Solver telemetry block: nodes and LPs, LP wall time, and — only
    when the search genuinely ran parallel (more than one worker) —
    per-worker node counts, steal count and the deepest any subproblem
    queue got.  Sequential runs print no zero-filled parallel block. *)

val pp_metrics : Format.formatter -> Dpv_obs.Metrics.snapshot -> unit
(** Render a {!Dpv_obs.Metrics} snapshot as an aligned name/value
    block: counters, then high-water gauges, then histograms with
    observation count, mean and last-bucket bound. *)

val pp_campaign : Format.formatter -> Campaign.report -> unit
(** Campaign summary table: one line per query (label, verdict, wall
    time, cache reuse, node count) plus the cache statistics and the
    total wall time. *)

val table_row : string list -> string
(** Fixed-width table row helper used by the bench harness. *)

val rule : unit -> string
(** Horizontal rule matching {!table_row} width conventions. *)
