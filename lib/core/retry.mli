(** The per-query retry/degradation ladder.

    One verification query can fail in ways that say nothing about the
    property under test: the warm-started LP engine can hit numerical
    trouble that even its internal dense fallback cannot absorb, or a
    jittery deadline can expire a solve that still had campaign budget
    left.  This module climbs a short, explicit ladder before letting
    the failure reach the report:

    {ol
    {- {b Numerical trouble} — an escaped
       {!Dpv_linprog.Simplex.Numerical_trouble} triggers exactly one
       retry with [lp_dense = true]: every node LP runs on the dense
       reference solver, which keeps no incremental basis state to
       corrupt.  Slow, but it answers.}
    {- {b Deadline} — a result of [Unknown "deadline exceeded"] while
       the surrounding campaign deadline still has budget triggers
       exactly one retry with the per-query limit re-carved from what
       actually remains (and no bound-tightening pass, so the whole
       budget goes to the search).  Without a campaign deadline there
       is nothing to re-carve, so no retry.}
    {- Anything else — other exceptions, or a second failure — escapes
       to the caller, where {!Campaign} records it as a [Crashed]
       outcome instead of dying.}} *)

type telemetry = {
  attempts : int;        (** solve attempts made, [>= 1] *)
  dense_retry : bool;    (** rung 1 fired: re-solved with [lp_dense] *)
  deadline_retry : bool; (** rung 2 fired: re-solved with a re-carved
                             deadline *)
}

val solve :
  options:Dpv_linprog.Milp.options ->
  deadline:Dpv_linprog.Clock.deadline ->
  (Dpv_linprog.Milp.options -> Verify.result) ->
  Verify.result * telemetry
(** [solve ~options ~deadline f] runs [f options] and climbs the ladder
    above on failure.  [deadline] is the {e campaign-wide} deadline the
    per-query [options.time_limit_s] was carved from; both rungs
    re-carve that limit against it, so a retried query can exceed
    neither its own limit nor what the campaign has left.  Exceptions
    from the final attempt propagate. *)
