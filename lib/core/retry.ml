module Milp = Dpv_linprog.Milp
module Clock = Dpv_linprog.Clock
module Simplex = Dpv_linprog.Simplex
module Metrics = Dpv_obs.Metrics
module Trace = Dpv_obs.Trace

type telemetry = {
  attempts : int;
  dense_retry : bool;
  deadline_retry : bool;
}

let clean = { attempts = 1; dense_retry = false; deadline_retry = false }
let m_dense = Metrics.counter "retry.dense"
let m_deadline = Metrics.counter "retry.deadline"

(* Each ladder attempt is one span; the rung argument says why it ran. *)
let attempt ~rung f opts =
  Trace.with_span ~args:[ ("rung", rung) ] "retry.attempt" (fun () -> f opts)

let solve ~options ~deadline f =
  (* Rung 1 — numerical trouble.  The revised engine already rescues
     itself with an internal dense fallback per node; an exception that
     still escapes means the handle state is beyond local repair, so
     the whole query is re-solved with [lp_dense] (no incremental basis
     state at all).  A second escape propagates: the campaign records
     the query as crashed. *)
  let result, telemetry =
    match attempt ~rung:"first" f options with
    | r -> (r, clean)
    | exception Simplex.Numerical_trouble _ ->
        Metrics.incr m_dense 1;
        let opts =
          {
            options with
            Milp.lp_dense = true;
            time_limit_s = Clock.carve deadline options.Milp.time_limit_s;
          }
        in
        ( attempt ~rung:"dense" f opts,
          { attempts = 2; dense_retry = true; deadline_retry = false } )
  in
  (* Rung 2 — deadline.  [Unknown "deadline exceeded"] is a scheduling
     artifact, not a fact about the query; if the surrounding campaign
     deadline still has budget, spend it on one more attempt whose
     per-query limit is re-carved from what actually remains, as rung 1
     carves it: never more than the query's own limit.  With no
     campaign deadline there is nothing to re-carve — the same
     per-query limit would just expire again — so no retry.  (The
     campaign solve path does no OBBT tightening, so there is no
     tightening pass to shed on this rung; the retry is purely a
     bigger time slice.) *)
  match result.Verify.verdict with
  | Verify.Unknown reason
    when String.equal reason Verify.deadline_reason
         && (not (Clock.expired deadline))
         && Clock.remaining_s deadline <> None ->
      Metrics.incr m_deadline 1;
      let opts =
        {
          options with
          Milp.lp_dense = telemetry.dense_retry;
          time_limit_s = Clock.carve deadline options.Milp.time_limit_s;
        }
      in
      ( attempt ~rung:"deadline" f opts,
        {
          telemetry with
          attempts = telemetry.attempts + 1;
          deadline_retry = true;
        } )
  | _ -> (result, telemetry)
