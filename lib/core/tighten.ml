module Lp = Dpv_linprog.Lp
module Simplex = Dpv_linprog.Simplex
module Clock = Dpv_linprog.Clock
module Box_domain = Dpv_absint.Box_domain
module Interval = Dpv_absint.Interval
module Metrics = Dpv_obs.Metrics
module Trace = Dpv_obs.Trace

let m_lps = Metrics.counter "tighten.lps"

type stats = {
  lps_solved : int;
  pivots : int;
  dims_tightened : int;
  dims_skipped : int;
  width_before : float;
  width_after : float;
}

let feature_box ?time_limit_s ?deadline ?shared ~suffix ~head ~feature_box
    ?(extra_faces = []) ?(characterizer_margin = 0.0) () =
  Trace.with_span "tighten.feature-box" @@ fun () ->
  let deadline =
    match deadline with
    | Some d -> d
    | None -> Clock.deadline_after time_limit_s
  in
  let encoding =
    match shared with
    | Some s -> Encode.complete s ~head ~characterizer_margin ()
    | None ->
        Encode.build ~suffix ~head ~feature_box ~extra_faces
          ~characterizer_margin ()
  in
  let relaxed = Lp.relax_integrality encoding.Encode.model in
  (* All 2*d LPs share one constraint matrix; only the objective moves.
     A persistent handle keeps the optimal basis between solves — an
     objective change leaves it primal feasible, so each LP after the
     first warm-starts in primal simplex. *)
  let handle = Simplex.create relaxed in
  let lps = ref 0 in
  let tightened = ref 0 in
  let skipped = ref 0 in
  let out =
    Array.mapi
      (fun i (orig : Interval.t) ->
        if Clock.expired deadline then begin
          incr skipped;
          orig
        end
        else
        let v = encoding.Encode.feature_vars.(i) in
        (* Re-check the deadline per LP, not per coordinate: each solve
           on a large relaxation can be a sizable fraction of the whole
           budget, and the overshoot past the deadline should be at most
           one straddling LP. *)
        let solve sense =
          if Clock.expired deadline then None
          else begin
            incr lps;
            Metrics.incr m_lps 1;
            let trace_t0 = Trace.begin_ns () in
            Simplex.set_objective handle sense [ (1.0, v) ];
            let status = Simplex.resolve handle in
            if trace_t0 <> 0 then
              Trace.complete
                ~args:
                  [
                    ("dim", string_of_int i);
                    ( "sense",
                      match sense with Lp.Minimize -> "min" | Lp.Maximize -> "max" );
                  ]
                ~name:"tighten.lp" trace_t0;
            Some status
          end
        in
        let lo =
          match solve Lp.Minimize with
          | Some (Simplex.Optimal { objective; _ }) ->
              Float.max orig.Interval.lo objective
          | Some (Simplex.Infeasible | Simplex.Unbounded) | None ->
              orig.Interval.lo
        in
        let hi =
          match solve Lp.Maximize with
          | Some (Simplex.Optimal { objective; _ }) ->
              Float.min orig.Interval.hi objective
          | Some (Simplex.Infeasible | Simplex.Unbounded) | None ->
              orig.Interval.hi
        in
        (* Guard against float noise producing an inverted interval. *)
        let lo, hi = if lo <= hi then (lo, hi) else (orig.Interval.lo, orig.Interval.hi) in
        if hi -. lo < Interval.width orig -. 1e-12 then incr tightened;
        Interval.make ~lo ~hi)
      feature_box
  in
  Simplex.release handle;
  let stats =
    {
      lps_solved = !lps;
      pivots = (Simplex.counters handle).Simplex.pivots;
      dims_tightened = !tightened;
      dims_skipped = !skipped;
      width_before = Box_domain.mean_width feature_box;
      width_after = Box_domain.mean_width out;
    }
  in
  (out, stats)
