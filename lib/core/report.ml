let pp_verdict_line fmt (case : Workflow.case_report) =
  Format.fprintf fmt "[%s | %s | %s] %a (%.2fs, %s)" case.property_name
    case.psi.Dpv_spec.Risk.name
    (Workflow.strategy_name case.strategy)
    Verify.pp_verdict case.result.Verify.verdict case.result.Verify.wall_time_s
    case.result.Verify.encoding

let pp_milp_stats fmt (stats : Dpv_linprog.Milp.stats) =
  let workers = Array.length stats.Dpv_linprog.Milp.per_worker_nodes in
  Format.fprintf fmt
    "milp: %d nodes, %d LPs (%.3fs in LP, %d pivots, %d warm / %d cold starts)"
    stats.Dpv_linprog.Milp.nodes_explored stats.Dpv_linprog.Milp.lp_solved
    stats.Dpv_linprog.Milp.lp_time_s stats.Dpv_linprog.Milp.pivots
    stats.Dpv_linprog.Milp.warm_starts stats.Dpv_linprog.Milp.cold_starts;
  if stats.Dpv_linprog.Milp.fallbacks > 0 then
    Format.fprintf fmt ", %d dense fallbacks" stats.Dpv_linprog.Milp.fallbacks;
  if
    stats.Dpv_linprog.Milp.absint_phase_fixes > 0
    || stats.Dpv_linprog.Milp.absint_prunes > 0
  then
    Format.fprintf fmt ", absint: %d phase fixes / %d prunes"
      stats.Dpv_linprog.Milp.absint_phase_fixes
      stats.Dpv_linprog.Milp.absint_prunes;
  if stats.Dpv_linprog.Milp.absint_incr_hits > 0 then
    Format.fprintf fmt
      ", incremental: %d hits, %d layers propagated / %d saved"
      stats.Dpv_linprog.Milp.absint_incr_hits
      stats.Dpv_linprog.Milp.absint_layers_propagated
      stats.Dpv_linprog.Milp.absint_layers_saved;
  if workers > 1 then
    Format.fprintf fmt
      "@,solver: %d workers, nodes/worker [%s], %d steals, max queue depth %d"
      workers
      (String.concat "; "
         (Array.to_list
            (Array.map string_of_int stats.Dpv_linprog.Milp.per_worker_nodes)))
      stats.Dpv_linprog.Milp.steals stats.Dpv_linprog.Milp.max_queue_depth

(* Humanize an integer-nanosecond quantity for terminal output. *)
let pp_ns fmt ns =
  if ns >= 1_000_000_000 then Format.fprintf fmt "%.2fs" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then
    Format.fprintf fmt "%.2fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Format.fprintf fmt "%.1fus" (float_of_int ns /. 1e3)
  else Format.fprintf fmt "%dns" ns

let pp_metrics fmt (snap : Dpv_obs.Metrics.snapshot) =
  let name_width =
    List.fold_left
      (fun acc (n, _) -> Stdlib.max acc (String.length n))
      0
      (snap.Dpv_obs.Metrics.snap_counters @ snap.Dpv_obs.Metrics.snap_gauges
      @ snap.Dpv_obs.Metrics.snap_rates)
    |> Stdlib.max 8
  in
  Format.fprintf fmt "@[<v>metrics (dpv-metrics/1):";
  List.iter
    (fun (name, v) -> Format.fprintf fmt "@,  %-*s %d" name_width name v)
    snap.Dpv_obs.Metrics.snap_counters;
  List.iter
    (fun (name, v) ->
      Format.fprintf fmt "@,  %-*s %d (high water)" name_width name v)
    snap.Dpv_obs.Metrics.snap_gauges;
  List.iter
    (fun (name, v) ->
      (* Sampled gauges publish milli-units (a rate of 1500 is 1.5/s). *)
      Format.fprintf fmt "@,  %-*s %.3f (sampled)" name_width name
        (float_of_int v /. 1000.0))
    snap.Dpv_obs.Metrics.snap_rates;
  List.iter
    (fun (name, h) ->
      let count = h.Dpv_obs.Metrics.count in
      Format.fprintf fmt "@,  %-*s %d obs" name_width name count;
      if count > 0 then begin
        let q p =
          int_of_float (Dpv_obs.Metrics.quantile_of_hist h ~q:p)
        in
        Format.fprintf fmt ", mean %a, p50 %a / p90 %a / p99 %a"
          pp_ns (h.Dpv_obs.Metrics.sum / count)
          pp_ns (q 0.5) pp_ns (q 0.9) pp_ns (q 0.99)
      end)
    snap.Dpv_obs.Metrics.snap_histograms;
  Format.fprintf fmt "@]"

let pp_case fmt (case : Workflow.case_report) =
  Format.fprintf fmt
    "@[<v>%a@,\
     characterizer: train acc %.3f (perfect=%b, %d epochs), val acc %.3f@,\
     statistical table:@,%a@,\
     omitted-and-unsafe points (footnote 4): %d@,\
     %a@]"
    pp_verdict_line case case.characterizer_report.Characterizer.train_accuracy
    case.characterizer_report.Characterizer.perfect_on_train
    case.characterizer_report.Characterizer.epochs_run
    case.characterizer_val_accuracy Statistical.pp case.table
    case.omitted_unsafe pp_milp_stats case.result.Verify.milp_stats

let pp_campaign fmt (report : Campaign.report) =
  Format.fprintf fmt "@[<v>campaign: %d queries, %d runner%s%s%s%s@,"
    (List.length report.Campaign.query_reports)
    report.Campaign.runners
    (if report.Campaign.runners = 1 then "" else "s")
    (match report.Campaign.shard with
    | None -> ""
    | Some (i, n) -> Printf.sprintf ", shard %d/%d" i n)
    (match report.Campaign.budget_s with
    | None -> ""
    | Some s -> Printf.sprintf ", budget %.1fs" s)
    (if report.Campaign.degraded then " -- DEGRADED" else "");
  List.iter
    (fun (qr : Campaign.query_report) ->
      let label = qr.Campaign.query.Campaign.label in
      match qr.Campaign.outcome with
      | Campaign.Done r ->
          let flags =
            (if qr.Campaign.from_cache then [ "cached encoding" ] else [])
            @ (if qr.Campaign.from_journal then [ "from journal" ] else [])
            @ (if qr.Campaign.dense_retry then [ "dense retry" ] else [])
            @ if qr.Campaign.deadline_retry then [ "deadline retry" ] else []
          in
          Format.fprintf fmt "  [%s] %a (%.2fs%s, %d nodes)@," label
            Verify.pp_verdict r.Verify.verdict r.Verify.wall_time_s
            (match flags with
            | [] -> ""
            | l -> ", " ^ String.concat ", " l)
            r.Verify.milp_stats.Dpv_linprog.Milp.nodes_explored
      | Campaign.Crashed reason ->
          Format.fprintf fmt "  [%s] CRASHED: %s@," label reason
      | Campaign.Skipped reason ->
          Format.fprintf fmt "  [%s] SKIPPED: %s@," label reason)
    report.Campaign.query_reports;
  if
    report.Campaign.crashed > 0 || report.Campaign.skipped > 0
    || report.Campaign.retried > 0 || report.Campaign.resumed > 0
    || report.Campaign.journal_write_failures > 0
  then
    Format.fprintf fmt
      "outcomes: %d crashed, %d skipped, %d retried, %d resumed, %d journal \
       write failure%s@,"
      report.Campaign.crashed report.Campaign.skipped report.Campaign.retried
      report.Campaign.resumed report.Campaign.journal_write_failures
      (if report.Campaign.journal_write_failures = 1 then "" else "s");
  Format.fprintf fmt
    "encoding cache: %d entr%s, %d hit%s, %d miss%s@,total wall %.2fs@]"
    report.Campaign.cache.Campaign.entries
    (if report.Campaign.cache.Campaign.entries = 1 then "y" else "ies")
    report.Campaign.cache.Campaign.hits
    (if report.Campaign.cache.Campaign.hits = 1 then "" else "s")
    report.Campaign.cache.Campaign.misses
    (if report.Campaign.cache.Campaign.misses = 1 then "" else "es")
    report.Campaign.total_wall_s

let column_width = 16

let pad s =
  if String.length s >= column_width then s
  else s ^ String.make (column_width - String.length s) ' '

let table_row cells = String.concat "| " (List.map pad cells)

let rule () = String.make 78 '-'
