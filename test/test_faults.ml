(* Deterministic fault injection: spec parsing and fire-on-nth
   semantics, the simplex recovery paths (dense fallback after pivot
   corruption / singular refactorization / escaped numerical trouble),
   and the campaign-level retry ladder, crash isolation, journal
   resilience and resume.

   Every test configures faults programmatically and disarms them in a
   [Fun.protect] finalizer, so a failing assertion cannot leak an armed
   harness into later tests.  DPV_FAULTS is never read here (only the
   executables call [init_from_env]), which keeps `dune runtest`
   deterministic regardless of the environment.

   Campaign fixtures use box bounds: with no LP solves in the shared
   encoding phase, every injected occurrence lands inside a per-query
   solve, which keeps the expected outcome of each spec obvious. *)

module Faults = Dpv_linprog.Faults
module Lp = Dpv_linprog.Lp
module Simplex = Dpv_linprog.Simplex
module Milp = Dpv_linprog.Milp
module Clock = Dpv_linprog.Clock
module Retry = Dpv_core.Retry
module Campaign = Dpv_core.Campaign
module Characterizer = Dpv_core.Characterizer
module Journal = Dpv_core.Journal
module Verify = Dpv_core.Verify
module Network = Dpv_nn.Network
module Layer = Dpv_nn.Layer
module Risk = Dpv_spec.Risk
module Mat = Dpv_tensor.Mat
module Rng = Dpv_tensor.Rng

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let with_faults ?seed plan f =
  Fun.protect ~finally:Faults.disable (fun () ->
      Faults.configure ?seed plan;
      f ())

let with_temp_file f =
  let path = Filename.temp_file "dpv_test_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ---- spec parsing and fire semantics ---- *)

let test_parse_spec () =
  (match Faults.parse_spec "seed=7,task-crash=2,deadline-jitter=1" with
  | Ok (7, [ (Faults.Task_crash, 2); (Faults.Deadline_jitter, 1) ]) -> ()
  | Ok _ -> Alcotest.fail "parsed into the wrong plan"
  | Error e -> Alcotest.failf "valid spec rejected: %s" e);
  (match Faults.parse_spec "lp-trouble=1" with
  | Ok (0, [ (Faults.Lp_trouble, 1) ]) -> ()
  | _ -> Alcotest.fail "seed should default to 0");
  let expect_error spec =
    match Faults.parse_spec spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "spec %S should be rejected" spec
  in
  expect_error "bogus-site=1";
  expect_error "task-crash=0";
  expect_error "task-crash=x";
  expect_error "task-crash"

let test_disabled_is_inert () =
  Faults.disable ();
  Alcotest.(check bool) "disabled" false (Faults.enabled ());
  for _ = 1 to 5 do
    Alcotest.(check bool) "never fires" false (Faults.fire Faults.Lp_trouble)
  done;
  Alcotest.(check int) "disabled path does not even count occurrences" 0
    (Faults.occurrences Faults.Lp_trouble);
  Alcotest.(check string) "describe" "disabled" (Faults.describe ())

let test_fires_on_nth_once () =
  with_faults ~seed:3 [ (Faults.Task_crash, 2) ] (fun () ->
      let fires = List.init 4 (fun _ -> Faults.fire Faults.Task_crash) in
      Alcotest.(check (list bool)) "fires exactly on the 2nd occurrence"
        [ false; true; false; false ] fires;
      Alcotest.(check int) "fired once" 1 (Faults.fired Faults.Task_crash);
      Alcotest.(check int) "all occurrences counted" 4
        (Faults.occurrences Faults.Task_crash);
      Alcotest.(check bool) "other sites untouched" false
        (Faults.fire Faults.Journal_crash))

(* ---- simplex recovery ---- *)

(* Deterministic feasible bounded LP large enough that one cold solve
   accumulates more pivots than the refactorization period, so the
   periodic refactorization (and its injection site) is reached inside
   a single [resolve].  All-positive Le rows with positive rhs keep the
   origin feasible. *)
let big_lp () =
  let rng = Rng.create 42 in
  let m = ref (Lp.create ()) in
  let vars =
    Array.init 120 (fun _ ->
        let model, v =
          Lp.add_var ~lo:0.0 ~up:(Rng.uniform rng ~lo:1.0 ~hi:10.0) !m
        in
        m := model;
        v)
  in
  for _ = 1 to 90 do
    let terms =
      List.init 6 (fun _ ->
          (Rng.uniform rng ~lo:0.1 ~hi:3.0, Rng.pick rng vars))
    in
    m := Lp.add_constraint !m terms Lp.Le (Rng.uniform rng ~lo:5.0 ~hi:20.0)
  done;
  let obj =
    Array.to_list
      (Array.map (fun v -> (Rng.uniform rng ~lo:(-1.0) ~hi:2.0, v)) vars)
  in
  m := Lp.set_objective !m Lp.Maximize obj;
  (!m, vars.(0))

let check_status_agrees label got reference =
  match (got, reference) with
  | Simplex.Optimal { objective = x; _ }, Simplex.Optimal { objective = y; _ }
    ->
      Alcotest.(check (float 1e-6)) (label ^ ": objective agrees") y x
  | Simplex.Infeasible, Simplex.Infeasible
  | Simplex.Unbounded, Simplex.Unbounded ->
      ()
  | _ -> Alcotest.failf "%s: statuses disagree" label

(* Silent pivot corruption must be caught by the post-solve residual
   check and rescued by the dense fallback, and the handle must stay
   usable afterwards. *)
let test_pivot_corruption_rescued () =
  let model, _ = big_lp () in
  let reference = Simplex.solve_dense model in
  let handle = Simplex.create model in
  with_faults ~seed:11 [ (Faults.Pivot_corrupt, 1) ] (fun () ->
      check_status_agrees "corrupted solve" (Simplex.resolve handle) reference;
      Alcotest.(check int) "the corruption actually happened" 1
        (Faults.fired Faults.Pivot_corrupt);
      let c = Simplex.counters handle in
      Alcotest.(check bool) "the dense fallback rescued the solve" true
        (c.Simplex.fallbacks >= 1));
  check_status_agrees "post-recovery resolve" (Simplex.resolve handle)
    reference

(* Regression for the handle-state fix: a singular refactorization
   (reached by letting warm re-solves accumulate pivots past the
   refactorization period) is rescued by the dense fallback, and
   because the rescue resets the stored basis, resolving the SAME
   handle again must agree with the stateless dense solver on the
   current bounds. *)
let test_singular_refactorization_recovery () =
  let model0, _ = big_lp () in
  let handle = Simplex.create model0 in
  ignore (Simplex.resolve handle);
  let flip_set = List.init 40 Fun.id in
  (* mirror of the bounds currently loaded into the handle *)
  let current = ref model0 in
  with_faults ~seed:5 [ (Faults.Refactor_singular, 1) ] (fun () ->
      let round = ref 0 in
      while Faults.fired Faults.Refactor_singular = 0 && !round < 200 do
        incr round;
        let changes =
          List.map
            (fun v ->
              let lo, up0 = Lp.var_bounds model0 v in
              let up =
                if (!round + v) mod 2 = 0 then up0
                else Option.map (fun u -> u *. 0.6) up0
              in
              (v, lo, up))
            flip_set
        in
        List.iter
          (fun (v, lo, up) ->
            current := Lp.set_var_bounds !current v ~lo ~up)
          changes;
        ignore (Simplex.resolve ~bound_changes:changes handle)
      done;
      Alcotest.(check int) "the injected singularity was reached" 1
        (Faults.fired Faults.Refactor_singular);
      let c = Simplex.counters handle in
      Alcotest.(check bool) "rescued by the dense fallback" true
        (c.Simplex.fallbacks >= 1));
  (* The rescue reset the basis; the next resolve must agree with a
     stateless dense solve of the same current bounds. *)
  check_status_agrees "post-recovery resolve" (Simplex.resolve handle)
    (Simplex.solve_dense !current)

(* The lp-trouble site fires outside the engine's internal rescue, so
   the exception must escape [resolve] — that is the contract the
   [Retry] ladder builds on — and the handle must still answer
   correctly on the next call. *)
let test_lp_trouble_escapes_resolve () =
  let model, _ = big_lp () in
  let handle = Simplex.create model in
  with_faults [ (Faults.Lp_trouble, 1) ] (fun () ->
      (match Simplex.resolve handle with
      | exception Simplex.Numerical_trouble _ -> ()
      | _ -> Alcotest.fail "expected Numerical_trouble to escape resolve");
      check_status_agrees "handle survives the escape"
        (Simplex.resolve handle) (Simplex.solve_dense model))

(* ---- campaign-level ladder, isolation, journaling ---- *)

let perception =
  Network.create ~input_dim:1
    [
      Layer.dense
        ~weights:(Mat.of_rows [| [| 1.0 |]; [| -1.0 |] |])
        ~bias:[| 0.0; 0.0 |];
      Layer.Relu;
      Layer.dense ~weights:(Mat.of_rows [| [| 1.0; -1.0 |] |]) ~bias:[| 0.0 |];
    ]

let characterizer =
  {
    Characterizer.head =
      Network.create ~input_dim:2
        [
          Layer.dense
            ~weights:(Mat.of_rows [| [| 1.0; 0.0 |] |])
            ~bias:[| -0.5 |];
        ];
    cut = 2;
    property_name = "x-at-least-half";
  }

let visited_features =
  Array.init 41 (fun i ->
      let x = -1.0 +. (float_of_int i /. 20.0) in
      Network.forward_upto perception ~cut:2 [| x |])

let risk_ge threshold =
  Risk.make
    ~name:(Printf.sprintf "out>=%g" threshold)
    [ Risk.output_ge 0 threshold ]

let risk_le threshold =
  Risk.make
    ~name:(Printf.sprintf "out<=%g" threshold)
    [ Risk.output_le 0 threshold ]

let box_queries () =
  List.map
    (fun (label, psi) ->
      Campaign.query ~label ~characterizer ~psi
        ~bounds:(Verify.Data_box visited_features) ())
    [
      ("reach", risk_ge 0.9);
      ("unreach", risk_ge 1.5);
      ("neg", risk_le (-0.2));
      ("neg-deep", risk_le (-0.8));
    ]

let outcome_verdicts (report : Campaign.report) =
  List.map
    (fun (qr : Campaign.query_report) ->
      match qr.Campaign.outcome with
      | Campaign.Done r -> Campaign.verdict_word r.Verify.verdict
      | Campaign.Crashed _ -> "crashed"
      | Campaign.Skipped _ -> "skipped")
    report.Campaign.query_reports

let clean_verdicts () =
  Faults.disable ();
  outcome_verdicts (Campaign.run ~runners:1 ~perception (box_queries ()))

(* Escaped numerical trouble earns one dense re-solve: same verdicts as
   a clean run, with the first query flagged as retried. *)
let test_campaign_dense_retry () =
  let clean = clean_verdicts () in
  let report =
    with_faults [ (Faults.Lp_trouble, 1) ] (fun () ->
        Campaign.run ~runners:1 ~perception (box_queries ()))
  in
  Alcotest.(check (list string)) "verdicts match the clean run" clean
    (outcome_verdicts report);
  Alcotest.(check int) "exactly one query retried" 1 report.Campaign.retried;
  Alcotest.(check bool) "retry is not degradation" false
    report.Campaign.degraded;
  (* Which query draws the injected occurrence depends on pool
     scheduling order; what matters is that exactly one query took the
     dense rung with exactly one extra attempt. *)
  match
    List.filter
      (fun (qr : Campaign.query_report) -> qr.Campaign.attempts > 1)
      report.Campaign.query_reports
  with
  | [ qr ] ->
      Alcotest.(check bool) "the retried query took the dense rung" true
        qr.Campaign.dense_retry;
      Alcotest.(check int) "two attempts" 2 qr.Campaign.attempts
  | l -> Alcotest.failf "expected exactly one retried query, got %d"
           (List.length l)

(* An early deadline expiry with campaign budget remaining earns one
   re-carved re-solve. *)
let test_campaign_deadline_retry () =
  let clean = clean_verdicts () in
  let report =
    with_faults [ (Faults.Deadline_jitter, 2) ] (fun () ->
        Campaign.run ~runners:1 ~budget_s:60.0 ~perception (box_queries ()))
  in
  Alcotest.(check (list string)) "verdicts match the clean run" clean
    (outcome_verdicts report);
  Alcotest.(check int) "exactly one query retried" 1 report.Campaign.retried;
  Alcotest.(check bool) "retry is not degradation" false
    report.Campaign.degraded;
  Alcotest.(check bool) "some query took the deadline rung" true
    (List.exists
       (fun (qr : Campaign.query_report) -> qr.Campaign.deadline_retry)
       report.Campaign.query_reports)

(* The deadline rung re-carves the query's own limit, not the whole
   campaign remainder: a retried unit stays within its time slice. *)
let test_deadline_retry_keeps_query_limit () =
  let limits = ref [] in
  let solve (opts : Milp.options) =
    limits := opts.Milp.time_limit_s :: !limits;
    {
      Verify.verdict =
        (if List.length !limits = 1 then Verify.Unknown Verify.deadline_reason
         else Verify.Safe { conditional = false });
      milp_stats = Milp.empty_stats;
      encoding = "";
      num_binaries = 0;
      wall_time_s = 0.0;
    }
  in
  let _, t =
    Retry.solve
      ~options:{ Verify.default_milp_options with Milp.time_limit_s = Some 0.5 }
      ~deadline:(Clock.deadline_after (Some 60.0))
      solve
  in
  Alcotest.(check bool) "took the deadline rung" true t.Retry.deadline_retry;
  match List.rev !limits with
  | [ _; Some retry ] when retry <= 0.5 -> ()
  | [ _; retry ] ->
      Alcotest.failf "the retry got %s, not at most the query's 0.5 s"
        (match retry with
        | Some s -> Printf.sprintf "%g s" s
        | None -> "no limit")
  | l -> Alcotest.failf "expected two attempts, got %d" (List.length l)

(* A query task that dies must yield one [Crashed] record while every
   other query still gets its clean-run verdict. *)
let test_campaign_crash_isolation () =
  let clean = clean_verdicts () in
  let report =
    with_faults [ (Faults.Task_crash, 2) ] (fun () ->
        Campaign.run ~runners:1 ~perception (box_queries ()))
  in
  Alcotest.(check int) "one crash" 1 report.Campaign.crashed;
  Alcotest.(check bool) "crash degrades the report" true
    report.Campaign.degraded;
  List.iteri
    (fun i (qr : Campaign.query_report) ->
      let expected = List.nth clean i in
      match qr.Campaign.outcome with
      | Campaign.Crashed reason ->
          Alcotest.(check bool) "crash reason names the injection" true
            (contains ~needle:"injected task crash" reason)
      | Campaign.Done r ->
          Alcotest.(check string)
            (qr.Campaign.query.Campaign.label ^ ": survivors keep verdicts")
            expected
            (Campaign.verdict_word r.Verify.verdict)
      | Campaign.Skipped why ->
          Alcotest.failf "unexpected skip: %s" why)
    report.Campaign.query_reports

(* A shared-encoding build that raises (phase 1 runs before per-task
   isolation) must be charged to the query that triggered it —
   recorded as [Crashed "encoding failed: ..."] — while every other
   query still completes.  Driven by a query whose cut index is out of
   range, which makes the suffix slice raise during the build. *)
let test_campaign_phase1_crash_isolation () =
  Faults.disable ();
  let bad =
    Campaign.query ~label:"bad-cut"
      ~characterizer:{ characterizer with Characterizer.cut = 99 }
      ~psi:(risk_ge 0.9)
      ~bounds:(Verify.Data_box visited_features) ()
  in
  let good =
    Campaign.query ~label:"good" ~characterizer ~psi:(risk_ge 1.5)
      ~bounds:(Verify.Data_box visited_features) ()
  in
  let report = Campaign.run ~runners:1 ~perception [ bad; good ] in
  Alcotest.(check int) "one crash" 1 report.Campaign.crashed;
  Alcotest.(check bool) "crash degrades the report" true
    report.Campaign.degraded;
  match report.Campaign.query_reports with
  | [ first; second ] -> (
      (match first.Campaign.outcome with
      | Campaign.Crashed reason ->
          Alcotest.(check bool) "reason names the encoding phase" true
            (contains ~needle:"encoding failed" reason)
      | _ -> Alcotest.fail "the build-triggering query should crash");
      match second.Campaign.outcome with
      | Campaign.Done _ -> ()
      | _ -> Alcotest.fail "the healthy query should still complete")
  | _ -> Alcotest.fail "expected two query reports"

(* A failed journal write is counted, not fatal: the campaign finishes
   and a later successful append rewrites the complete journal. *)
let test_campaign_journal_write_failure () =
  with_temp_file (fun path ->
      let report =
        with_faults [ (Faults.Journal_crash, 1) ] (fun () ->
            Campaign.run ~runners:1 ~journal:path ~perception (box_queries ()))
      in
      Alcotest.(check int) "one journal write failure" 1
        report.Campaign.journal_write_failures;
      Alcotest.(check int) "no crashes" 0 report.Campaign.crashed;
      match Journal.load ~path with
      | Error e -> Alcotest.failf "final journal unreadable: %s" e
      | Ok entries ->
          Alcotest.(check int)
            "later appends rewrote the full journal" 4 (List.length entries))

(* Journal round-trip and resume: answer the first two queries, kill
   the campaign (conceptually), resume over all four — the two settled
   verdicts are replayed bit-identically and only the rest solve. *)
let test_campaign_journal_resume () =
  Faults.disable ();
  let qs = box_queries () in
  let clean = clean_verdicts () in
  with_temp_file (fun path ->
      let partial =
        Campaign.run ~runners:1 ~journal:path ~perception
          (List.filteri (fun i _ -> i < 2) qs)
      in
      Alcotest.(check int) "partial run journaled cleanly" 0
        partial.Campaign.journal_write_failures;
      let entries =
        match Journal.load ~path with
        | Ok es -> es
        | Error e -> Alcotest.failf "cannot load journal: %s" e
      in
      Alcotest.(check int) "two settled entries" 2 (List.length entries);
      let resumed =
        Campaign.run ~runners:1 ~journal:path ~resume:entries ~perception qs
      in
      Alcotest.(check int) "two queries replayed" 2 resumed.Campaign.resumed;
      Alcotest.(check (list bool)) "replayed queries are flagged"
        [ true; true; false; false ]
        (List.map
           (fun (qr : Campaign.query_report) -> qr.Campaign.from_journal)
           resumed.Campaign.query_reports);
      Alcotest.(check (list string)) "resumed verdicts match a clean full run"
        clean (outcome_verdicts resumed);
      Alcotest.(check bool) "resume is not degradation" false
        resumed.Campaign.degraded;
      match Journal.load ~path with
      | Error e -> Alcotest.failf "post-resume journal unreadable: %s" e
      | Ok es ->
          Alcotest.(check int) "journal now describes the whole campaign" 4
            (List.length es))

let tests =
  [
    Alcotest.test_case "parse_spec" `Quick test_parse_spec;
    Alcotest.test_case "disabled harness is inert" `Quick
      test_disabled_is_inert;
    Alcotest.test_case "fires on the nth occurrence, once" `Quick
      test_fires_on_nth_once;
    Alcotest.test_case "pivot corruption rescued by residual check" `Quick
      test_pivot_corruption_rescued;
    Alcotest.test_case "singular refactorization recovery" `Quick
      test_singular_refactorization_recovery;
    Alcotest.test_case "lp-trouble escapes resolve" `Quick
      test_lp_trouble_escapes_resolve;
    Alcotest.test_case "campaign dense retry" `Quick test_campaign_dense_retry;
    Alcotest.test_case "campaign deadline retry" `Quick
      test_campaign_deadline_retry;
    Alcotest.test_case "deadline retry keeps the query's limit" `Quick
      test_deadline_retry_keeps_query_limit;
    Alcotest.test_case "campaign crash isolation" `Quick
      test_campaign_crash_isolation;
    Alcotest.test_case "campaign phase-1 crash isolation" `Quick
      test_campaign_phase1_crash_isolation;
    Alcotest.test_case "campaign journal write failure" `Quick
      test_campaign_journal_write_failure;
    Alcotest.test_case "campaign journal resume" `Quick
      test_campaign_journal_resume;
  ]
