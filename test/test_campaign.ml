(* Campaign runner: verdict equivalence against standalone verify,
   shared-encoding cache accounting, budget degradation, and the JSON
   report round-tripping through the in-tree JSON reader.

   Uses the same hand-built perception network as test_core:
     perception: x -> Dense [[1];[-1]] -> ReLU -> Dense [1,-1]
   with cut 2 exposing features (relu(x), relu(-x)). *)

module Campaign = Dpv_core.Campaign
module Characterizer = Dpv_core.Characterizer
module Verify = Dpv_core.Verify
module Milp = Dpv_linprog.Milp
module Json = Dpv_core.Json
module Network = Dpv_nn.Network
module Layer = Dpv_nn.Layer
module Risk = Dpv_spec.Risk
module Mat = Dpv_tensor.Mat

let perception =
  Network.create ~input_dim:1
    [
      Layer.dense
        ~weights:(Mat.of_rows [| [| 1.0 |]; [| -1.0 |] |])
        ~bias:[| 0.0; 0.0 |];
      Layer.Relu;
      Layer.dense ~weights:(Mat.of_rows [| [| 1.0; -1.0 |] |]) ~bias:[| 0.0 |];
    ]

let cut = 2

let head =
  Network.create ~input_dim:2
    [ Layer.dense ~weights:(Mat.of_rows [| [| 1.0; 0.0 |] |]) ~bias:[| -0.5 |] ]

let characterizer =
  { Characterizer.head; cut; property_name = "x-at-least-half" }

let visited_features =
  Array.init 41 (fun i ->
      let x = -1.0 +. (float_of_int i /. 20.0) in
      Network.forward_upto perception ~cut [| x |])

let risk_ge threshold =
  Risk.make
    ~name:(Printf.sprintf "out>=%g" threshold)
    [ Risk.output_ge 0 threshold ]

let risk_le threshold =
  Risk.make
    ~name:(Printf.sprintf "out<=%g" threshold)
    [ Risk.output_le 0 threshold ]

(* Four queries over two distinct (cut, bounds) keys: the box pair and
   the octagon pair each share one cache entry. *)
let queries () =
  [
    Campaign.query ~label:"reach-box" ~characterizer ~psi:(risk_ge 0.9)
      ~bounds:(Verify.Data_box visited_features) ();
    Campaign.query ~label:"unreach-box" ~characterizer ~psi:(risk_ge 1.5)
      ~bounds:(Verify.Data_box visited_features) ();
    Campaign.query ~label:"neg-oct" ~characterizer ~psi:(risk_le (-0.2))
      ~bounds:(Verify.Data_octagon visited_features) ();
    Campaign.query ~label:"neg-oct-deep" ~characterizer ~psi:(risk_le (-0.8))
      ~bounds:(Verify.Data_octagon visited_features) ();
  ]

(* Unwrap a [Done] outcome; any crash/skip in these clean-run tests is a
   test failure in itself. *)
let done_result (qr : Campaign.query_report) =
  match qr.Campaign.outcome with
  | Campaign.Done r -> r
  | Campaign.Crashed reason ->
      Alcotest.failf "%s: unexpected crash: %s" qr.Campaign.query.Campaign.label
        reason
  | Campaign.Skipped reason ->
      Alcotest.failf "%s: unexpectedly skipped: %s"
        qr.Campaign.query.Campaign.label reason

let work_counts (r : Verify.result) =
  let st = r.Verify.milp_stats in
  [ st.Milp.nodes_explored; st.Milp.lp_solved; st.Milp.pivots ]

let test_campaign_matches_individual_verify () =
  let qs = queries () in
  let report = Campaign.run ~runners:2 ~perception qs in
  Alcotest.(check int) "one report per query" (List.length qs)
    (List.length report.Campaign.query_reports);
  List.iter2
    (fun (q : Campaign.query) (qr : Campaign.query_report) ->
      Alcotest.(check string) "reports keep input order" q.Campaign.label
        qr.Campaign.query.Campaign.label;
      let standalone =
        Verify.verify ~perception ~characterizer:q.Campaign.characterizer
          ~psi:q.Campaign.psi ~bounds:q.Campaign.bounds ()
      in
      Alcotest.(check string)
        (q.Campaign.label ^ ": verdict matches standalone verify")
        (Campaign.verdict_word standalone.Verify.verdict)
        (Campaign.verdict_word (done_result qr).Verify.verdict);
      Alcotest.(check (list int))
        (q.Campaign.label ^ ": nodes, LPs, pivots match standalone verify")
        (work_counts standalone)
        (work_counts (done_result qr)))
    qs report.Campaign.query_reports;
  Alcotest.(check bool) "clean run is not degraded" false
    report.Campaign.degraded

(* A second run on a kept cache completes every query from the memoized
   head rows of the cached prefixes, and must search the same trees. *)
let test_campaign_kept_cache_reproduces () =
  let cache = Campaign.create_cache () in
  let outcomes () =
    List.map
      (fun (qr : Campaign.query_report) ->
        let r = done_result qr in
        (Campaign.verdict_word r.Verify.verdict, work_counts r))
      (Campaign.run ~runners:2 ~cache ~perception (queries ()))
        .Campaign.query_reports
  in
  let first = outcomes () in
  Alcotest.(check (list (pair string (list int))))
    "second run: verdicts, nodes, LPs, pivots" first (outcomes ())

let test_campaign_cache_accounting () =
  let report = Campaign.run ~runners:1 ~perception (queries ()) in
  let cache = report.Campaign.cache in
  Alcotest.(check int) "two distinct (cut, bounds) keys" 2 cache.Campaign.entries;
  Alcotest.(check int) "misses = entries" 2 cache.Campaign.misses;
  Alcotest.(check int) "second query of each pair hits" 2 cache.Campaign.hits;
  let flags =
    List.map
      (fun (qr : Campaign.query_report) -> qr.Campaign.from_cache)
      report.Campaign.query_reports
  in
  Alcotest.(check (list bool)) "first of each key misses, second hits"
    [ false; true; false; true ] flags

let test_campaign_zero_budget_skips_and_degrades () =
  let report = Campaign.run ~runners:1 ~budget_s:0.0 ~perception (queries ()) in
  List.iter
    (fun (qr : Campaign.query_report) ->
      match qr.Campaign.outcome with
      | Campaign.Skipped _ -> ()
      | Campaign.Done r ->
          Alcotest.failf "%s: expected skip under zero budget, got %a"
            qr.Campaign.query.Campaign.label Verify.pp_verdict r.Verify.verdict
      | Campaign.Crashed reason ->
          Alcotest.failf "%s: expected skip under zero budget, got crash: %s"
            qr.Campaign.query.Campaign.label reason)
    report.Campaign.query_reports;
  Alcotest.(check bool) "report is degraded" true report.Campaign.degraded;
  Alcotest.(check int) "all queries counted as skipped"
    (List.length report.Campaign.query_reports)
    report.Campaign.skipped;
  Alcotest.(check int) "nothing crashed" 0 report.Campaign.crashed

let jget label = function
  | Some v -> v
  | None -> Alcotest.failf "json: missing or mistyped %s" label

let mem key j = jget key (Json.member key j)

let test_campaign_json_report () =
  let report = Campaign.run ~runners:2 ~perception (queries ()) in
  let json = Campaign.to_json report in
  match Json.of_string json with
  | Error e -> Alcotest.failf "report is not valid JSON: %s" e
  | Ok j ->
      Alcotest.(check string) "schema tag" "dpv-campaign/2"
        (jget "schema" (Json.to_string (mem "schema" j)));
      Alcotest.(check int) "runners recorded" 2
        (jget "runners" (Json.to_int (mem "runners" j)));
      Alcotest.(check bool) "degraded flag serialized" false
        (match mem "degraded" j with
        | Json.Bool b -> b
        | _ -> Alcotest.fail "degraded is not a bool");
      Alcotest.(check int) "crashed counter serialized" 0
        (jget "crashed" (Json.to_int (mem "crashed" j)));
      Alcotest.(check int) "retried counter serialized" 0
        (jget "retried" (Json.to_int (mem "retried" j)));
      let cache = mem "cache" j in
      Alcotest.(check int) "cache hits serialized" 2
        (jget "hits" (Json.to_int (mem "hits" cache)));
      let qs = jget "queries" (Json.to_list (mem "queries" j)) in
      Alcotest.(check int) "four query records" 4 (List.length qs);
      List.iter
        (fun q ->
          Alcotest.(check string) "outcome is done" "done"
            (jget "outcome" (Json.to_string (mem "outcome" q)));
          let verdict = jget "verdict" (Json.to_string (mem "verdict" q)) in
          Alcotest.(check bool) "verdict is a known word" true
            (List.mem verdict [ "safe"; "unsafe"; "unknown" ]);
          ignore (jget "attempts" (Json.to_int (mem "attempts" q)));
          ignore (jget "nodes" (Json.to_int (mem "nodes" (mem "milp" q)))))
        qs

(* ---- sharding ---- *)

module Journal = Dpv_core.Journal
module Metrics = Dpv_obs.Metrics
module Faults = Dpv_linprog.Faults

let with_temp_file f =
  let path = Filename.temp_file "dpv_test_shard" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_plan_workers () =
  let check label expected got =
    Alcotest.(check (pair int int)) label expected got
  in
  check "runners=1 defers to milp workers" (1, 4)
    (Campaign.plan_workers ~runners:1 ~milp_workers:4 ~pending:10);
  check "plentiful queries: one task each, sequential solves" (4, 1)
    (Campaign.plan_workers ~runners:4 ~milp_workers:1 ~pending:9);
  check "exactly as many queries as runners" (4, 1)
    (Campaign.plan_workers ~runners:4 ~milp_workers:1 ~pending:4);
  check "thin shard: spare domains move inside the MILPs" (2, 2)
    (Campaign.plan_workers ~runners:4 ~milp_workers:1 ~pending:2);
  check "one huge query gets the whole budget" (1, 4)
    (Campaign.plan_workers ~runners:4 ~milp_workers:1 ~pending:1);
  check "empty slice idles gracefully" (1, 1)
    (Campaign.plan_workers ~runners:4 ~milp_workers:1 ~pending:0);
  Alcotest.check_raises "runners=0 rejected"
    (Invalid_argument "Campaign.plan_workers: runners must be >= 1") (fun () ->
      ignore (Campaign.plan_workers ~runners:0 ~milp_workers:1 ~pending:1))

let test_shard_partition_covers () =
  (* The partition is a function of the content digest alone: disjoint,
     exhaustive, and stable under query reordering. *)
  let keys = List.map Campaign.query_key (queries ()) in
  List.iter
    (fun n ->
      let slices =
        List.init n (fun i ->
            List.filter (fun k -> Campaign.shard_index ~shards:n k = i) keys)
      in
      Alcotest.(check int)
        (Printf.sprintf "%d slices cover every query" n)
        (List.length keys)
        (List.fold_left (fun acc s -> acc + List.length s) 0 slices))
    [ 1; 2; 3; 5 ];
  List.iter
    (fun k ->
      Alcotest.(check int) "one shard is the identity partition" 0
        (Campaign.shard_index ~shards:1 k))
    keys

(* The label/verdict multiset is the campaign's answer; sharding must
   preserve it exactly. *)
let answer_word = function
  | Campaign.Done r -> Campaign.verdict_word r.Verify.verdict
  | Campaign.Crashed _ -> "crashed"
  | Campaign.Skipped _ -> "skipped"

let verdict_multiset (report : Campaign.report) =
  List.map
    (fun (qr : Campaign.query_report) ->
      (qr.Campaign.query.Campaign.label, answer_word qr.Campaign.outcome))
    report.Campaign.query_reports
  |> List.sort compare

let entry_multiset entries =
  List.map
    (fun (e : Journal.entry) -> (e.Journal.label, answer_word e.Journal.outcome))
    entries
  |> List.sort compare

(* Counters that are deterministic for sequential solves (runners=1,
   workers=1): exploration and pivot totals must sum exactly across a
   shard partition.  Cache counters are excluded on purpose — shards
   keep separate caches, so a key pair split across shards misses
   twice. *)
let det_counter name snap = Option.value ~default:0 (Metrics.counter_in snap name)

let det_counters snap =
  List.map
    (fun name -> (name, det_counter name snap))
    [ "campaign.queries"; "milp.nodes"; "milp.lps"; "simplex.pivots" ]

(* Run shard [i] of [n] journaling to a temporary file and read the
   journal back, as [dpv merge-journals] does. *)
let journaled_shard ~n qs i =
  with_temp_file @@ fun path ->
  let r = Campaign.run ~runners:1 ~shard:(i, n) ~journal:path ~perception qs in
  Alcotest.(check bool) "shard recorded in report" true
    (r.Campaign.shard <> None);
  match Journal.load_with_meta ~path with
  | Ok x -> x
  | Error e -> Alcotest.failf "shard journal unreadable: %s" e

let merged_json ~entries ~metas =
  match Json.of_string (Campaign.merged_to_json ~entries ~metas) with
  | Ok j -> j
  | Error e -> Alcotest.failf "merged report is not valid JSON: %s" e

let test_shard_merge_equals_unsharded () =
  let qs = queries () in
  let whole = Campaign.run ~runners:1 ~perception qs in
  List.iter
    (fun n ->
      let entries, metas =
        Campaign.merge_journals (List.init n (journaled_shard ~n qs))
      in
      Alcotest.(check bool) "merged report is whole-spec" true
        (Json.member "shard" (merged_json ~entries ~metas) = Some Json.Null);
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "%d-shard merge keeps the verdict multiset" n)
        (verdict_multiset whole) (entry_multiset entries);
      let merged_metrics =
        List.fold_left
          (fun acc (m : Journal.meta) -> Metrics.merge acc m.Journal.metrics)
          Metrics.empty_snapshot metas
      in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%d-shard merge sums deterministic counters" n)
        (det_counters whole.Campaign.metrics)
        (det_counters merged_metrics))
    [ 1; 2; 3; 5 ]

let test_shard_merge_with_crash_injection () =
  let qs = queries () in
  let whole = Campaign.run ~runners:1 ~perception qs in
  let n = 2 in
  (* Crash the first solve of shard 0 only; shard 1 runs clean.  The
     merged journal must carry exactly one crashed query and keep every
     other verdict. *)
  let shard0 =
    Fun.protect ~finally:Faults.disable (fun () ->
        Faults.configure [ ("task-crash", 1) ];
        journaled_shard ~n qs 0)
  in
  let shard1 = journaled_shard ~n qs 1 in
  let entries, metas = Campaign.merge_journals [ shard0; shard1 ] in
  let j = merged_json ~entries ~metas in
  Alcotest.(check (option int)) "exactly one crash" (Some 1)
    (Option.bind (Json.member "crashed" j) Json.to_int);
  Alcotest.(check bool) "merged report degraded" true
    (Json.member "degraded" j = Some (Json.Bool true));
  let merged_ms = entry_multiset entries in
  Alcotest.(check int) "crash shows in the multiset" 1
    (List.length (List.filter (fun (_, v) -> v = "crashed") merged_ms));
  Alcotest.(check int) "no query lost"
    (List.length whole.Campaign.query_reports)
    (List.length entries);
  let whole_ms = verdict_multiset whole in
  List.iter
    (fun entry ->
      Alcotest.(check bool) "surviving verdicts match the unsharded run" true
        (List.mem entry whole_ms))
    (List.filter (fun (_, v) -> v <> "crashed") merged_ms)

let test_empty_shard_report_valid () =
  (* A slice can be empty (fewer queries than shards): the report must
     be a valid, non-degraded dpv-campaign/2 document. *)
  let qs = queries () in
  let n = 5 in
  let used =
    List.map (fun q -> Campaign.shard_index ~shards:n (Campaign.query_key q)) qs
  in
  let empty_slice =
    match List.find_opt (fun i -> not (List.mem i used)) (List.init n Fun.id) with
    | Some i -> i
    | None -> Alcotest.fail "4 queries cannot fill 5 shards"
  in
  let report =
    Campaign.run ~runners:2 ~shard:(empty_slice, n) ~perception qs
  in
  Alcotest.(check int) "no query reports" 0
    (List.length report.Campaign.query_reports);
  Alcotest.(check bool) "empty is not degraded" false report.Campaign.degraded;
  (match Json.of_string (Campaign.to_json report) with
  | Ok j ->
      Alcotest.(check string) "schema tag survives" "dpv-campaign/2"
        (jget "schema" (Json.to_string (mem "schema" j)));
      Alcotest.(check int) "empty queries array" 0
        (List.length (jget "queries" (Json.to_list (mem "queries" j))))
  | Error e -> Alcotest.failf "empty report is not valid JSON: %s" e);
  (* And run with an empty query list outright. *)
  let report = Campaign.run ~runners:2 ~shard:(0, 2) ~perception [] in
  Alcotest.(check bool) "no queries at all is fine" false
    report.Campaign.degraded

let test_shard_journals_merge () =
  let qs = queries () in
  let whole = Campaign.run ~runners:1 ~perception qs in
  with_temp_file @@ fun path0 ->
  with_temp_file @@ fun path1 ->
  let r0 = Campaign.run ~runners:1 ~shard:(0, 2) ~journal:path0 ~perception qs in
  let r1 = Campaign.run ~runners:1 ~shard:(1, 2) ~journal:path1 ~perception qs in
  let load path =
    match Journal.load_with_meta ~path with
    | Ok x -> x
    | Error e -> Alcotest.failf "shard journal unreadable: %s" e
  in
  let (entries0, metas0) = load path0 and (entries1, metas1) = load path1 in
  (* Meta round-trip: exactly one trailer, carrying the shard identity
     and the report's metrics snapshot. *)
  Alcotest.(check int) "one meta trailer per shard journal" 1
    (List.length metas0);
  (match metas0 with
  | [ m ] ->
      Alcotest.(check (pair int int)) "meta identifies the slice" (0, 2)
        (m.Journal.shard, m.Journal.shard_count);
      Alcotest.(check (list (pair string int)))
        "meta metrics round-trip the report snapshot"
        (det_counters r0.Campaign.metrics)
        (det_counters m.Journal.metrics)
  | _ -> Alcotest.fail "expected exactly one meta");
  (* Plain load skips the trailer and still resumes. *)
  (match Journal.load ~path:path0 with
  | Ok entries ->
      Alcotest.(check int) "load skips the meta line"
        (List.length entries0) (List.length entries)
  | Error e -> Alcotest.failf "plain load rejects a sharded journal: %s" e);
  let entries, metas =
    Campaign.merge_journals [ (entries0, metas0); (entries1, metas1) ]
  in
  Alcotest.(check int) "merged journal covers the whole spec"
    (List.length qs) (List.length entries);
  Alcotest.(check int) "both trailers collected" 2 (List.length metas);
  let expected_exit =
    let ms = verdict_multiset whole in
    let has v = List.exists (fun (_, w) -> w = v) ms in
    if has "unsafe" then 1
    else if has "crashed" || has "skipped" then 4
    else if has "unknown" then 2
    else 0
  in
  Alcotest.(check int) "worst exit code matches the unsharded precedence"
    expected_exit
    (Campaign.worst_exit_code entries);
  (* The merged entry multiset matches the unsharded answer. *)
  Alcotest.(check (list (pair string string)))
    "merged journal verdicts equal the unsharded run" (verdict_multiset whole)
    (entry_multiset entries);
  ignore (r1 : Campaign.report);
  (* merged_to_json is a valid dpv-campaign/2 document with summed
     metrics. *)
  match Json.of_string (Campaign.merged_to_json ~entries ~metas) with
  | Error e -> Alcotest.failf "merged report is not valid JSON: %s" e
  | Ok j ->
      Alcotest.(check string) "merged schema tag" "dpv-campaign/2"
        (jget "schema" (Json.to_string (mem "schema" j)));
      Alcotest.(check int) "merged query records" (List.length qs)
        (List.length (jget "queries" (Json.to_list (mem "queries" j))));
      let counters = mem "counters" (mem "metrics" j) in
      Alcotest.(check int) "merged milp.nodes sums the shards"
        (det_counter "milp.nodes" whole.Campaign.metrics)
        (jget "milp.nodes" (Json.to_int (mem "milp.nodes" counters)))

let test_worst_exit_code_precedence () =
  let entry outcome =
    {
      Journal.key = Digest.to_hex (Digest.string (Campaign.outcome_word outcome));
      label = "x";
      outcome;
      attempts = 1;
      dense_retry = false;
      deadline_retry = false;
    }
  in
  Alcotest.(check int) "empty journal exits 0" 0 (Campaign.worst_exit_code []);
  Alcotest.(check int) "crash alone exits 4" 4
    (Campaign.worst_exit_code [ entry (Campaign.Crashed "boom") ]);
  Alcotest.(check int) "skip alone exits 4" 4
    (Campaign.worst_exit_code [ entry (Campaign.Skipped "budget") ])

let tests =
  [
    Alcotest.test_case "campaign matches individual verify" `Quick
      test_campaign_matches_individual_verify;
    Alcotest.test_case "cache accounting" `Quick test_campaign_cache_accounting;
    Alcotest.test_case "kept cache reproduces a run" `Quick
      test_campaign_kept_cache_reproduces;
    Alcotest.test_case "zero budget skips and degrades" `Quick
      test_campaign_zero_budget_skips_and_degrades;
    Alcotest.test_case "json report" `Quick test_campaign_json_report;
    Alcotest.test_case "plan_workers splits the domain budget" `Quick
      test_plan_workers;
    Alcotest.test_case "shard partition covers and is disjoint" `Quick
      test_shard_partition_covers;
    Alcotest.test_case "shard merge equals unsharded (n=1,2,3,5)" `Quick
      test_shard_merge_equals_unsharded;
    Alcotest.test_case "shard merge with crash injection" `Quick
      test_shard_merge_with_crash_injection;
    Alcotest.test_case "empty shard yields a valid report" `Quick
      test_empty_shard_report_valid;
    Alcotest.test_case "shard journals merge to the whole campaign" `Quick
      test_shard_journals_merge;
    Alcotest.test_case "worst exit code precedence" `Quick
      test_worst_exit_code_precedence;
  ]
