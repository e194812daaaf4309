(* Observability layer: metrics registry semantics (counters, gauges,
   log-scale histogram buckets, snapshot diffs), span tracing (nesting,
   pool-worker tracks, Chrome trace_event JSON validity), the disabled
   path (zero events buffered), and the metrics snapshot embedded in a
   campaign report agreeing exactly with the legacy per-query
   [Milp.stats] aggregates.

   Tracing is armed programmatically and disarmed in a [Fun.protect]
   finalizer, mirroring the fault-injection tests: DPV_TRACE is never
   read here, so `dune runtest` stays deterministic. *)

module Metrics = Dpv_obs.Metrics
module Trace = Dpv_obs.Trace
module Mclock = Dpv_obs.Mclock
module Json = Dpv_core.Json
module Campaign = Dpv_core.Campaign
module Journal = Dpv_core.Journal
module Verify = Dpv_core.Verify
module Characterizer = Dpv_core.Characterizer
module Milp = Dpv_linprog.Milp
module Pool = Dpv_linprog.Pool
module Network = Dpv_nn.Network
module Layer = Dpv_nn.Layer
module Risk = Dpv_spec.Risk
module Mat = Dpv_tensor.Mat

let with_trace f =
  Fun.protect ~finally:Trace.disable (fun () ->
      Trace.configure ();
      f ())

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---- monotonic clock ---- *)

let test_mclock_monotonic () =
  let prev = ref (Mclock.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Mclock.now_ns () in
    if t < !prev then
      Alcotest.failf "clock went backwards: %d after %d" t !prev;
    prev := t
  done

(* ---- metrics ---- *)

let test_counter_exact () =
  let c = Metrics.counter "test.obs.counter" in
  let base = Metrics.counter_value c in
  for _ = 1 to 100 do
    Metrics.incr c 1
  done;
  Metrics.incr c 17;
  Alcotest.(check int) "counter adds exactly" (base + 117)
    (Metrics.counter_value c)

let test_gauge_high_water () =
  let g = Metrics.gauge "test.obs.gauge" in
  Metrics.set_max g 5;
  Metrics.set_max g 3;
  Alcotest.(check bool) "gauge keeps its high water"
    true
    (Metrics.gauge_value g >= 5);
  let v = Metrics.gauge_value g in
  Metrics.set_max g (v + 2);
  Alcotest.(check int) "gauge rises" (v + 2) (Metrics.gauge_value g)

let test_histogram_buckets () =
  (* Bucket edges: an observation [v > 0] lands in the bucket whose
     upper bound is the smallest power of two >= v. *)
  Alcotest.(check int) "0 -> bucket 0" 0 (Metrics.bucket_index 0);
  Alcotest.(check int) "1 -> bucket 0" 0 (Metrics.bucket_index 1);
  Alcotest.(check int) "2 -> bucket 1" 1 (Metrics.bucket_index 2);
  Alcotest.(check int) "3 -> bucket 2" 2 (Metrics.bucket_index 3);
  Alcotest.(check int) "4 -> bucket 2" 2 (Metrics.bucket_index 4);
  Alcotest.(check int) "5 -> bucket 3" 3 (Metrics.bucket_index 5);
  Alcotest.(check int) "upper of 0" 1 (Metrics.bucket_upper 0);
  Alcotest.(check int) "upper of 10" 1024 (Metrics.bucket_upper 10);
  Alcotest.(check int) "last bucket absorbs the tail" max_int
    (Metrics.bucket_upper 62);
  (* The covering invariant, on a spread of magnitudes including the
     values that straddle bucket edges. *)
  List.iter
    (fun v ->
      let i = Metrics.bucket_index v in
      if v > Metrics.bucket_upper i then
        Alcotest.failf "%d above its bucket bound %d" v (Metrics.bucket_upper i);
      if i > 0 && v <= Metrics.bucket_upper (i - 1) then
        Alcotest.failf "%d below its bucket: fits bucket %d too" v (i - 1))
    [ 1; 2; 3; 4; 7; 8; 9; 1023; 1024; 1025; 999_983; max_int ];
  Alcotest.(check int) "huge values clamp to the last bucket" 62
    (Metrics.bucket_index max_int)

let test_histogram_observe () =
  let h = Metrics.histogram "test.obs.hist" in
  let before =
    match Metrics.histogram_in (Metrics.snapshot ()) "test.obs.hist" with
    | Some s -> s
    | None -> Alcotest.fail "registered histogram missing from snapshot"
  in
  Metrics.observe h 100;
  Metrics.observe h 100;
  Metrics.observe h 3_000;
  Metrics.observe h (-5) (* clamps to 0 *);
  let after =
    match Metrics.histogram_in (Metrics.snapshot ()) "test.obs.hist" with
    | Some s -> s
    | None -> Alcotest.fail "histogram vanished"
  in
  Alcotest.(check int) "count" (before.Metrics.count + 4) after.Metrics.count;
  Alcotest.(check int) "sum" (before.Metrics.sum + 3_200) after.Metrics.sum

let test_snapshot_since () =
  let c = Metrics.counter "test.obs.since" in
  let before = Metrics.snapshot () in
  Metrics.incr c 42;
  let delta = Metrics.since ~before (Metrics.snapshot ()) in
  Alcotest.(check (option int)) "counter delta" (Some 42)
    (Metrics.counter_in delta "test.obs.since")

let test_snapshot_merge () =
  (* Cross-process combination (shard trailers): counters add, gauges
     keep the larger high-water mark, histograms add count/sum and
     merge buckets bucket-wise. *)
  let snap counters gauges histograms =
    {
      Metrics.snap_counters = counters;
      snap_gauges = gauges;
      snap_rates = [];
      snap_histograms = histograms;
    }
  in
  let h count sum buckets = { Metrics.count; sum; buckets } in
  let a =
    snap
      [ ("a.only", 3); ("both", 10) ]
      [ ("g", 5) ]
      [ ("h", h 2 300 [ (256, 2) ]) ]
  in
  let b =
    snap
      [ ("b.only", 1); ("both", 7) ]
      [ ("g", 9) ]
      [ ("h", h 3 5000 [ (256, 1); (4096, 2) ]) ]
  in
  let m = Metrics.merge a b in
  Alcotest.(check (list (pair string int)))
    "counters add, names stay sorted"
    [ ("a.only", 3); ("b.only", 1); ("both", 17) ]
    m.Metrics.snap_counters;
  Alcotest.(check (list (pair string int)))
    "gauges keep the max" [ ("g", 9) ] m.Metrics.snap_gauges;
  (match m.Metrics.snap_histograms with
  | [ ("h", hm) ] ->
      Alcotest.(check int) "histogram count adds" 5 hm.Metrics.count;
      Alcotest.(check int) "histogram sum adds" 5300 hm.Metrics.sum;
      Alcotest.(check (list (pair int int)))
        "buckets merge bucket-wise"
        [ (256, 3); (4096, 2) ]
        hm.Metrics.buckets
  | _ -> Alcotest.fail "expected exactly one merged histogram");
  (* empty_snapshot is the identity on both sides. *)
  Alcotest.(check bool) "left identity" true
    (Metrics.merge Metrics.empty_snapshot a = a);
  Alcotest.(check bool) "right identity" true
    (Metrics.merge a Metrics.empty_snapshot = a);
  (* Merge is commutative on these payloads. *)
  Alcotest.(check bool) "commutative" true (Metrics.merge b a = m)

let test_metrics_json_parses () =
  let json = Metrics.to_json (Metrics.snapshot ()) in
  Alcotest.(check bool) "carries the schema tag" true
    (contains ~needle:"dpv-metrics/1" json);
  match Json.of_string json with
  | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  | Ok j -> (
      match Option.bind (Json.member "schema" j) Json.to_string with
      | Some "dpv-metrics/1" -> ()
      | _ -> Alcotest.fail "schema field wrong or missing")

(* ---- sampled gauges and rolling-window rates ---- *)

let test_rate_window_and_sample_units () =
  let r = Metrics.rate ~window_s:10.0 "test.obs.rate" in
  (* 100 events over 2 simulated seconds -> 50/s -> 50000 milli. *)
  Metrics.rate_tick r ~now_ns:0 1_000;
  Metrics.rate_tick r ~now_ns:2_000_000_000 1_100;
  Alcotest.(check int) "windowed rate in milli-events/s" 50_000
    (Metrics.rate_value r);
  let snap = Metrics.snapshot () in
  Alcotest.(check (option int)) "rates live under snap_rates" (Some 50_000)
    (Metrics.rate_in snap "test.obs.rate");
  Alcotest.(check (option int)) "not mixed into high-water gauges" None
    (Metrics.gauge_in snap "test.obs.rate");
  (* A sample outside the window evicts the old baseline. *)
  Metrics.rate_tick r ~now_ns:30_000_000_000 1_100;
  Metrics.rate_tick r ~now_ns:31_000_000_000 1_100;
  Alcotest.(check int) "idle window decays to zero" 0 (Metrics.rate_value r);
  (* Point samples share the milli-unit convention, so every value
     under "rates" divides by 1000 uniformly. *)
  let g = Metrics.sample "test.obs.sampled" in
  Metrics.set g 7;
  Alcotest.(check (option int)) "set stores milli-units" (Some 7_000)
    (Metrics.rate_in (Metrics.snapshot ()) "test.obs.sampled");
  (* In-process delta keeps the point sample; cross-process merge takes
     the max and never sums throughputs. *)
  let before = Metrics.snapshot () in
  Metrics.set g 3;
  let delta = Metrics.since ~before (Metrics.snapshot ()) in
  Alcotest.(check (option int)) "since keeps the after sample" (Some 3_000)
    (Metrics.rate_in delta "test.obs.sampled");
  let with_rates rates = { Metrics.empty_snapshot with Metrics.snap_rates = rates } in
  let m = Metrics.merge (with_rates [ ("r", 5_000) ]) (with_rates [ ("r", 2_000) ]) in
  Alcotest.(check (list (pair string int)))
    "merge keeps the larger rate, never the sum"
    [ ("r", 5_000) ]
    m.Metrics.snap_rates

(* ---- histogram quantiles ---- *)

(* Rebuild the bucket layout [observe] would produce, without touching
   the global registry (tests share one process). *)
let hist_of_samples samples =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let u = Metrics.bucket_upper (Metrics.bucket_index v) in
      Hashtbl.replace tbl u
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl u)))
    samples;
  {
    Metrics.count = List.length samples;
    sum = List.fold_left ( + ) 0 samples;
    buckets =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []);
  }

let test_quantile_edge_cases () =
  let empty = { Metrics.count = 0; sum = 0; buckets = [] } in
  Alcotest.(check (float 0.0)) "empty histogram -> 0" 0.0
    (Metrics.quantile_of_hist empty ~q:0.5);
  (match Metrics.quantile_of_hist empty ~q:1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q outside [0,1] must raise");
  (match Metrics.quantile_of_hist empty ~q:(-0.1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative q must raise");
  (* All mass in one bucket: every quantile stays inside that bucket. *)
  let h = hist_of_samples [ 100; 100; 100; 100 ] in
  let upper = Metrics.bucket_upper (Metrics.bucket_index 100) in
  List.iter
    (fun q ->
      let est = Metrics.quantile_of_hist h ~q in
      if est <= float_of_int (upper / 2) || est > float_of_int upper then
        Alcotest.failf "q=%.2f estimate %f escapes bucket (%d, %d]" q est
          (upper / 2) upper)
    [ 0.0; 0.5; 0.9; 1.0 ]

(* The estimator promises bucket resolution: the estimate lives in the
   log2 bucket of the order statistic at the target rank, hence within
   a factor of 2 of the sample quantile Stats.quantile interpolates
   between the same bracketing statistics. *)
let qcheck_quantile_tracks_stats =
  QCheck.Test.make ~count:300
    ~name:"quantile_of_hist tracks Stats.quantile to bucket resolution"
    QCheck.(
      make
        ~print:Print.(list int)
        Gen.(
          list_size (1 -- 60)
            (oneof
               [
                 int_bound 15;
                 int_bound 2_000;
                 int_bound 5_000_000;
                 int_bound 2_000_000_000;
               ])))
    (fun samples ->
      let h = hist_of_samples samples in
      let sorted = Array.of_list samples in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let arr = Array.map float_of_int sorted in
      List.for_all
        (fun q ->
          let est = Metrics.quantile_of_hist h ~q in
          let truth = Dpv_tensor.Stats.quantile arr ~q in
          (* Same rank conventions as the implementations. *)
          let pos = q *. float_of_int (n - 1) in
          let lo_idx = int_of_float (Float.floor pos) in
          let hi_idx = Stdlib.min (lo_idx + 1) (n - 1) in
          let target = pos +. 1.0 in
          let r = Stdlib.min n (Stdlib.max 1 (int_of_float (Float.ceil target))) in
          let v = sorted.(r - 1) in
          let u = Metrics.bucket_upper (Metrics.bucket_index v) in
          let eps = 1e-6 in
          (* est interpolates inside the bucket of the rank-r sample. *)
          est >= (float_of_int (u / 2) -. eps)
          && est <= float_of_int u +. eps
          (* truth interpolates between the bracketing statistics... *)
          && truth >= float_of_int sorted.(lo_idx) -. eps
          && truth <= float_of_int sorted.(hi_idx) +. eps
          (* ...so the two agree to a factor of 2 through the shared
             order statistics (plus 1 for the v <= 1 bucket). *)
          && est <= (2.0 *. float_of_int (Stdlib.max 1 sorted.(hi_idx))) +. eps
          && est >= (float_of_int sorted.(lo_idx) /. 2.0) -. 1.0)
        [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ])

(* ---- OpenMetrics exposition ---- *)

let test_expo_render_format () =
  let h = { Metrics.count = 3; sum = 300; buckets = [ (128, 2); (512, 1) ] } in
  let snap =
    {
      Metrics.snap_counters = [ ("serve.scrapes", 7) ];
      snap_gauges = [ ("pool.max_queue_depth", 4) ];
      snap_rates = [ ("serve.solves_per_s", 2_500) ];
      snap_histograms = [ ("journal.append_ns", h) ];
    }
  in
  let out = Dpv_obs.Expo.render ~labels:[ ("shard", "a\"b\\c\nd") ] snap in
  let expect needle =
    if not (contains ~needle out) then
      Alcotest.failf "exposition misses %S in:\n%s" needle out
  in
  expect "# TYPE dpv_serve_scrapes counter\n";
  expect "dpv_serve_scrapes_total{shard=\"a\\\"b\\\\c\\nd\"} 7\n";
  expect "# TYPE dpv_pool_max_queue_depth gauge\n";
  expect "dpv_pool_max_queue_depth{shard=\"a\\\"b\\\\c\\nd\"} 4\n";
  (* milli-units restored to a float *)
  expect "# TYPE dpv_serve_solves_per_s gauge\n";
  expect "dpv_serve_solves_per_s{shard=\"a\\\"b\\\\c\\nd\"} 2.5\n";
  (* cumulative buckets, +Inf closing at the total count *)
  expect "# TYPE dpv_journal_append_ns histogram\n";
  expect "dpv_journal_append_ns_bucket{shard=\"a\\\"b\\\\c\\nd\",le=\"128\"} 2\n";
  expect "dpv_journal_append_ns_bucket{shard=\"a\\\"b\\\\c\\nd\",le=\"512\"} 3\n";
  expect "dpv_journal_append_ns_bucket{shard=\"a\\\"b\\\\c\\nd\",le=\"+Inf\"} 3\n";
  expect "dpv_journal_append_ns_sum{shard=\"a\\\"b\\\\c\\nd\"} 300\n";
  expect "dpv_journal_append_ns_count{shard=\"a\\\"b\\\\c\\nd\"} 3\n";
  let len = String.length out in
  Alcotest.(check bool) "terminated by # EOF" true
    (len >= 6 && String.sub out (len - 6) 6 = "# EOF\n")

let qcheck_expo_escaping_sound =
  QCheck.Test.make ~count:300
    ~name:"expo sanitizes names and escapes label values"
    QCheck.(pair printable_string printable_string)
    (fun (name, label_value) ->
      let sanitized = Dpv_obs.Expo.sanitize name in
      let name_ok =
        String.length sanitized > 4
        = (String.length name > 0)
        && String.for_all
             (function
               | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
               | _ -> false)
             sanitized
      in
      let escaped = Dpv_obs.Expo.escape_label label_value in
      (* No raw newline or unescaped quote may survive: the sample must
         stay on one line of the exposition. *)
      let escaped_ok =
        (not (String.contains escaped '\n'))
        &&
        let rec scan i =
          if i >= String.length escaped then true
          else
            match escaped.[i] with
            | '\\' -> i + 1 < String.length escaped && scan (i + 2)
            | '"' -> false
            | _ -> scan (i + 1)
        in
        scan 0
      in
      let out =
        Dpv_obs.Expo.render
          ~labels:[ ("job", label_value) ]
          {
            Metrics.empty_snapshot with
            Metrics.snap_counters = [ ((if name = "" then "x" else name), 1) ];
          }
      in
      (* 2 lines for the counter family + the terminator. *)
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
      in
      name_ok && escaped_ok && List.length lines = 3)

(* ---- cumulative-bucket consistency against live scrape data ---- *)

let test_expo_buckets_cumulative () =
  (* Render the real registry (whatever earlier tests observed) and
     check every histogram's bucket series is nondecreasing and closed
     by +Inf at the count. *)
  let snap = Metrics.snapshot () in
  let out = Dpv_obs.Expo.render snap in
  List.iter
    (fun (name, h) ->
      let n = Dpv_obs.Expo.sanitize name in
      let prefix = n ^ "_bucket{le=" in
      let cums =
        List.filter_map
          (fun line ->
            if
              String.length line > String.length prefix
              && String.sub line 0 (String.length prefix) = prefix
            then
              match String.rindex_opt line ' ' with
              | Some i ->
                  int_of_string_opt
                    (String.sub line (i + 1) (String.length line - i - 1))
              | None -> None
            else None)
          (String.split_on_char '\n' out)
      in
      if cums = [] then Alcotest.failf "histogram %s has no bucket lines" name;
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      if not (nondecreasing cums) then
        Alcotest.failf "histogram %s buckets not cumulative" name;
      Alcotest.(check int)
        (name ^ ": +Inf bucket equals count")
        h.Metrics.count
        (List.nth cums (List.length cums - 1)))
    snap.Metrics.snap_histograms

(* ---- report pretty-printer percentiles ---- *)

let test_report_prints_percentiles () =
  let snap =
    {
      Metrics.empty_snapshot with
      Metrics.snap_rates = [ ("serve.solves_per_s", 1_500) ];
      snap_histograms =
        [ ("lp_ns", hist_of_samples [ 100; 200; 400; 800; 1_600 ]) ];
    }
  in
  let text = Format.asprintf "%a" Dpv_core.Report.pp_metrics snap in
  List.iter
    (fun needle ->
      if not (contains ~needle text) then
        Alcotest.failf "pp_metrics misses %S in:\n%s" needle text)
    [ "p50 "; "p90 "; "p99 "; "5 obs"; "1.500 (sampled)" ]

(* ---- tracing: disabled path ---- *)

let test_disabled_path_emits_nothing () =
  Trace.disable ();
  let count0 = Trace.event_count () in
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  Alcotest.(check int) "begin_ns is the zero sentinel" 0 (Trace.begin_ns ());
  Trace.complete ~name:"should-drop" 0;
  Trace.instant "should-drop-too";
  let r = Trace.with_span "invisible" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span still runs the body" 42 r;
  Alcotest.(check int) "no events buffered" count0 (Trace.event_count ())

(* ---- tracing: spans ---- *)

let span_event json name =
  let events =
    match Option.bind (Json.member "traceEvents" json) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  match
    List.find_opt
      (fun e ->
        Option.bind (Json.member "name" e) Json.to_string = Some name
        && Option.bind (Json.member "ph" e) Json.to_string = Some "X")
      events
  with
  | Some e -> e
  | None -> Alcotest.failf "span %S not in trace" name

let span_bounds json name =
  let e = span_event json name in
  let f key =
    match Option.bind (Json.member key e) Json.to_float with
    | Some v -> v
    | None -> Alcotest.failf "span %S missing %s" name key
  in
  let ts = f "ts" in
  (ts, ts +. f "dur")

let test_span_nesting () =
  with_trace (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.with_span "inner" (fun () -> ignore (Sys.opaque_identity 1)));
      let json =
        match Json.of_string (Trace.to_json ()) with
        | Ok j -> j
        | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
      in
      let o_start, o_end = span_bounds json "outer" in
      let i_start, i_end = span_bounds json "inner" in
      (* ts/dur are printed in microseconds at 3 decimals; allow that
         much rounding slack. *)
      let eps = 0.002 in
      if i_start +. eps < o_start || i_end > o_end +. eps then
        Alcotest.failf "inner [%f, %f] escapes outer [%f, %f]" i_start i_end
          o_start o_end)

let test_span_exception_reraised () =
  with_trace (fun () ->
      (try
         Trace.with_span "boom" (fun () -> failwith "expected")
       with Failure m -> Alcotest.(check string) "re-raised" "expected" m);
      let json = Trace.to_json () in
      Alcotest.(check bool) "span recorded despite the raise" true
        (contains ~needle:"boom" json);
      Alcotest.(check bool) "exception text in args" true
        (contains ~needle:"expected" json))

let test_pool_worker_spans () =
  with_trace (fun () ->
      let workers = 4 in
      let out =
        Pool.map_list ~workers
          (fun i ->
            Trace.with_span "task" (fun () -> i * 2))
          (List.init 16 Fun.id)
      in
      Array.iteri
        (fun i cell ->
          match cell with
          | Some (Ok v) -> Alcotest.(check int) "result" (2 * i) v
          | _ -> Alcotest.fail "pool dropped a task")
        out;
      let json =
        match Json.of_string (Trace.to_json ()) with
        | Ok j -> j
        | Error e -> Alcotest.failf "pool trace does not parse: %s" e
      in
      let events =
        match Option.bind (Json.member "traceEvents" json) Json.to_list with
        | Some l -> l
        | None -> Alcotest.fail "no traceEvents"
      in
      let named name e =
        Option.bind (Json.member "name" e) Json.to_string = Some name
      in
      let task_spans = List.filter (named "task") events in
      Alcotest.(check int) "every task left a span" 16
        (List.length task_spans);
      let worker_spans = List.filter (named "pool.worker") events in
      Alcotest.(check int) "one lifetime span per worker" workers
        (List.length worker_spans);
      let meta = List.filter (named "thread_name") events in
      Alcotest.(check bool) "workers named their tracks" true
        (List.length meta >= 1);
      (* Every task span's tid must be one of the worker span tids:
         tasks only ever run on pool domains. *)
      let tid e =
        match Option.bind (Json.member "tid" e) Json.to_int with
        | Some t -> t
        | None -> Alcotest.fail "event without tid"
      in
      let worker_tids = List.map tid worker_spans in
      List.iter
        (fun e ->
          if not (List.mem (tid e) worker_tids) then
            Alcotest.fail "task span on a non-worker track")
        task_spans)

(* ---- tracing: ambient per-job context ---- *)

let test_trace_context_tags_events () =
  Alcotest.(check (option string)) "no ambient context by default" None
    (Trace.context ());
  with_trace (fun () ->
      Trace.with_context "job-A" (fun () ->
          Alcotest.(check (option string)) "context visible inside"
            (Some "job-A") (Trace.context ());
          Trace.with_context "job-B" (fun () ->
              Alcotest.(check (option string)) "nested context wins"
                (Some "job-B") (Trace.context ());
              Trace.instant "ctx.instB");
          Alcotest.(check (option string)) "outer context restored"
            (Some "job-A") (Trace.context ());
          Trace.with_span "ctx.spanA" (fun () -> ()));
      Alcotest.(check (option string)) "context cleared after" None
        (Trace.context ());
      Trace.with_span "ctx.untagged" (fun () -> ());
      let names evs =
        List.filter_map
          (function
            | Trace.Complete { name; _ } -> Some name
            | Trace.Instant { name; _ } -> Some name
            | Trace.Thread_name _ -> None)
          evs
      in
      let a = names (Trace.tagged_events "job-A") in
      Alcotest.(check bool) "A keeps its span" true (List.mem "ctx.spanA" a);
      Alcotest.(check bool) "A drops B's instant" false
        (List.mem "ctx.instB" a);
      Alcotest.(check bool) "A drops untagged spans" false
        (List.mem "ctx.untagged" a);
      let b = names (Trace.tagged_events "job-B") in
      Alcotest.(check bool) "B keeps its instant" true
        (List.mem "ctx.instB" b);
      Alcotest.(check bool) "B drops A's span" false (List.mem "ctx.spanA" b);
      (* The filtered slice renders as a standalone Chrome trace with
         the id stamped into the span args. *)
      let json =
        match Json.of_string (Trace.events_to_json (Trace.tagged_events "job-A")) with
        | Ok j -> j
        | Error e -> Alcotest.failf "filtered trace does not parse: %s" e
      in
      let span = span_event json "ctx.spanA" in
      match
        Option.bind (Json.member "args" span) (fun a ->
            Option.bind (Json.member "trace" a) Json.to_string)
      with
      | Some "job-A" -> ()
      | _ -> Alcotest.fail "span args missing the trace id")

(* ---- solver counters ---- *)

type export = Counter of string | Gauge of string

(* Which name carries which [Milp.stats] field, written out by hand so
   that no test derives it from [Milp.counters]: the field, its journal
   key, its campaign-report key and its metric.  [lp_time_s] (journal
   and report key "lp_time_s", metric "milp.lp_time_ns") and
   [per_worker_nodes] (journal only) are checked on their own. *)
let int_fields =
  [
    ((fun s -> s.Milp.nodes_explored), "nodes_explored", "nodes",
     Counter "milp.nodes");
    ((fun s -> s.Milp.lp_solved), "lp_solved", "lps", Counter "milp.lps");
    ((fun s -> s.Milp.incumbent_updates), "incumbent_updates",
     "incumbent_updates", Counter "milp.incumbent_updates");
    ((fun s -> s.Milp.steals), "steals", "steals", Counter "milp.steals");
    ((fun s -> s.Milp.max_queue_depth), "max_queue_depth", "max_queue_depth",
     Gauge "milp.max_queue_depth");
    ((fun s -> s.Milp.pivots), "pivots", "pivots", Counter "simplex.pivots");
    ((fun s -> s.Milp.warm_starts), "warm_starts", "warm_starts",
     Counter "simplex.warm_starts");
    ((fun s -> s.Milp.cold_starts), "cold_starts", "cold_starts",
     Counter "simplex.cold_starts");
    ((fun s -> s.Milp.fallbacks), "fallbacks", "fallbacks",
     Counter "simplex.fallbacks");
    ((fun s -> s.Milp.absint_phase_fixes), "absint_phase_fixes",
     "absint_phase_fixes", Counter "absint.phase_fixes");
    ((fun s -> s.Milp.absint_prunes), "absint_prunes", "absint_prunes",
     Counter "absint.prunes");
    ((fun s -> s.Milp.absint_incr_hits), "absint_incr_hits",
     "absint_incr_hits", Counter "absint.incr_hits");
    ((fun s -> s.Milp.absint_layers_propagated), "absint_layers_propagated",
     "absint_layers_propagated", Counter "absint.layers_propagated");
    ((fun s -> s.Milp.absint_layers_saved), "absint_layers_saved",
     "absint_layers_saved", Counter "absint.layers_saved");
    ((fun s -> s.Milp.absint_cache_evictions), "absint_cache_evictions",
     "absint_cache_evictions", Counter "absint.cache_evictions");
  ]

(* A distinct value in every field: base + 1 .. base + 18 in
   declaration order, [lp_time_s] a binary fraction. *)
let distinct_stats base =
  {
    Milp.nodes_explored = base + 1;
    lp_solved = base + 2;
    incumbent_updates = base + 3;
    lp_time_s = float_of_int (base + 4) /. 16.0;
    per_worker_nodes = [| base + 5; base + 6 |];
    steals = base + 7;
    max_queue_depth = base + 8;
    pivots = base + 9;
    warm_starts = base + 10;
    cold_starts = base + 11;
    fallbacks = base + 12;
    absint_phase_fixes = base + 13;
    absint_prunes = base + 14;
    absint_incr_hits = base + 15;
    absint_layers_propagated = base + 16;
    absint_layers_saved = base + 17;
    absint_cache_evictions = base + 18;
  }

let done_entry stats =
  {
    Journal.key = "k";
    label = "q";
    outcome =
      Journal.Done
        {
          Verify.verdict = Verify.Safe { conditional = false };
          milp_stats = stats;
          encoding = "e";
          num_binaries = 0;
          wall_time_s = 0.5;
        };
    attempts = 1;
    dense_retry = false;
    deadline_retry = false;
  }

let with_temp_file f =
  let path = Filename.temp_file "dpv_test_obs_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let json_exn what = function
  | Ok j -> j
  | Error e -> Alcotest.failf "%s does not parse: %s" what e

let member_exn name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "no %S member" name

let num = Alcotest.(option (float 0.0))

let check_key_count what expected = function
  | Json.Obj fields ->
      Alcotest.(check int) (what ^ " carries no other key") expected
        (List.length fields)
  | _ -> Alcotest.failf "%s is not an object" what

let test_counter_keys_carry_their_fields () =
  let stats = distinct_stats 100 in
  with_temp_file @@ fun path ->
  Journal.save ~path [ done_entry stats ];
  let line = String.trim (In_channel.with_open_text path In_channel.input_all) in
  let milp =
    member_exn "milp"
      (member_exn "result" (json_exn "journal line" (Json.of_string line)))
  in
  List.iter
    (fun (get, key, _, _) ->
      Alcotest.check num ("journal key " ^ key)
        (Some (float_of_int (get stats)))
        (Option.bind (Json.member key milp) Json.to_float))
    int_fields;
  Alcotest.check num "journal key lp_time_s" (Some stats.Milp.lp_time_s)
    (Option.bind (Json.member "lp_time_s" milp) Json.to_float);
  Alcotest.(check (option (list int))) "journal key per_worker_nodes"
    (Some (Array.to_list stats.Milp.per_worker_nodes))
    (Option.map
       (List.filter_map Json.to_int)
       (Option.bind (Json.member "per_worker_nodes" milp) Json.to_list));
  check_key_count "journal milp" (List.length int_fields + 2) milp;
  let entries =
    match Journal.load ~path with
    | Ok es -> es
    | Error e -> Alcotest.failf "journal does not load: %s" e
  in
  (match entries with
  | [ { Journal.outcome = Journal.Done r; _ } ] ->
      Alcotest.(check bool) "load returns the saved record" true
        (r.Verify.milp_stats = stats)
  | _ -> Alcotest.fail "expected one done entry");
  let report =
    json_exn "merged report"
      (Json.of_string (Campaign.merged_to_json ~entries ~metas:[]))
  in
  let milp =
    match Option.bind (Json.member "queries" report) Json.to_list with
    | Some [ q ] -> member_exn "milp" q
    | _ -> Alcotest.fail "expected one query record"
  in
  List.iter
    (fun (get, _, key, _) ->
      Alcotest.check num ("report key " ^ key)
        (Some (float_of_int (get stats)))
        (Option.bind (Json.member key milp) Json.to_float))
    int_fields;
  Alcotest.check num "report key lp_time_s" (Some stats.Milp.lp_time_s)
    (Option.bind (Json.member "lp_time_s" milp) Json.to_float);
  check_key_count "report milp" (List.length int_fields + 1) milp;
  let a = distinct_stats 100 and b = distinct_stats 1000 in
  let sum = Milp.add_stats a b in
  List.iter
    (fun (get, key, _, export) ->
      let expected =
        match export with
        | Counter _ -> get a + get b
        | Gauge _ -> max (get a) (get b)
      in
      Alcotest.(check int) ("add_stats " ^ key) expected (get sum))
    int_fields;
  Alcotest.(check (float 0.0)) "add_stats lp_time_s"
    (a.Milp.lp_time_s +. b.Milp.lp_time_s) sum.Milp.lp_time_s;
  Alcotest.(check (array int)) "add_stats per_worker_nodes" [| 1110; 1112 |]
    sum.Milp.per_worker_nodes

(* Lines exactly as journals before the counter table wrote them: every
   key in that order, and (older still) without the absint_* keys. *)
let earlier_line =
  {|{"key": "k1", "label": "q1", "outcome": "done", "attempts": 1, "dense_retry": false, "deadline_retry": false, "result": {"verdict": "safe", "conditional": false, "encoding": "e", "num_binaries": 0, "wall_time_s": 0.5, "milp": {"nodes_explored": 1, "lp_solved": 2, "incumbent_updates": 3, "lp_time_s": 0.5, "per_worker_nodes": [4, 5], "steals": 6, "max_queue_depth": 7, "pivots": 8, "warm_starts": 9, "cold_starts": 10, "fallbacks": 11, "absint_phase_fixes": 12, "absint_prunes": 13, "absint_incr_hits": 14, "absint_layers_propagated": 15, "absint_layers_saved": 16, "absint_cache_evictions": 17}}}|}

let pre_absint_line =
  {|{"key": "k2", "label": "q2", "outcome": "done", "attempts": 1, "dense_retry": false, "deadline_retry": false, "result": {"verdict": "safe", "conditional": false, "encoding": "e", "num_binaries": 0, "wall_time_s": 0.5, "milp": {"nodes_explored": 1, "lp_solved": 2, "incumbent_updates": 3, "lp_time_s": 0.5, "per_worker_nodes": [4, 5], "steals": 6, "max_queue_depth": 7, "pivots": 8, "warm_starts": 9, "cold_starts": 10, "fallbacks": 11}}}|}

let load_lines lines =
  with_temp_file @@ fun path ->
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  Journal.load ~path

let replace ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "%S not in line" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let test_journal_reads_earlier_lines () =
  let expected =
    {
      Milp.nodes_explored = 1;
      lp_solved = 2;
      incumbent_updates = 3;
      lp_time_s = 0.5;
      per_worker_nodes = [| 4; 5 |];
      steals = 6;
      max_queue_depth = 7;
      pivots = 8;
      warm_starts = 9;
      cold_starts = 10;
      fallbacks = 11;
      absint_phase_fixes = 12;
      absint_prunes = 13;
      absint_incr_hits = 14;
      absint_layers_propagated = 15;
      absint_layers_saved = 16;
      absint_cache_evictions = 17;
    }
  in
  let no_absint =
    {
      expected with
      absint_phase_fixes = 0;
      absint_prunes = 0;
      absint_incr_hits = 0;
      absint_layers_propagated = 0;
      absint_layers_saved = 0;
      absint_cache_evictions = 0;
    }
  in
  (match load_lines [ earlier_line; pre_absint_line ] with
  | Ok
      [
        { Journal.outcome = Journal.Done r1; _ };
        { Journal.outcome = Journal.Done r2; _ };
      ] ->
      Alcotest.(check bool) "every key in the earlier order" true
        (r1.Verify.milp_stats = expected);
      Alcotest.(check bool) "absint keys missing read 0" true
        (r2.Verify.milp_stats = no_absint)
  | Ok _ -> Alcotest.fail "expected two done entries"
  | Error e -> Alcotest.failf "earlier journal lines rejected: %s" e);
  let rejects label line message =
    Alcotest.(check (result reject string)) label (Error message)
      (Result.map ignore (load_lines [ line ]))
  in
  rejects "a line without pivots"
    (replace ~sub:{|"pivots": 8, |} ~by:"" earlier_line)
    {|line 1: missing or ill-typed field "pivots"|};
  rejects "an ill-typed optional counter"
    (replace ~sub:{|"absint_prunes": 13|} ~by:{|"absint_prunes": "13"|}
       earlier_line)
    {|line 1: missing or ill-typed field "absint_prunes"|};
  rejects "a fractional per-worker node count"
    (replace ~sub:"[4, 5]" ~by:"[4.5, 5]" earlier_line)
    {|line 1: non-integer in array "per_worker_nodes"|}

(* ---- campaign round-trip ---- *)

(* Tiny deterministic pipeline, same shape as the fault-injection
   campaign fixture: 1-input ReLU network, cut 2, box bounds (so the
   shared-encoding phase does no LP work). *)
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

let queries () =
  List.map
    (fun (label, psi) ->
      Campaign.query ~label ~characterizer ~psi
        ~bounds:(Verify.Data_box visited_features) ())
    [
      ("reach", Risk.make ~name:"out>=0.9" [ Risk.output_ge 0 0.9 ]);
      ("unreach", Risk.make ~name:"out>=1.5" [ Risk.output_ge 0 1.5 ]);
      ("neg", Risk.make ~name:"out<=-0.2" [ Risk.output_le 0 (-0.2) ]);
    ]

let done_stats (report : Campaign.report) =
  List.filter_map
    (fun (qr : Campaign.query_report) ->
      match qr.Campaign.outcome with
      | Campaign.Done r -> Some r.Verify.milp_stats
      | Campaign.Crashed _ | Campaign.Skipped _ -> None)
    report.Campaign.query_reports

let metric_exn snap name =
  match Metrics.counter_in snap name with
  | Some v -> v
  | None -> Alcotest.failf "counter %s missing from campaign snapshot" name

let test_campaign_metrics_agree_with_stats () =
  Dpv_linprog.Faults.disable ();
  (* The guide is armed so that its counters are not all zero: a metric
     carrying the wrong field then shows. *)
  let report = Campaign.run ~runners:1 ~absint:true ~perception (queries ()) in
  let stats = done_stats report in
  Alcotest.(check int) "all queries settled Done" 3 (List.length stats);
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let m = report.Campaign.metrics in
  List.iter
    (fun (get, _, _, export) ->
      match export with
      | Counter name ->
          Alcotest.(check int) (name ^ " agrees") (sum get) (metric_exn m name)
      | Gauge name -> (
          (* A gauge is the process-wide high water, so it covers every
             query's value but may come from an earlier solve. *)
          let high = List.fold_left (fun acc s -> max acc (get s)) 0 stats in
          match Metrics.gauge_in m name with
          | Some v when v >= high -> ()
          | Some v -> Alcotest.failf "%s = %d is below %d" name v high
          | None -> Alcotest.failf "gauge %s missing" name))
    int_fields;
  Alcotest.(check int) "milp.lp_time_ns agrees"
    (sum (fun s -> int_of_float (s.Milp.lp_time_s *. 1e9)))
    (metric_exn m "milp.lp_time_ns");
  Alcotest.(check int) "one solve per query" 3 (metric_exn m "milp.solves");
  Alcotest.(check int) "cache hits agree" report.Campaign.cache.Campaign.hits
    (metric_exn m "campaign.cache_hits");
  Alcotest.(check int) "cache misses agree"
    report.Campaign.cache.Campaign.misses
    (metric_exn m "campaign.cache_misses");
  Alcotest.(check int) "query count recorded" 3
    (metric_exn m "campaign.queries")

let test_campaign_report_embeds_metrics () =
  Dpv_linprog.Faults.disable ();
  let report = Campaign.run ~runners:1 ~perception (queries ()) in
  let json = Campaign.to_json report in
  Alcotest.(check bool) "metrics schema embedded" true
    (contains ~needle:"dpv-metrics/1" json);
  match Json.of_string json with
  | Error e -> Alcotest.failf "campaign JSON does not parse: %s" e
  | Ok j -> (
      let metrics =
        match Json.member "metrics" j with
        | Some m -> m
        | None -> Alcotest.fail "no metrics object in report"
      in
      (match Option.bind (Json.member "schema" metrics) Json.to_string with
      | Some "dpv-metrics/1" -> ()
      | _ -> Alcotest.fail "embedded metrics schema wrong");
      let counters =
        match Json.member "counters" metrics with
        | Some c -> c
        | None -> Alcotest.fail "no counters in embedded metrics"
      in
      let stats = done_stats report in
      let pivots =
        List.fold_left (fun acc s -> acc + s.Milp.pivots) 0 stats
      in
      match Option.bind (Json.member "simplex.pivots" counters) Json.to_int with
      | Some v -> Alcotest.(check int) "pivots round-trip the JSON" pivots v
      | None -> Alcotest.fail "simplex.pivots not in embedded counters")

let test_campaign_trace_covers_run () =
  Dpv_linprog.Faults.disable ();
  with_trace (fun () ->
      let report = Campaign.run ~runners:1 ~perception (queries ()) in
      ignore report;
      let json =
        match Json.of_string (Trace.to_json ()) with
        | Ok j -> j
        | Error e -> Alcotest.failf "campaign trace does not parse: %s" e
      in
      let run_start, run_end = span_bounds json "campaign.run" in
      (* Every campaign.query span nests inside campaign.run. *)
      let events =
        Option.bind (Json.member "traceEvents" json) Json.to_list
        |> Option.value ~default:[]
      in
      let query_spans =
        List.filter
          (fun e ->
            Option.bind (Json.member "name" e) Json.to_string
            = Some "campaign.query")
          events
      in
      Alcotest.(check int) "a span per solved query" 3
        (List.length query_spans);
      let eps = 0.002 in
      List.iter
        (fun e ->
          let ts =
            Option.bind (Json.member "ts" e) Json.to_float |> Option.get
          in
          let dur =
            Option.bind (Json.member "dur" e) Json.to_float |> Option.get
          in
          if ts +. eps < run_start || ts +. dur > run_end +. eps then
            Alcotest.fail "query span escapes the campaign.run span")
        query_spans;
      (* The milp.solve spans from inside the queries are also there. *)
      Alcotest.(check bool) "solver spans present" true
        (List.exists
           (fun e ->
             Option.bind (Json.member "name" e) Json.to_string
             = Some "milp.solve")
           events))

(* ---- journal fast path ---- *)

let read_file path = In_channel.with_open_text path In_channel.input_all

let test_journal_appends_and_latency () =
  Dpv_linprog.Faults.disable ();
  with_temp_file (fun path ->
      let before = Metrics.snapshot () in
      let report =
        Campaign.run ~runners:1 ~journal:path ~perception (queries ())
      in
      Alcotest.(check int) "no write failures" 0
        report.Campaign.journal_write_failures;
      let delta = Metrics.since ~before (Metrics.snapshot ()) in
      Alcotest.(check (option int)) "every settle appended" (Some 3)
        (Metrics.counter_in delta "journal.appends");
      (match Metrics.histogram_in delta "journal.append_ns" with
      | Some h ->
          Alcotest.(check int) "latency histogram observed each append" 3
            h.Metrics.count
      | None -> Alcotest.fail "journal.append_ns histogram missing");
      let content = read_file path in
      Alcotest.(check int) "one line per entry" 3
        (List.length
           (List.filter
              (fun l -> String.trim l <> "")
              (String.split_on_char '\n' content)));
      match Journal.load ~path with
      | Ok entries -> Alcotest.(check int) "loads back" 3 (List.length entries)
      | Error e -> Alcotest.failf "journal does not load: %s" e)

let test_journal_torn_tail_tolerated () =
  Dpv_linprog.Faults.disable ();
  with_temp_file (fun path ->
      let report =
        Campaign.run ~runners:1 ~journal:path ~perception (queries ())
      in
      ignore report;
      (* Simulate a crash mid-append: a torn, unterminated final line. *)
      let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
      output_string oc "{\"key\": \"deadbeef\", \"label\": \"torn";
      close_out oc;
      (match Journal.load ~path with
      | Ok entries ->
          Alcotest.(check int) "complete entries survive, tail dropped" 3
            (List.length entries)
      | Error e -> Alcotest.failf "torn tail should be tolerated: %s" e);
      (* Mid-file corruption is damage, not a crash: still an error. *)
      let lines = String.split_on_char '\n' (read_file path) in
      let corrupted =
        match lines with
        | first :: rest ->
            String.concat "\n" (("garbage " ^ first) :: rest)
        | [] -> Alcotest.fail "journal empty"
      in
      let oc = open_out path in
      output_string oc corrupted;
      close_out oc;
      match Journal.load ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "mid-file corruption must not load")

let tests =
  [
    Alcotest.test_case "mclock is monotonic" `Quick test_mclock_monotonic;
    Alcotest.test_case "counters add exactly" `Quick test_counter_exact;
    Alcotest.test_case "gauges keep high water" `Quick test_gauge_high_water;
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_histogram_buckets;
    Alcotest.test_case "histogram observation totals" `Quick
      test_histogram_observe;
    Alcotest.test_case "snapshot diff" `Quick test_snapshot_since;
    Alcotest.test_case "snapshot merge (cross-process)" `Quick
      test_snapshot_merge;
    Alcotest.test_case "metrics JSON parses" `Quick test_metrics_json_parses;
    Alcotest.test_case "rate windows and sample units" `Quick
      test_rate_window_and_sample_units;
    Alcotest.test_case "quantile edge cases" `Quick test_quantile_edge_cases;
    QCheck_alcotest.to_alcotest qcheck_quantile_tracks_stats;
    Alcotest.test_case "OpenMetrics exposition format" `Quick
      test_expo_render_format;
    QCheck_alcotest.to_alcotest qcheck_expo_escaping_sound;
    Alcotest.test_case "exposition buckets are cumulative" `Quick
      test_expo_buckets_cumulative;
    Alcotest.test_case "report prints percentiles" `Quick
      test_report_prints_percentiles;
    Alcotest.test_case "disabled tracing emits nothing" `Quick
      test_disabled_path_emits_nothing;
    Alcotest.test_case "trace context tags and filters events" `Quick
      test_trace_context_tags_events;
    Alcotest.test_case "spans nest" `Quick test_span_nesting;
    Alcotest.test_case "spans survive exceptions" `Quick
      test_span_exception_reraised;
    Alcotest.test_case "pool workers get labelled tracks" `Quick
      test_pool_worker_spans;
    Alcotest.test_case "counter keys carry their fields" `Quick
      test_counter_keys_carry_their_fields;
    Alcotest.test_case "journal reads earlier lines" `Quick
      test_journal_reads_earlier_lines;
    Alcotest.test_case "campaign metrics equal legacy stats" `Quick
      test_campaign_metrics_agree_with_stats;
    Alcotest.test_case "campaign report embeds dpv-metrics/1" `Quick
      test_campaign_report_embeds_metrics;
    Alcotest.test_case "campaign trace covers the run" `Quick
      test_campaign_trace_covers_run;
    Alcotest.test_case "journal fast path appends lines" `Quick
      test_journal_appends_and_latency;
    Alcotest.test_case "journal tolerates a torn tail only" `Quick
      test_journal_torn_tail_tolerated;
  ]
