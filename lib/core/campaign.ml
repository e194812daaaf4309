module Milp = Dpv_linprog.Milp
module Pool = Dpv_linprog.Pool
module Clock = Dpv_linprog.Clock
module Faults = Dpv_linprog.Faults
module Network = Dpv_nn.Network
module Metrics = Dpv_obs.Metrics
module Trace = Dpv_obs.Trace

let m_queries = Metrics.counter "campaign.queries"
let m_cache_hits = Metrics.counter "campaign.cache_hits"
let m_cache_misses = Metrics.counter "campaign.cache_misses"
let m_crashed = Metrics.counter "campaign.crashed"
let m_skipped = Metrics.counter "campaign.skipped"
let m_retried = Metrics.counter "campaign.retried"
let m_resumed = Metrics.counter "campaign.resumed"

type query = {
  label : string;
  characterizer : Characterizer.t;
  psi : Dpv_spec.Risk.t;
  bounds : Verify.bounds_spec;
  characterizer_margin : float;
}

let query ?(characterizer_margin = 0.0) ~label ~characterizer ~psi ~bounds () =
  { label; characterizer; psi; bounds; characterizer_margin }

(* Queries are pure data (labels, weights, risk inequalities, bounds
   specs), so a digest of the marshalled value is a stable content key:
   structurally equal queries collide, anything else does not.  The
   journal records this key, which is what makes resume robust to the
   query list being reordered or extended between runs. *)
let query_key (q : query) = Digest.to_hex (Digest.string (Marshal.to_string q []))

(* Deterministic shard partition over the content digest: the first
   eight hex digits as an integer, mod the shard count.  Every process
   holding the same spec computes the same partition regardless of
   query order, host or OCaml version — which is the whole coordination
   protocol of [dpv campaign --shard i/n]. *)
let shard_index ~shards key =
  if shards < 1 then invalid_arg "Campaign.shard_index: shards must be >= 1";
  int_of_string ("0x" ^ String.sub key 0 8) mod shards

(* How the campaign spends its domain budget, as (pool runners, inner
   MILP workers).  [runners] is the total parallelism granted: with at
   least as many pending units as runners, the outer pool takes them
   all and each solve stays sequential (nesting a domain pool per unit
   would oversubscribe); with fewer units than runners — the sharded
   regime, or one huge query — the leftover domains move *inside* the
   units, splitting each MILP into subtree tasks so a campaign of one
   query still uses the whole budget.  [runners = 1] defers entirely to
   the caller's [milp_workers]. *)
let plan_workers ~runners ~milp_workers ~pending =
  if runners < 1 then invalid_arg "Campaign.plan_workers: runners must be >= 1";
  if runners = 1 then (1, milp_workers)
  else if pending = 0 then (1, 1)
  else if pending >= runners then (runners, 1)
  else (pending, Stdlib.max 1 (runners / pending))

type outcome = Journal.outcome =
  | Done of Verify.result
  | Crashed of string
  | Skipped of string

type query_report = {
  query : query;
  outcome : outcome;
  from_cache : bool;
  from_journal : bool;
  attempts : int;
  dense_retry : bool;
  deadline_retry : bool;
}

type cache_stats = { entries : int; hits : int; misses : int }

(* A shared-encoding cache that outlives one [run]: the resident server
   hands every job the same cache, so a (cut, bounds) prefix built for
   one client is served warm to every later client.  The lock guards
   the build-or-lookup window; phase 1 of a run is sequential, but two
   holders of the same cache may prepare concurrently. *)
type cache = {
  c_tbl : (int * Verify.bounds_spec, Encode.shared) Hashtbl.t;
  c_lock : Mutex.t;
}

let create_cache () = { c_tbl = Hashtbl.create 16; c_lock = Mutex.create () }

type report = {
  query_reports : query_report list;
  cache : cache_stats;
  runners : int;
  shard : (int * int) option;
  budget_s : float option;
  total_wall_s : float;
  degraded : bool;
  crashed : int;
  skipped : int;
  retried : int;
  resumed : int;
  journal_write_failures : int;
  metrics : Metrics.snapshot;
      (** what this campaign did to the global registry: counters and
          histograms as deltas over the run, gauges as end values *)
}

let skip_reason = "budget exhausted"

(* What one schedulable unit ended as, before its query folds it in. *)
type unit_outcome =
  | Solved of Verify.result * Retry.telemetry
  | Unit_crashed of string
  | Unit_skipped

(* A query that reached the pool.  [p_plan] is [None] when it runs
   whole (its one unit's outcome is the query's), and
   [Some (discharged, total_subboxes)] when its units merge under
   {!Verify.merge_bisected}.  Each unit fills its own outcome slot. *)
type pending = {
  p_slot : int;
  p_shared : Encode.shared;
  p_from_cache : bool;
  p_plan : (int * int) option;
  p_outcomes : unit_outcome option array;
  p_left : int Atomic.t;  (** units not yet recorded *)
}

(* One pool task: the whole shared prefix of an unbisected query, or
   one surviving sub-box of a bisected query's plan. *)
type work_unit = {
  u_pending : pending;
  u_index : int;  (** position in the plan *)
  u_box : Dpv_absint.Box_domain.t option;  (** restrict the prefix to it *)
  u_seed : Absguide.seed option;  (** the guide's root state *)
  u_time_cap_s : float option;  (** on top of the carved budget *)
  u_span : string;
  u_span_args : (string * string) list;
}

(* task-crash: a query task raises mid-flight. *)
let task_crash = Faults.site "task-crash"

let run ?(milp_options = Verify.default_milp_options) ?(runners = 1) ?shard
    ?budget_s ?journal ?resume ?(absint = false) ?bisect ?cache ?on_settled
    ?(after_settle = ignore) ?(trace = "") ~perception queries =
  if runners < 1 then invalid_arg "Campaign.run: runners must be >= 1";
  (match shard with
  | Some (i, n) when n < 1 || i < 0 || i >= n ->
      invalid_arg "Campaign.run: shard must be (i, n) with 0 <= i < n"
  | _ -> ());
  (* The whole-run span is what makes the coverage guarantee trivial:
     every other campaign span nests inside it. *)
  Trace.with_span
    ~args:
      [
        ("queries", string_of_int (List.length queries));
        ( "shard",
          match shard with
          | None -> "-"
          | Some (i, n) -> Printf.sprintf "%d/%d" i n );
      ]
    "campaign.run"
  @@ fun () ->
  let metrics_before = Metrics.snapshot () in
  let started = Clock.now_s () in
  let deadline = Clock.deadline_after budget_s in
  (* Sharding: every shard sees the full spec and runs its
     deterministic slice of the key space.  Filtering happens on keys,
     before any solving, so shards never overlap and their union is
     exactly the spec. *)
  let keep =
    match shard with
    | None -> fun _key -> true
    | Some (i, shards) -> fun key -> shard_index ~shards key = i
  in
  let keyed =
    List.map (fun q -> (query_key q, q)) queries
    |> List.filter (fun (key, _) -> keep key)
    |> Array.of_list
  in
  let n = Array.length keyed in
  (* Resume: only [Done] entries replay — a crashed or skipped query is
     exactly what a resumed campaign is there to retry. *)
  let resume_tbl : (string, Journal.entry) Hashtbl.t = Hashtbl.create 16 in
  (match resume with
  | None -> ()
  | Some entries ->
      List.iter
        (fun (e : Journal.entry) ->
          match e.Journal.outcome with
          | Done _ -> Hashtbl.replace resume_tbl e.Journal.key e
          | Crashed _ | Skipped _ -> ())
        entries);
  let replayed = Array.map (fun (key, _) -> Hashtbl.find_opt resume_tbl key) keyed in
  (* Seed the journal writer with the replayed entries (in input order)
     so the file on disk always describes the whole campaign. *)
  let seed = List.filter_map Fun.id (Array.to_list replayed) in
  (* A failed write is counted, not fatal: the writer keeps every
     entry and its next group rewrites the complete journal.  A
     campaign must not die on a full disk when it still has verdicts to
     produce. *)
  let writer = Option.map (fun path -> Journal.create ~path seed) journal in
  Fun.protect ~finally:(fun () -> Option.iter Journal.close writer)
  @@ fun () ->
  let reports : query_report option array = Array.make n None in
  (* Every query settles here exactly once: replayed from the resume
     journal, or filed with the journal by the task that finished it,
     which then goes on to its next unit.  [on_settled] runs once the
     entry is durable (a campaign killed after it still has the verdict
     on disk): on the journal's syncer, in settle order. *)
  let settle ?(from_cache = false) ?(from_journal = false) ?(attempts = 1)
      ?(dense_retry = false) ?(deadline_retry = false) i outcome =
    let key, q = keyed.(i) in
    let qr =
      { query = q; outcome; from_cache; from_journal; attempts; dense_retry;
        deadline_retry }
    in
    reports.(i) <- Some qr;
    (* The settle hook is observability, not control flow: a raising
       subscriber (a vanished network client, say) must never take the
       solve down with it. *)
    let notify () = Option.iter (fun f -> try f qr with _ -> ()) on_settled in
    (match writer with
    | Some w when not from_journal ->
        Journal.file w
          ~on_sync:(fun _ -> notify ())
          { Journal.key; label = q.label; outcome; attempts; dense_retry;
            deadline_retry }
    | _ -> notify ());
    after_settle ()
  in
  Array.iteri
    (fun i ->
      Option.iter (fun (e : Journal.entry) ->
          settle ~from_journal:true ~attempts:e.Journal.attempts
            ~dense_retry:e.Journal.dense_retry
            ~deadline_retry:e.Journal.deadline_retry i e.Journal.outcome))
    replayed;
  (* Phase 1 — resolve each distinct (cut, bounds) region once, for the
     queries that actually need solving.  Keys compare structurally, so
     two queries quoting equal visited-point sets (or the same array)
     share one suffix encoding.  This phase is sequential: it mutates
     the cache, and its cost is exactly what the cache is amortizing,
     paid once per distinct key. *)
  let cache = match cache with Some c -> c | None -> create_cache () in
  let hits = ref 0 and misses = ref 0 in
  (* A failed build is this query's failure, not the campaign's: the
     error is carried to phase 2a and recorded as a [Crashed] outcome.
     Failures are deliberately not cached — a later query on the same
     key retries the build (transient numerical trouble in the octagon
     pruning LPs should not condemn every query of the key).  A caller
     can pass its own [?cache] and keep it across runs — how the serve
     daemon amortizes one client's encodings for every later client. *)
  let shared_for q =
    let cut = q.characterizer.Characterizer.cut in
    let key = (cut, q.bounds) in
    match Mutex.protect cache.c_lock (fun () -> Hashtbl.find_opt cache.c_tbl key) with
    | Some shared ->
        incr hits;
        Metrics.incr m_cache_hits 1;
        Ok (shared, true)
    | None -> (
        match
          Trace.with_span
            ~args:[ ("label", q.label) ]
            "campaign.shared-encode"
            (fun () ->
              let suffix = Network.suffix perception ~cut in
              let feature_box, extra_faces =
                Verify.resolve_bounds ~perception ~cut q.bounds
              in
              Encode.build_shared ~suffix ~feature_box ~extra_faces ())
        with
        | shared ->
            incr misses;
            Metrics.incr m_cache_misses 1;
            Mutex.protect cache.c_lock (fun () ->
                Hashtbl.replace cache.c_tbl key shared);
            Ok (shared, false)
        | exception e ->
            Error (Printf.sprintf "encoding failed: %s" (Printexc.to_string e)))
  in
  let prepared =
    List.init n Fun.id
    |> List.filter (fun i -> reports.(i) = None)
    |> List.map (fun i -> (i, shared_for (snd keyed.(i))))
  in
  (* Phase 2a — sequential: turn each prepared query into units.
     Without bisection that is one unit over the whole shared prefix.
     With it, the input-bisection plan discharges cheap sub-boxes with
     DeepPoly and leaves one unit per survivor, so [plan_workers] sees
     the real pending width (one hard query still fans out across the
     domain budget).  A query left with no unit — its encoding failed,
     or its plan discharged every sub-box — settles right here. *)
  let units_of (i, shared_res) =
    let q = snd keyed.(i) in
    match shared_res with
    | Error reason ->
        settle i (Crashed reason);
        []
    | Ok (shared, from_cache) -> (
        (* [parts]: each unit's (sub-box, root seed), in plan order. *)
        let units ?plan ~span ~time_cap_s parts =
          let n = List.length parts in
          let p =
            { p_slot = i; p_shared = shared; p_from_cache = from_cache;
              p_plan = plan; p_outcomes = Array.make n None;
              p_left = Atomic.make n }
          in
          List.mapi
            (fun si (box, seed) ->
              { u_pending = p; u_index = si; u_box = box; u_seed = seed;
                u_time_cap_s = time_cap_s; u_span = span;
                u_span_args =
                  ("label", q.label)
                  :: (if plan = None then [] else [ ("subbox", string_of_int si) ]) })
            parts
        in
        match bisect with
        | None -> units ~span:"campaign.query" ~time_cap_s:None [ (None, None) ]
        | Some b -> (
            let subboxes =
              units ~span:"campaign.subbox"
                ~time_cap_s:b.Verify.subbox_time_limit_s
            in
            let t0 = Clock.now_s () in
            let feature_box = Encode.feature_box_of_shared shared in
            match
              Verify.bisect_plan ~max_depth:b.Verify.max_depth
                ~suffix:(Encode.suffix_of_shared shared)
                ~head:q.characterizer.Characterizer.head ~psi:q.psi
                ~characterizer_margin:q.characterizer_margin feature_box
            with
            | exception _ ->
                (* Planning is an optimization; if propagation dies the
                   whole box is solved as a single unit, with no root
                   seed to hand the guide. *)
                subboxes ~plan:(0, 1) [ (Some feature_box, None) ]
            | { Verify.survivors = []; discharged } as plan ->
                (* Every sub-box discharged by propagation alone. *)
                settle ~from_cache i
                  (Done
                     (Verify.merge_bisected
                        ~conditional:(Verify.is_conditional q.bounds)
                        ~discharged ~total_subboxes:(Verify.plan_total plan)
                        ~wall_time_s:(Clock.now_s () -. t0) ~unsolved:0 []));
                []
            | { Verify.survivors; discharged } as plan ->
                subboxes
                  ~plan:(discharged, Verify.plan_total plan)
                  (List.map (fun (box, sd) -> (Some box, Some sd)) survivors)))
  in
  let units = List.concat_map units_of prepared in
  (* Phase 2b — the units fan out on the work-stealing pool over the
     now read-only cache.  [plan_workers] splits the domain budget:
     enough units and the pool takes one coarse task per unit with
     sequential inner solves; fewer units than runners (a thin shard,
     or one huge query) and the spare domains move inside the MILPs as
     subtree-search workers instead of idling. *)
  let outer_runners, inner_workers =
    plan_workers ~runners ~milp_workers:milp_options.Milp.workers
      ~pending:(List.length units)
  in
  let solve u =
    let p = u.u_pending in
    let q = snd keyed.(p.p_slot) in
    (* Recorded, not dropped: the report (and journal) say exactly
       which queries the budget never reached. *)
    if Clock.expired deadline then Unit_skipped
    else begin
      if Faults.fire task_crash then failwith "injected task crash";
      (* Carved at task start, so early units cannot spend the whole
         campaign budget before later ones get their slice checked. *)
      let options =
        {
          milp_options with
          Milp.workers = inner_workers;
          time_limit_s =
            (match (Clock.carve deadline milp_options.Milp.time_limit_s, u.u_time_cap_s) with
            | None, t | t, None -> t
            | Some a, Some c -> Some (Stdlib.min a c));
        }
      in
      let shared =
        match u.u_box with
        | None -> p.p_shared
        | Some box -> Encode.restrict_shared p.p_shared ~feature_box:box
      in
      let result, t =
        Trace.with_span ~args:u.u_span_args u.u_span (fun () ->
            Retry.solve ~options ~deadline (fun opts ->
                Verify.run_query ~milp_options:opts ~absint
                  ?absint_seed:u.u_seed
                  ~characterizer_margin:q.characterizer_margin ~shared
                  ~head:q.characterizer.Characterizer.head ~psi:q.psi
                  ~conditional:(Verify.is_conditional q.bounds) ()))
      in
      Solved (result, t)
    end
  in
  (* Fold a query's unit outcomes, in plan order, into its outcome.  A
     validated UNSAFE witness decides the query no matter what happened
     to its other units; below that the worst infrastructure outcome
     wins, so degradation is never hidden behind a partial Safe.  Fault
     isolation is per unit: one crashed sub-box leaves its siblings'
     verdicts standing. *)
  let finish p =
    let q = snd keyed.(p.p_slot) in
    let outcomes = Array.to_list (Array.map Option.get p.p_outcomes) in
    let solved =
      List.filter_map (function Solved (r, t) -> Some (r, t) | _ -> None) outcomes
    in
    let results = List.map fst solved in
    let unsolved = List.length outcomes - List.length results in
    let result () =
      match p.p_plan with
      | None -> List.hd results
      | Some (discharged, total_subboxes) ->
          Verify.merge_bisected ~conditional:(Verify.is_conditional q.bounds)
            ~discharged ~total_subboxes
            ~wall_time_s:
              (List.fold_left
                 (fun acc (r : Verify.result) -> acc +. r.Verify.wall_time_s)
                 0.0 results)
            ~unsolved results
    in
    let unsafe (r : Verify.result) =
      match r.Verify.verdict with Verify.Unsafe _ -> true | _ -> false
    in
    let outcome =
      if List.exists unsafe results then Done (result ())
      else
        match
          ( List.find_map (function Unit_crashed why -> Some why | _ -> None) outcomes,
            p.p_plan )
        with
        | Some why, None -> Crashed why
        | Some why, Some _ -> Crashed ("sub-box crashed: " ^ why)
        | None, _ -> if unsolved > 0 then Skipped skip_reason else Done (result ())
    in
    (* Attempts are the most any unit that ran needed: at least 1 once
       the query is solved or crashed, 0 when the budget reached none. *)
    let attempts, dense_retry, deadline_retry =
      List.fold_left
        (fun (a, d, l) (_, (t : Retry.telemetry)) ->
          ( Stdlib.max a t.Retry.attempts,
            d || t.Retry.dense_retry,
            l || t.Retry.deadline_retry ))
        (0, false, false) solved
    in
    settle ~from_cache:p.p_from_cache
      ~attempts:(match outcome with Skipped _ -> attempts | _ -> Stdlib.max 1 attempts)
      ~dense_retry ~deadline_retry p.p_slot outcome
  in
  (* Each task records its unit's outcome, exceptions included; the one
     that records a query's last unit settles the query. *)
  let out =
    Pool.map_list ~workers:outer_runners
      (fun u ->
        let p = u.u_pending in
        p.p_outcomes.(u.u_index) <-
          Some (try solve u with e -> Unit_crashed (Printexc.to_string e));
        if Atomic.fetch_and_add p.p_left (-1) = 1 then finish p)
      units
  in
  (* A unit's own exceptions became its outcome, so a query is still
     unsettled here only if settling raised or the pool never ran one of
     its units: it settles as crashed instead of going missing. *)
  List.iteri
    (fun k u ->
      let p = u.u_pending in
      if Option.is_none reports.(p.p_slot) then
        settle ~from_cache:p.p_from_cache p.p_slot
          (Crashed
             (match out.(k) with
             | Some (Error e) -> Printexc.to_string e
             | _ -> "worker abandoned task")))
    units;
  (* Every index was replayed or settled above. *)
  let query_reports = Array.to_list (Array.map Option.get reports) in
  let count p = List.length (List.filter p query_reports) in
  let crashed = count (fun r -> match r.outcome with Crashed _ -> true | _ -> false) in
  let skipped = count (fun r -> match r.outcome with Skipped _ -> true | _ -> false) in
  let retried = count (fun r -> r.attempts > 1) in
  let resumed = count (fun r -> r.from_journal) in
  Metrics.incr m_queries (List.length query_reports);
  Metrics.incr m_crashed crashed;
  Metrics.incr m_skipped skipped;
  Metrics.incr m_retried retried;
  Metrics.incr m_resumed resumed;
  let total_wall_s = Clock.now_s () -. started in
  (* The delta is taken *before* the meta is filed below, so a shard's
     recorded snapshot excludes the bookkeeping of writing it — which
     is what lets [merged_to_json] sum shard snapshots into exact
     campaign totals.  It is also taken before the last group commit:
     that group's latencies and any failure of it reach the process
     registry, not this snapshot. *)
  let metrics = Metrics.since ~before:metrics_before (Metrics.snapshot ()) in
  (* Shard trailers are mandatory for merge; unsharded journals only
     grow one when there is a trace id worth correlating (served jobs),
     so plain batch journals stay one-line-per-query.  Filed right
     after the last entry, the trailer rides the same group commit. *)
  (match shard with
  | Some (i, shards) -> Some (i, shards)
  | None -> if trace <> "" then Some (0, 1) else None)
  |> Option.iter (fun (i, shards) ->
         Option.iter
           (fun w ->
             Journal.file_meta w
               { Journal.shard = i; shard_count = shards; runners;
                 total_wall_s; trace; metrics })
           writer);
  Option.iter Journal.close writer;
  {
    query_reports;
    (* Entries built *by this run* — with a caller-held persistent
       cache the table also carries prior runs' keys, which belong to
       their own reports. *)
    cache = { entries = !misses; hits = !hits; misses = !misses };
    runners;
    shard;
    budget_s;
    total_wall_s;
    degraded = crashed > 0 || skipped > 0;
    crashed;
    skipped;
    retried;
    resumed;
    journal_write_failures =
      Option.fold ~none:0 ~some:Journal.write_failures writer;
    metrics;
  }

let verdict_word = function
  | Verify.Safe _ -> "safe"
  | Verify.Unsafe _ -> "unsafe"
  | Verify.Unknown _ -> "unknown"

let outcome_word = function
  | Done _ -> "done"
  | Crashed _ -> "crashed"
  | Skipped _ -> "skipped"

let verdict_detail = function
  | Verify.Safe { conditional } ->
      if conditional then "conditional (monitor S~ at runtime)"
      else "unconditional"
  | Verify.Unsafe { logit; _ } -> Printf.sprintf "witness logit %.6g" logit
  | Verify.Unknown reason -> reason

(* One query record of the dpv-campaign/2 "queries" array — shared
   between {!to_json} (which has full query_reports) and
   {!merged_to_json} (which reconstructs records from journal entries,
   where every query is by definition [from_journal]). *)
let query_json ~label ~(outcome : outcome) ~from_cache ~from_journal ~attempts
    ~dense_retry ~deadline_retry =
  let verdict, detail, work =
    match outcome with
    | Done r ->
        let s = r.Verify.milp_stats in
        let milp =
          List.map
            (fun (c : Milp.counter) -> (c.report, Json.int (c.get s)))
            Milp.counters
          @ [ ("lp_time_s", Json.Num s.Milp.lp_time_s) ]
        in
        ( Json.Str (verdict_word r.Verify.verdict),
          verdict_detail r.Verify.verdict,
          [
            ("wall_s", Json.Num r.Verify.wall_time_s);
            ("encoding", Json.Str r.Verify.encoding);
            ("num_binaries", Json.int r.Verify.num_binaries);
            ("milp", Json.Obj milp);
          ] )
    | Crashed reason | Skipped reason -> (Json.Null, reason, [])
  in
  Json.Obj
    ([
       ("label", Json.Str label);
       ("outcome", Json.Str (outcome_word outcome));
       ("verdict", verdict);
       ("detail", Json.Str detail);
       ("from_cache", Json.Bool from_cache);
       ("from_journal", Json.Bool from_journal);
       ("attempts", Json.int attempts);
       ("dense_retry", Json.Bool dense_retry);
       ("deadline_retry", Json.Bool deadline_retry);
     ]
    @ work)

(* The dpv-campaign/2 document of [r]'s totals with the query records
   [queries] (a merged partition has records but no [query_reports]).
   Three levels take one member per line: down to one line per
   histogram and per [milp] object. *)
let report_document (r : report) queries =
  let opt f = function None -> Json.Null | Some v -> f v in
  let shard (i, n) =
    Json.Obj [ ("index", Json.int i); ("count", Json.int n) ]
  in
  Json.encode ~indent:3
    (Json.Obj
       [
         ("schema", Json.Str "dpv-campaign/2");
         ("runners", Json.int r.runners);
         ("shard", opt shard r.shard);
         ("budget_s", opt (fun s -> Json.Num s) r.budget_s);
         ("total_wall_s", Json.Num r.total_wall_s);
         ("degraded", Json.Bool r.degraded);
         ("crashed", Json.int r.crashed);
         ("skipped", Json.int r.skipped);
         ("retried", Json.int r.retried);
         ("resumed", Json.int r.resumed);
         ("journal_write_failures", Json.int r.journal_write_failures);
         ( "cache",
           Json.Obj
             [
               ("entries", Json.int r.cache.entries);
               ("hits", Json.int r.cache.hits);
               ("misses", Json.int r.cache.misses);
             ] );
         ("metrics", Metrics.to_json r.metrics);
         ("queries", Json.Arr queries);
       ])
  ^ "\n"

let to_json report =
  report_document report
    (List.map
       (fun qr ->
         query_json ~label:qr.query.label ~outcome:qr.outcome
           ~from_cache:qr.from_cache ~from_journal:qr.from_journal
           ~attempts:qr.attempts ~dense_retry:qr.dense_retry
           ~deadline_retry:qr.deadline_retry)
       report.query_reports)

let save_json report ~path =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_json report))

(* ---- Shard merging ------------------------------------------------ *)

(* Merge shard journals (as loaded by {!Journal.load_with_meta}) into
   one entry list plus the collected meta trailers.  Entries dedup by
   content key — shards of one partition never overlap, but operators
   re-run shards, and a re-run's journal may carry both a [Crashed]
   attempt and a later [Done]: the most conclusive outcome wins
   ([Done] > [Crashed] > [Skipped]), first occurrence on ties.  Order
   is first-seen, so merging is deterministic in the argument order. *)
let merge_journals shards =
  let rank (e : Journal.entry) =
    match e.Journal.outcome with Done _ -> 2 | Crashed _ -> 1 | Skipped _ -> 0
  in
  let tbl : (string, Journal.entry) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (entries, _metas) ->
      List.iter
        (fun (e : Journal.entry) ->
          match Hashtbl.find_opt tbl e.Journal.key with
          | None ->
              Hashtbl.add tbl e.Journal.key e;
              order := e.Journal.key :: !order
          | Some prev ->
              if rank e > rank prev then Hashtbl.replace tbl e.Journal.key e)
        entries)
    shards;
  let entries = List.rev_map (fun key -> Hashtbl.find tbl key) !order in
  let metas = List.concat_map snd shards in
  (entries, metas)

(* The one exit-code severity ladder, shared by the CLI campaign
   command, the serve daemon and merge-journals, so a streamed job, its
   batch twin and a merged partition can never disagree on the code:
   unsafe (1) dominates — a safety counterexample must never be masked
   by infrastructure trouble — then degraded (4: crashed or skipped
   queries), then unknown (2), then clean (0). *)
let exit_code outcomes =
  let any p = List.exists p outcomes in
  if any (function Done { Verify.verdict = Verify.Unsafe _; _ } -> true | _ -> false)
  then 1
  else if any (function Crashed _ | Skipped _ -> true | Done _ -> false) then 4
  else if any (function Done { Verify.verdict = Verify.Unknown _; _ } -> true | _ -> false)
  then 2
  else 0

let worst_exit_code entries =
  exit_code (List.map (fun (e : Journal.entry) -> e.Journal.outcome) entries)

let report_exit_code report =
  exit_code (List.map (fun r -> r.outcome) report.query_reports)

(* The dpv-campaign/2 report of a merged partition, rebuilt from what
   the shard journals persist.  Whole-campaign totals come from the
   summed meta metrics ({!Metrics.merge} over the trailers): cache
   hits/misses, journal write failures.  Every query is
   [from_journal] — the merge never re-solves anything. *)
let merged_to_json ~entries ~metas =
  let metrics =
    List.fold_left
      (fun acc (m : Journal.meta) -> Metrics.merge acc m.Journal.metrics)
      Metrics.empty_snapshot metas
  in
  let counter name = Option.value ~default:0 (Metrics.counter_in metrics name) in
  let count p = List.length (List.filter p entries) in
  let crashed =
    count (fun (e : Journal.entry) ->
        match e.Journal.outcome with Crashed _ -> true | _ -> false)
  in
  let skipped =
    count (fun (e : Journal.entry) ->
        match e.Journal.outcome with Skipped _ -> true | _ -> false)
  in
  let retried = count (fun (e : Journal.entry) -> e.Journal.attempts > 1) in
  let runners =
    List.fold_left (fun acc (m : Journal.meta) -> Stdlib.max acc m.Journal.runners) 1 metas
  in
  let total_wall_s =
    List.fold_left
      (fun acc (m : Journal.meta) -> Stdlib.max acc m.Journal.total_wall_s)
      0.0 metas
  in
  let misses = counter "campaign.cache_misses" in
  report_document
    {
      query_reports = [];
      cache =
        { entries = misses; hits = counter "campaign.cache_hits"; misses };
      runners;
      shard = None;
      budget_s = None;
      total_wall_s;
      degraded = crashed > 0 || skipped > 0;
      crashed;
      skipped;
      retried;
      resumed = List.length entries;
      journal_write_failures = counter "journal.write_failures";
      metrics;
    }
    (List.map
       (fun (e : Journal.entry) ->
         query_json ~label:e.Journal.label ~outcome:e.Journal.outcome
           ~from_cache:false ~from_journal:true ~attempts:e.Journal.attempts
           ~dense_retry:e.Journal.dense_retry
           ~deadline_retry:e.Journal.deadline_retry)
       entries)
