(* Measurement half of the dpv benchmark.  [run.py] generates the
   workload from its seed, calls one of the subcommands below with the
   generated spec, and turns the raw samples this program writes into
   the metrics it prints.  Everything here goes through the library's
   public entry points:

   - [batch] runs the generated campaign through [Campaign.run], the
     path behind [dpv campaign], once per pass until the window is used
     up.  With [--trace 1] every untraced pass is followed by a traced
     one, which walks every query through the layers' public functions
     itself, timing each call, so self times per layer can be summed.
   - [serve] starts [Dpv_serve.Server] in this process and drives it
     with closed-loop clients through [Client.submit_and_stream], the
     path behind [dpv serve] / [dpv client].
   - [prime] trains (or loads) the perception networks into the model
     cache; [frontier] computes the provable waypoint frontier the
     generator places thresholds around. *)

module Json = Dpv_core.Json
module Workflow = Dpv_core.Workflow
module Specfile = Dpv_core.Specfile
module Campaign = Dpv_core.Campaign
module Verify = Dpv_core.Verify
module Encode = Dpv_core.Encode
module Absguide = Dpv_core.Absguide
module Journal = Dpv_core.Journal
module Characterizer = Dpv_core.Characterizer
module Milp = Dpv_linprog.Milp
module Milp_par = Dpv_linprog.Milp_par
module Pool = Dpv_linprog.Pool
module Clock = Dpv_linprog.Clock
module Lp = Dpv_linprog.Lp
module Metrics = Dpv_obs.Metrics
module Network = Dpv_nn.Network
module Risk = Dpv_spec.Risk
module Server = Dpv_serve.Server
module Client = Dpv_serve.Client

let now () = float_of_int (Clock.monotonic_ns ()) /. 1e9
let num f = Json.Num f
let int i = Json.Num (float_of_int i)
let str s = Json.Str s

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let read_json path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.of_string text with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let write_json path v =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.encode v))

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> 0.0
      in
      scan ())

let host_json () =
  Json.Obj
    [
      ("domains", int (Domain.recommended_domain_count ()));
      ("ocaml", str Sys.ocaml_version);
    ]

let counter snap name = Option.value (Metrics.counter_in snap name) ~default:0

let hist_us snap name q =
  match Metrics.histogram_in snap name with
  | Some h when h.Metrics.count > 0 -> Metrics.quantile_of_hist h ~q /. 1e3
  | _ -> 0.0

let warm_rate ~warm ~cold =
  if warm + cold = 0 then 0.0 else float_of_int warm /. float_of_int (warm + cold)

(* ---------------- setup ---------------- *)

type setup = {
  parsed : Specfile.parsed;
  prepared : Workflow.prepared;
  builder : Specfile.builder;
  queries : Campaign.query list;
  prepare_s : float;
  queries_s : float;
}

(* Load the perception network from the primed cache, then train the
   characterizers and fit the bounds the spec's queries need. *)
let setup ~cache_dir spec =
  let parsed = ok_or_fail "spec" (Specfile.parse spec) in
  let prepared, prepare_s =
    timed (fun () -> Workflow.prepare_cached ~cache_dir parsed.Specfile.setup)
  in
  let builder = Specfile.builder prepared in
  let queries, queries_s =
    timed (fun () ->
        ok_or_fail "queries"
          (Specfile.queries builder
             ~default_cut:parsed.Specfile.setup.Workflow.cut
             parsed.Specfile.query_specs))
  in
  { parsed; prepared; builder; queries; prepare_s; queries_s }

let setup_json samples =
  Json.Obj
    [
      ("setup_s", Json.Arr (List.map (fun (s, _, _) -> num s) samples));
      ("prepare_s", Json.Arr (List.map (fun (_, p, _) -> num p) samples));
      ("queries_s", Json.Arr (List.map (fun (_, _, q) -> num q) samples));
    ]

(* ---------------- batch: untraced passes ---------------- *)

let result_fields label (r : Verify.result) =
  let s = r.Verify.milp_stats in
  [
    ("label", str label);
    ("outcome", str "done");
    ("verdict", str (Campaign.verdict_word r.Verify.verdict));
    ( "reason",
      str (match r.Verify.verdict with Verify.Unknown why -> why | _ -> "") );
    ("wall_s", num r.Verify.wall_time_s);
    ("nodes", int s.Milp.nodes_explored);
    ("lps", int s.Milp.lp_solved);
    ("pivots", int s.Milp.pivots);
    ("layers_propagated", int s.Milp.absint_layers_propagated);
  ]

let query_report_json (qr : Campaign.query_report) =
  let label = qr.Campaign.query.Campaign.label in
  match qr.Campaign.outcome with
  | Campaign.Done r ->
      Json.Obj
        (result_fields label r
        @ [
            ("from_journal", Json.Bool qr.Campaign.from_journal);
            ("attempts", int qr.Campaign.attempts);
          ])
  | Campaign.Crashed why | Campaign.Skipped why ->
      Json.Obj
        [
          ("label", str label);
          ("outcome", str (Campaign.outcome_word qr.Campaign.outcome));
          ("reason", str why);
        ]

(* One [Campaign.run] over the queries.  With [trace_file], tracing is
   armed for the run and the Chrome trace written afterwards, as
   [dpv campaign --trace] does; both count in the pass wall. *)
let batch_pass ?trace_file ~milp_options ~runners ~absint ~bisect ~journal
    ~perception queries =
  let report, wall =
    timed (fun () ->
        if trace_file <> None then Dpv_obs.Trace.configure ();
        let report =
          Campaign.run ~milp_options ~runners ~journal ~absint ?bisect
            ~perception queries
        in
        Option.iter
          (fun path ->
            Dpv_obs.Trace.write ~path;
            Dpv_obs.Trace.disable ();
            Dpv_obs.Trace.clear ())
          trace_file;
        report)
  in
  let m = report.Campaign.metrics in
  Json.Obj
    [
      ("wall_s", num wall);
      ( "queries",
        Json.Arr (List.map query_report_json report.Campaign.query_reports) );
      ("retried", int report.Campaign.retried);
      ("cache_hits", int report.Campaign.cache.Campaign.hits);
      ("cache_misses", int report.Campaign.cache.Campaign.misses);
      ("journal_appends", int (counter m "journal.appends"));
      ("subboxes", int (counter m "bisect.subboxes"));
      ("discharged", int (counter m "bisect.discharged"));
    ]

(* ---------------- batch: traced walk ----------------

   The same work Campaign.run does for these queries, with every call
   into a layer timed by the benchmark itself.  Phase 1 (sequential)
   resolves and encodes each distinct (cut, bounds) key once and, under
   bisection, plans every query; phase 2 solves the units on a pool of
   [runners] domains with sequential inner searches; phase 3 (bisection
   only) merges sub-box verdicts and journals them.  Verdict mapping
   repeats Verify.run_query, so that verdicts and work counts can be
   compared with the untraced passes exactly. *)

type traced_unit = {
  u_restrict : float;
  u_complete : float;
  u_factory : float;
  u_consult : float;
  u_consults : int;
  u_solve : float;  (* Milp_par.solve_with_stats, consults included *)
  u_journal : float;
  u_busy : float;  (* the whole unit, as the pool ran it *)
  u_node_limit : bool;
  u_result : Verify.result;
}

let concrete_tol = 1e-5

let verdict_of ~encoding ~suffix ~head ~psi ~characterizer_margin ~conditional
    = function
  | Milp.Infeasible -> Verify.Safe { conditional }
  | Milp.Node_limit -> Verify.Unknown "branch-and-bound node limit reached"
  | Milp.Timeout -> Verify.Unknown Verify.deadline_reason
  | Milp.Unbounded -> Verify.Unknown "LP relaxation unbounded (missing bounds)"
  | Milp.Optimal { solution; _ } | Milp.Feasible { solution; _ } ->
      let features =
        Array.map (fun v -> solution.(v)) encoding.Encode.feature_vars
      in
      let output = Network.forward suffix features in
      let logit = (Network.forward head features).(0) in
      if
        Risk.holds ~tol:concrete_tol psi output
        && logit >= characterizer_margin -. concrete_tol
      then Verify.Unsafe { features; output; logit }
      else Verify.Unknown "MILP witness failed concrete validation"

(* One solve of [q] over [shared], step by step as Verify.run_query
   takes it, with the guide's instances wrapped in a timing closure. *)
let traced_query ~milp_options ~absint ?absint_seed ~shared (q : Campaign.query) =
  let head = q.Campaign.characterizer.Characterizer.head in
  let psi = q.Campaign.psi in
  let characterizer_margin = q.Campaign.characterizer_margin in
  let suffix = Encode.suffix_of_shared shared in
  let q0 = now () in
  let encoding, t_complete =
    timed (fun () -> Encode.complete shared ~head ~characterizer_margin ~psi ())
  in
  let consult_ns = Atomic.make 0 and consults = Atomic.make 0 in
  let options, t_factory =
    timed (fun () ->
        if not absint then milp_options
        else
          let f =
            Absguide.factory ?seed:absint_seed ~suffix ~head
              ~feature_box:(Encode.feature_box_of_shared shared)
              ~suffix_relus:(Encode.suffix_relu_vars_of_shared shared)
              ~head_relus:encoding.Encode.head_relu_vars ~psi
              ~characterizer_margin ()
          in
          let new_guide () =
            let g = f.Milp.new_guide () in
            fun lp ->
              let c0 = Clock.monotonic_ns () in
              let r = g lp in
              ignore
                (Atomic.fetch_and_add consult_ns (Clock.monotonic_ns () - c0));
              Atomic.incr consults;
              r
          in
          { milp_options with Milp.absint = Some { f with Milp.new_guide } })
  in
  let (res, stats), t_solve =
    timed (fun () -> Milp_par.solve_with_stats ~options encoding.Encode.model)
  in
  let verdict =
    verdict_of ~encoding ~suffix ~head ~psi ~characterizer_margin
      ~conditional:(Verify.is_conditional q.Campaign.bounds)
      res
  in
  {
    u_restrict = 0.0;
    u_complete = t_complete;
    u_factory = t_factory;
    u_consult = float_of_int (Atomic.get consult_ns) /. 1e9;
    u_consults = Atomic.get consults;
    u_solve = t_solve;
    u_journal = 0.0;
    u_busy = 0.0;
    u_node_limit = res = Milp.Node_limit;
    u_result =
      {
        Verify.verdict;
        milp_stats = stats;
        encoding = Encode.size_description encoding;
        num_binaries = encoding.Encode.num_binaries;
        wall_time_s = now () -. q0;
      };
  }

(* Nearest-rank quantile of a sorted list. *)
let nearest_rank p = function
  | [] -> 0.0
  | l ->
      let n = List.length l in
      let k = int_of_float (Float.ceil (p *. float_of_int n)) in
      List.nth l (Stdlib.max 0 (Stdlib.min (n - 1) (k - 1)))

let traced_pass ~milp_options ~runners ~absint ~bisect ~journal ~perception
    queries =
  let before = Metrics.snapshot () in
  let t_start = now () in
  let writer = Journal.create ~path:journal [] in
  let append key (q : Campaign.query) outcome =
    let entry =
      {
        Journal.key;
        label = q.Campaign.label;
        outcome;
        attempts = 1;
        dense_retry = false;
        deadline_retry = false;
      }
    in
    snd (timed (fun () -> Journal.append writer entry))
  in
  (* Phase 1: one shared prefix per distinct (cut, bounds) key, and
     under bisection one plan per query. *)
  let cache = Hashtbl.create 8 in
  let t_resolve = ref 0.0 and t_shared = ref 0.0 and t_plan = ref 0.0 in
  let subboxes = ref 0 and discharged = ref 0 in
  let shared_for (q : Campaign.query) =
    let cut = q.Campaign.characterizer.Characterizer.cut in
    let key = (cut, q.Campaign.bounds) in
    match Hashtbl.find_opt cache key with
    | Some s -> s
    | None ->
        let (feature_box, extra_faces), dt =
          timed (fun () ->
              Verify.resolve_bounds ~perception ~cut q.Campaign.bounds)
        in
        t_resolve := !t_resolve +. dt;
        let shared, dt =
          timed (fun () ->
              let suffix = Network.suffix perception ~cut in
              Encode.build_shared ~suffix ~feature_box ~extra_faces ())
        in
        t_shared := !t_shared +. dt;
        Hashtbl.replace cache key shared;
        shared
  in
  let prepared =
    Array.of_list
      (List.map (fun q -> (Campaign.query_key q, q, shared_for q)) queries)
  in
  let plans = Array.make (Array.length prepared) (0, 0, 0.0) in
  let units =
    List.concat
      (List.mapi
         (fun j (_, (q : Campaign.query), shared) ->
           match bisect with
           | None -> [ (j, None) ]
           | Some b ->
               let plan, dt =
                 timed (fun () ->
                     Verify.bisect_plan ~max_depth:b.Verify.max_depth
                       ~suffix:(Encode.suffix_of_shared shared)
                       ~head:q.Campaign.characterizer.Characterizer.head
                       ~psi:q.Campaign.psi
                       ~characterizer_margin:q.Campaign.characterizer_margin
                       (Encode.feature_box_of_shared shared))
               in
               t_plan := !t_plan +. dt;
               subboxes := !subboxes + Verify.plan_total plan;
               discharged := !discharged + plan.Verify.discharged;
               plans.(j) <-
                 (plan.Verify.discharged, Verify.plan_total plan, dt);
               List.map (fun sub -> (j, Some sub)) plan.Verify.survivors)
         (Array.to_list prepared))
  in
  (* Phase 2: the units on the pool. *)
  let run_unit (j, sub) =
    let u0 = now () in
    let key, q, shared = prepared.(j) in
    let u =
      match sub with
      | None ->
          let u = traced_query ~milp_options ~absint ~shared q in
          { u with u_journal = append key q (Journal.Done u.u_result) }
      | Some (box, seed) ->
          let sub_shared, dt =
            timed (fun () -> Encode.restrict_shared shared ~feature_box:box)
          in
          let u =
            traced_query ~milp_options ~absint ~absint_seed:seed
              ~shared:sub_shared q
          in
          { u with u_restrict = dt }
    in
    { u with u_busy = now () -. u0 }
  in
  let out, pool_wall =
    timed (fun () -> Pool.map_list ~workers:runners run_unit units)
  in
  let done_units =
    List.map2
      (fun (j, _) cell ->
        match cell with
        | Some (Ok u) -> (j, u)
        | Some (Error e) -> raise e
        | None -> failwith "traced unit abandoned")
      units (Array.to_list out)
  in
  (* Phase 3: one result per query, merged and journaled under
     bisection. *)
  let results =
    Array.mapi
      (fun j (key, (q : Campaign.query), _) ->
        let mine =
          List.filter_map
            (fun (k, u) -> if k = j then Some u.u_result else None)
            done_units
        in
        match bisect with
        | None -> (List.hd mine, 0.0)
        | Some _ ->
            let discharged, total, plan_dt = plans.(j) in
            let wall =
              if mine = [] then plan_dt
              else
                List.fold_left (fun a r -> a +. r.Verify.wall_time_s) 0.0 mine
            in
            let r =
              Verify.merge_bisected
                ~conditional:(Verify.is_conditional q.Campaign.bounds)
                ~discharged ~total_subboxes:total ~wall_time_s:wall
                ~unsolved:0 mine
            in
            (r, append key q (Journal.Done r)))
      prepared
  in
  Journal.close writer;
  let wall = now () -. t_start in
  let delta = Metrics.since ~before (Metrics.snapshot ()) in
  let us = List.map snd done_units in
  let sum f = List.fold_left (fun a u -> a +. f u) 0.0 us in
  let isum f = List.fold_left (fun a u -> a + f u) 0 us in
  let ssum f = isum (fun u -> f u.u_result.Verify.milp_stats) in
  let appends =
    List.sort compare
      (List.filter
         (fun t -> t > 0.0)
         (List.map (fun u -> u.u_journal) us
         @ Array.to_list (Array.map snd results)))
  in
  let busy = sum (fun u -> u.u_busy) in
  let t_simplex = sum (fun u -> u.u_result.Verify.milp_stats.Milp.lp_time_s) in
  let layer_times =
    [
      ("verify.resolve_bounds_ms", !t_resolve);
      ("encode.shared_ms", !t_shared);
      ("encode.complete_ms", sum (fun u -> u.u_complete));
      ("encode.restrict_ms", sum (fun u -> u.u_restrict));
      ("bisect.plan_ms", !t_plan);
      ("absguide.consult_ms", sum (fun u -> u.u_factory +. u.u_consult));
      ("milp.other_ms", sum (fun u -> u.u_solve -. u.u_consult) -. t_simplex);
      ("simplex.ms", t_simplex);
      ("journal.append_ms", List.fold_left ( +. ) 0.0 appends);
    ]
  in
  (* Everything the walk spent on these queries: the sequential phases
     plus every unit the pool ran. *)
  let work =
    !t_resolve +. !t_shared +. !t_plan +. busy
    +. Array.fold_left (fun a (_, t) -> a +. t) 0.0 results
  in
  let attributed = List.fold_left (fun a (_, t) -> a +. t) 0.0 layer_times in
  let warm = ssum (fun s -> s.Milp.warm_starts) in
  let cold = ssum (fun s -> s.Milp.cold_starts) in
  let ms x = num (x *. 1e3) in
  Json.Obj
    [
      ("wall_s", num wall);
      ( "queries",
        Json.Arr
          (Array.to_list
             (Array.mapi
                (fun j (r, _) ->
                  let _, (q : Campaign.query), _ = prepared.(j) in
                  Json.Obj (result_fields q.Campaign.label r))
                results)) );
      ( "layers",
        Json.Obj
          (List.map (fun (name, t) -> (name, ms t)) layer_times
          @ [
              ( "encode.binaries",
                int (isum (fun u -> u.u_result.Verify.num_binaries)) );
              ("bisect.subboxes", int !subboxes);
              ("bisect.discharged", int !discharged);
              ("absguide.consults", int (isum (fun u -> u.u_consults)));
              ("absguide.prunes", int (ssum (fun s -> s.Milp.absint_prunes)));
              ( "absguide.phase_fixes",
                int (ssum (fun s -> s.Milp.absint_phase_fixes)) );
              ( "absguide.layers_propagated",
                int (ssum (fun s -> s.Milp.absint_layers_propagated)) );
              ( "absguide.layers_saved",
                int (ssum (fun s -> s.Milp.absint_layers_saved)) );
              ("milp.solves", int (List.length us));
              ("milp.nodes", int (ssum (fun s -> s.Milp.nodes_explored)));
              ("milp.node_limit", int (isum (fun u -> Bool.to_int u.u_node_limit)));
              ("simplex.lps", int (ssum (fun s -> s.Milp.lp_solved)));
              ("simplex.pivots", int (ssum (fun s -> s.Milp.pivots)));
              ("simplex.cold_starts", int cold);
              ("simplex.warm_start_rate", num (warm_rate ~warm ~cold));
              ("simplex.fallbacks", int (ssum (fun s -> s.Milp.fallbacks)));
              ("simplex.lp_p50_us", num (hist_us delta "milp.lp_solve_ns" 0.5));
              ("simplex.lp_p99_us", num (hist_us delta "milp.lp_solve_ns" 0.99));
              ( "campaign.idle_ms",
                ms ((float_of_int runners *. pool_wall) -. busy) );
              ("journal.appends", int (List.length appends));
              ("journal.append_p50_us", num (nearest_rank 0.5 appends *. 1e6));
              ("journal.append_p99_us", num (nearest_rank 0.99 appends *. 1e6));
              ("work_ms", ms work);
              ("unattributed_ms", ms (work -. attributed));
            ]) );
    ]

(* Whole passes until [window] seconds are used up, at least one. *)
let repeat_for window pass =
  let t0 = now () in
  let rec go acc =
    if acc <> [] && now () -. t0 >= window then List.rev acc
    else match pass () with None -> List.rev acc | Some p -> go (p :: acc)
  in
  go []

let batch ~cache_dir ~spec_path ~work ~seconds ~trace ~absint ~bisect_depth
    ~branch_rule ~out =
  let spec = read_json spec_path in
  let samples = ref [] in
  let last = ref None in
  for _ = 1 to 3 do
    let s, dt = timed (fun () -> setup ~cache_dir spec) in
    samples := (dt, s.prepare_s, s.queries_s) :: !samples;
    last := Some s
  done;
  let s = Option.get !last in
  let branch_rule =
    if branch_rule = "order" then Milp.Guide_order
    else Milp.default_options.Milp.branch_rule
  in
  let milp_options = Specfile.milp_options ~branch_rule s.parsed in
  let runners = s.parsed.Specfile.runners in
  let bisect =
    if bisect_depth > 0 then
      Some { Verify.default_bisect_options with Verify.max_depth = bisect_depth }
    else None
  in
  let perception = s.prepared.Workflow.perception in
  let n = ref 0 in
  let journal () =
    incr n;
    Filename.concat work (Printf.sprintf "pass-%d.jsonl" !n)
  in
  let untraced () =
    batch_pass ~milp_options ~runners ~absint ~bisect ~journal:(journal ())
      ~perception s.queries
  in
  let observed () =
    batch_pass
      ~trace_file:(Filename.concat work "trace.json")
      ~milp_options ~runners ~absint ~bisect ~journal:(journal ()) ~perception
      s.queries
  in
  let walked () =
    traced_pass ~milp_options ~runners ~absint ~bisect ~journal:(journal ())
      ~perception s.queries
  in
  (* With [trace], every untraced pass is followed by a [Campaign.run]
     pass with tracing armed (the observability cost) and by a walk (the
     per-layer split), so that drift in the host's speed weighs on all
     three alike. *)
  let rounds =
    repeat_for seconds (fun () ->
        let p = untraced () in
        Some (p, if trace then Some (observed (), walked ()) else None))
  in
  let passes = List.map fst rounds in
  let extra = List.filter_map snd rounds in
  let observed = List.map fst extra and traced = List.map snd extra in
  write_json out
    (Json.Obj
       [
         ("host", host_json ());
         ("setup", setup_json (List.rev !samples));
         ("passes", Json.Arr passes);
         ("observed", Json.Arr observed);
         ("traced", Json.Arr traced);
         ("peak_rss_mb", num (peak_rss_mb ()));
       ])

(* ---------------- serve ---------------- *)

type job_sample = {
  index : int;
  submitted : float;
  accepted : float;
  first_verdict : float;
  finished : float;
  job_id : string;
  frames : Json.t list;  (* verdict and done frames, in arrival order *)
  outcome : string;  (* "finished", "busy" or the failure text *)
}

(* One job through the stream, every frame timestamped on arrival. *)
let run_job fd ~trace ~index spec =
  let request =
    Json.encode
      (Json.Obj
         [ ("op", str "submit"); ("trace", Json.Bool trace); ("spec", spec) ])
  in
  let accepted = ref nan and first_verdict = ref nan and job_id = ref "" in
  let frames = ref [] in
  let submitted = now () in
  let outcome =
    Client.submit_and_stream fd ~request ~on_frame:(fun payload ->
        let t = now () in
        match Json.of_string payload with
        | Error _ -> ()
        | Ok v -> (
            match Option.bind (Json.member "type" v) Json.to_string with
            | Some "accepted" ->
                accepted := t;
                job_id :=
                  Option.value ~default:""
                    (Option.bind (Json.member "job" v) Json.to_string)
            | Some "verdict" ->
                if Float.is_nan !first_verdict then first_verdict := t;
                frames := v :: !frames
            | Some "done" -> frames := v :: !frames
            | _ -> ()))
  in
  {
    index;
    submitted;
    accepted = !accepted;
    first_verdict = !first_verdict;
    finished = now ();
    job_id = !job_id;
    frames = List.rev !frames;
    outcome =
      (match outcome with
      | Client.Finished _ -> "finished"
      | Client.Busy _ -> "busy"
      | Client.Failed why -> why);
  }

(* A closed loop: each client connection submits its next job when the
   previous [done] arrives. *)
let serve_pass ~socket ~clients ~trace jobs =
  let next = Atomic.make 0 in
  let lock = Mutex.create () in
  let samples = ref [] in
  let client () =
    let fd = Client.connect_unix ~path:socket in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < Array.length jobs then begin
            let index, spec = jobs.(i) in
            let j = run_job fd ~trace ~index spec in
            Mutex.protect lock (fun () -> samples := j :: !samples);
            loop ()
          end
        in
        loop ())
  in
  let (), wall =
    timed (fun () ->
        List.iter Thread.join
          (List.init clients (fun _ -> Thread.create client ())))
  in
  (wall, List.sort (fun a b -> compare a.index b.index) !samples)

let rpc_json fd request =
  ok_or_fail "reply"
    (Json.of_string (ok_or_fail "rpc" (Client.rpc fd (Json.encode request))))

type server = { thread : Thread.t; control : Unix.file_descr }

(* Set-up as [dpv serve] does it, up to the first answered ping.  The
   server runs its sampler domain, as deployed. *)
let start_server ~cache_dir ~dir spec =
  mkdir_p dir;
  let s = setup ~cache_dir spec in
  let config =
    { (Server.default_config ~state_dir:dir) with Server.capacity = 4; runners = 2 }
  in
  let srv =
    Server.create ~config ~perception:s.prepared.Workflow.perception
      ~builder:s.builder ~base:s.parsed ~base_spec:spec ()
  in
  let socket = Filename.concat dir "s.sock" in
  let fd = Server.listen_unix ~path:socket in
  let thread = Thread.create (fun () -> Server.serve srv fd) () in
  let control = Client.connect_unix ~path:socket in
  (match Json.member "type" (rpc_json control (Json.Obj [ ("op", str "ping") ])) with
  | Some (Json.Str "pong") -> ()
  | _ -> failwith "server did not answer ping");
  (s, { thread; control }, socket)

let stop_server sv =
  ignore (Client.rpc sv.control (Json.encode (Json.Obj [ ("op", str "drain") ])));
  Thread.join sv.thread;
  Unix.close sv.control

let serve_layers snap =
  let c = counter snap in
  let job_ns, jobs =
    match Metrics.histogram_in snap "serve.job_ns" with
    | Some h -> (h.Metrics.sum, h.Metrics.count)
    | None -> (0, 0)
  in
  let warm = c "simplex.warm_starts" and cold = c "simplex.cold_starts" in
  Json.Obj
    [
      ("serve.job_ms_sum", num (float_of_int job_ns /. 1e6));
      ("serve.jobs", int jobs);
      ("serve.busy", int (c "serve.rejected_busy"));
      ("journal.appends", int (c "journal.appends"));
      ("journal.append_p50_us", num (hist_us snap "journal.append_ns" 0.5));
      ("journal.append_p99_us", num (hist_us snap "journal.append_ns" 0.99));
      ("milp.solves", int (c "milp.solves"));
      ("milp.nodes", int (c "milp.nodes"));
      ("simplex.ms", num (float_of_int (c "milp.lp_time_ns") /. 1e6));
      ("simplex.lps", int (c "milp.lps"));
      ("simplex.pivots", int (c "simplex.pivots"));
      ("simplex.cold_starts", int cold);
      ("simplex.warm_start_rate", num (warm_rate ~warm ~cold));
      ("simplex.fallbacks", int (c "simplex.fallbacks"));
      ("simplex.lp_p50_us", num (hist_us snap "milp.lp_solve_ns" 0.5));
      ("simplex.lp_p99_us", num (hist_us snap "milp.lp_solve_ns" 0.99));
      ("campaign.cache_hits", int (c "campaign.cache_hits"));
      ("campaign.cache_misses", int (c "campaign.cache_misses"));
      ("campaign.retries", int (c "campaign.retried"));
    ]

let serve ~cache_dir ~base_path ~jobs_path ~work ~seconds ~trace ~clients ~out =
  let spec = read_json base_path in
  let remaining =
    ref
      (Option.get (Json.to_list (read_json jobs_path))
      |> List.map (fun p -> Array.of_list (Option.get (Json.to_list p))))
  in
  let samples = ref [] in
  let setup_sample () =
    let dir =
      Filename.concat work (Printf.sprintf "serve-%d" (List.length !samples))
    in
    let (s, sv, socket), dt =
      timed (fun () -> start_server ~cache_dir ~dir spec)
    in
    samples := (dt, s.prepare_s, s.queries_s) :: !samples;
    (sv, socket, dir)
  in
  let throwaway_setup () =
    let sv, _, _ = setup_sample () in
    stop_server sv
  in
  (* One set-up takes a fifth of a second, and on a shared host its time
     flips between two speeds from one second to the next.  So besides
     the server that takes the jobs, an untraced run sets up and stops a
     server before every pass: the median then spans the same stretch of
     time as the passes.  A traced run sets up nine times up front, so
     that the metrics delta around its passes holds their work only. *)
  let sv, socket, dir = setup_sample () in
  if trace then for _ = 2 to 9 do throwaway_setup () done;
  let index = ref 0 in
  (* Peak RSS after a fixed number of untraced passes, so that it does not
     grow with the samples this program keeps on a faster host. *)
  let rss_passes = 5 and untraced_done = ref 0 and rss = ref None in
  (* Each job of the generated list is submitted once. *)
  let next_pass ~trace () =
    match !remaining with
    | [] -> None
    | pass :: rest ->
        remaining := rest;
        let jobs =
          Array.map
            (fun spec ->
              incr index;
              (!index - 1, spec))
            pass
        in
        let p = serve_pass ~socket ~clients ~trace jobs in
        if not trace then begin
          incr untraced_done;
          if !untraced_done = rss_passes then rss := Some (peak_rss_mb ())
        end;
        Some p
  in
  let metrics since = rpc_json sv.control (Json.Obj (("op", str "metrics") :: since)) in
  let before = if trace then Some (metrics []) else None in
  (* As in [batch]: traced passes alternate with untraced ones. *)
  let pairs =
    repeat_for seconds (fun () ->
        if not trace then throwaway_setup ();
        Option.map
          (fun p -> (p, if trace then next_pass ~trace:true () else None))
          (next_pass ~trace:false ()))
  in
  let untraced = List.map fst pairs and traced = List.filter_map snd pairs in
  let delta =
    Option.bind before (fun b ->
        match Option.bind (Json.member "cursor" b) Json.to_int with
        | Some c -> Json.member "metrics" (metrics [ ("since", int c) ])
        | None -> None)
  in
  stop_server sv;
  (* Per-query results, as each served job journaled them. *)
  let results j =
    match
      Journal.load ~path:(Filename.concat dir ("job-" ^ j.job_id ^ ".jsonl"))
    with
    | Error _ -> []
    | Ok entries ->
        List.filter_map
          (fun (e : Journal.entry) ->
            Option.map
              (fun r -> Json.Obj (result_fields e.Journal.label r))
              (Journal.result_of_entry e))
          entries
  in
  (* [null] when the frame never came (busy, failed or no verdict). *)
  let since_submit j t =
    if Float.is_nan t then Json.Null else num (t -. j.submitted)
  in
  let job_json j =
    Json.Obj
      [
        ("index", int j.index);
        ("job", str j.job_id);
        ("accept_s", since_submit j j.accepted);
        ("first_verdict_s", since_submit j j.first_verdict);
        ("done_s", num (j.finished -. j.submitted));
        ("outcome", str j.outcome);
        ("frames", Json.Arr j.frames);
        ("results", Json.Arr (results j));
      ]
  in
  let pass_json (wall, js) =
    Json.Obj [ ("wall_s", num wall); ("jobs", Json.Arr (List.map job_json js)) ]
  in
  let layers =
    match delta with
    | None -> Json.Null
    | Some m ->
        serve_layers (ok_or_fail "metrics" (Journal.parse_metrics ~line:0 m))
  in
  write_json out
    (Json.Obj
       [
         ("host", host_json ());
         ("setup", setup_json (List.rev !samples));
         ("passes", Json.Arr (List.map pass_json untraced));
         ("traced", Json.Arr (List.map pass_json traced));
         ("layers", layers);
         ("peak_rss_mb", num (Option.value !rss ~default:(peak_rss_mb ())));
       ])

(* ---------------- prime / frontier ---------------- *)

(* Train (or load) each spec's perception network into the cache and
   print the seconds each took. *)
let prime ~cache_dir spec_paths =
  let times =
    List.map
      (fun path ->
        let parsed = ok_or_fail path (Specfile.parse (read_json path)) in
        let _, dt =
          timed (fun () ->
              Workflow.prepare_cached ~cache_dir parsed.Specfile.setup)
        in
        (Filename.basename path, num dt))
      spec_paths
  in
  print_endline (Json.encode (Json.Obj times))

(* Per query of the spec: the largest and smallest waypoint the network
   can suggest while the characterizer fires inside the query's region,
   and the reachable waypoints nearest zero from either side.  A
   far-left/far-right threshold beyond these is provably safe, one
   inside is reachable. *)
let frontier ~cache_dir spec_path =
  let s = setup ~cache_dir (read_json spec_path) in
  let perception = s.prepared.Workflow.perception in
  let waypoint =
    Dpv_spec.Linexpr.output Dpv_scenario.Affordance.waypoint_index
  in
  let entries =
    List.map
      (fun (q : Campaign.query) ->
        let cut = q.Campaign.characterizer.Characterizer.cut in
        let suffix = Network.suffix perception ~cut in
        let head = q.Campaign.characterizer.Characterizer.head in
        let feature_box, extra_faces =
          Verify.resolve_bounds ~perception ~cut q.Campaign.bounds
        in
        let optimum ?psi sense =
          let enc =
            Encode.build ~suffix ~head ~feature_box ~extra_faces ?psi ()
          in
          let enc = Encode.set_output_objective enc ~sense waypoint in
          let options = { Milp.default_options with Milp.find_first = false } in
          match Milp_par.solve ~options enc.Encode.model with
          | Milp.Optimal { objective; _ } -> num objective
          | Milp.Infeasible -> Json.Null
          | _ -> failwith "frontier: search did not finish"
        in
        ( q.Campaign.label,
          Json.Obj
            [
              ("max", optimum Lp.Maximize);
              ("min", optimum Lp.Minimize);
              ( "min_nonneg",
                optimum
                  ~psi:(Workflow.psi_steer_far_left ~threshold:0.0 ())
                  Lp.Minimize );
              ( "max_nonpos",
                optimum
                  ~psi:(Workflow.psi_steer_far_right ~threshold:0.0 ())
                  Lp.Maximize );
            ] ))
      s.queries
  in
  print_endline (Json.encode (Json.Obj entries))

let usage = "main.exe (prime SPEC...|frontier|batch|serve) [options]"

let () =
  let cache_dir = ref "" and spec = ref "" and jobs = ref "" in
  let work = ref "" and out = ref "" and seconds = ref 10.0 in
  let trace = ref 0 and absint = ref 0 and bisect = ref 0 in
  let clients = ref 1 and branch_rule = ref "default" and args = ref [] in
  Arg.parse
    [
      ("--cache", Arg.Set_string cache_dir, "model cache directory");
      ("--spec", Arg.Set_string spec, "generated campaign spec (JSON)");
      ("--jobs", Arg.Set_string jobs, "generated served jobs (JSON)");
      ("--work", Arg.Set_string work, "directory for journals and server state");
      ("--out", Arg.Set_string out, "raw samples output (JSON)");
      ("--seconds", Arg.Set_float seconds, "measurement window");
      ("--trace", Arg.Set_int trace, "1: alternate traced passes with untraced ones");
      ("--absint", Arg.Set_int absint, "1: arm the DeepPoly guide");
      ("--bisect", Arg.Set_int bisect, "bisection depth (0: off)");
      ("--branch-rule", Arg.Set_string branch_rule, "default | order");
      ("--clients", Arg.Set_int clients, "closed-loop client connections (serve)");
    ]
    (fun a -> args := a :: !args)
    usage;
  match List.rev !args with
  | [ "frontier" ] -> frontier ~cache_dir:!cache_dir !spec
  | "prime" :: paths -> prime ~cache_dir:!cache_dir paths
  | [ "batch" ] ->
      batch ~cache_dir:!cache_dir ~spec_path:!spec ~work:!work
        ~seconds:!seconds ~trace:(!trace = 1) ~absint:(!absint = 1)
        ~bisect_depth:!bisect ~branch_rule:!branch_rule ~out:!out
  | [ "serve" ] ->
      serve ~cache_dir:!cache_dir ~base_path:!spec ~jobs_path:!jobs ~work:!work
        ~seconds:!seconds ~trace:(!trace = 1) ~clients:!clients ~out:!out
  | _ ->
      prerr_endline usage;
      exit 2
