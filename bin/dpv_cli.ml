(* dpv — command-line front end for the verification workflow.

   Subcommands:
     train     train the direct perception network and cache/save it
     verify    run one (property, psi, strategy) verification case
     campaign  run a JSON-specified batch of queries with a shared cache
               (optionally one --shard I/N slice of the partition)
     merge-journals  combine shard journals into one campaign journal/report
     monitor   stream frames at the runtime monitor
     render    print an ASCII rendering of a scene
     info      show the model architecture and experiment defaults     *)

module Workflow = Dpv_core.Workflow
module Verify = Dpv_core.Verify
module Report = Dpv_core.Report
module Specfile = Dpv_core.Specfile
module Json = Dpv_obs.Json
module Server = Dpv_serve.Server
module Sclient = Dpv_serve.Client
module Metrics = Dpv_obs.Metrics
module Oracle = Dpv_scenario.Oracle
module Generator = Dpv_scenario.Generator
module Camera = Dpv_scenario.Camera
module Scene = Dpv_scenario.Scene
module Road = Dpv_scenario.Road
module Network = Dpv_nn.Network
module Serialize = Dpv_nn.Serialize
module Runtime = Dpv_monitor.Runtime
module Box_monitor = Dpv_monitor.Box_monitor
module Polyhedron = Dpv_monitor.Polyhedron
module Propagate = Dpv_absint.Propagate
module Rng = Dpv_tensor.Rng

open Cmdliner

(* ---- shared options ---- *)

let cache_dir =
  let doc = "Directory for the trained-model cache." in
  Arg.(value & opt string "_cache" & info [ "cache-dir" ] ~doc)

let seed =
  let doc = "Random seed for the whole pipeline." in
  Arg.(value & opt int Workflow.default_setup.Workflow.seed & info [ "seed" ] ~doc)

let setup_of ~seed = { Workflow.default_setup with Workflow.seed }

let workers =
  let doc =
    "Branch-and-bound worker domains (0 = one per available core, \
     leaving one for the rest of the process)."
  in
  Arg.(value & opt int 1 & info [ "j"; "workers" ] ~doc)

let timeout_s =
  let doc =
    "Wall-clock solver deadline in seconds; an expired query reports \
     UNKNOWN (deadline exceeded) instead of searching to the node cap."
  in
  Arg.(value & opt (some float) None & info [ "timeout-s" ] ~doc)

let absint_arg =
  let doc =
    "Guide the branch-and-bound search with DeepPoly abstract \
     interpretation: before each node's LP is solved, bounds \
     propagated under the node's ReLU phase fixings fix further \
     phases without branching and prune nodes that provably miss \
     psi."
  in
  Arg.(value & flag & info [ "absint" ] ~doc)

let bisect_arg =
  let doc =
    "Input bisection depth (0 = off): split the feature box up to \
     $(docv) times along its widest dimension, discharge cheap \
     sub-boxes by bound propagation alone, and send only the \
     survivors to the MILP.  Verdicts merge soundly (UNSAFE \
     witnesses are re-validated concretely; SAFE requires every \
     sub-box safe)."
  in
  Arg.(value & opt int 0 & info [ "bisect" ] ~docv:"DEPTH" ~doc)

let bisect_timeout_arg =
  let doc =
    "Per-sub-box wall-clock budget in seconds (only with \
     $(b,--bisect); the overall deadline still applies)."
  in
  Arg.(value & opt (some float) None & info [ "bisect-timeout-s" ] ~doc)

let branch_rule_conv =
  let parse = function
    | "fractional" -> Ok Dpv_linprog.Milp.Most_fractional
    | "width" -> Ok Dpv_linprog.Milp.Bound_width
    | "order" -> Ok Dpv_linprog.Milp.Guide_order
    | s ->
        Error
          (`Msg
            (Printf.sprintf "unknown branch rule %S (fractional, width, order)"
               s))
  in
  let print fmt r =
    Format.fprintf fmt "%s"
      (match r with
      | Dpv_linprog.Milp.Most_fractional -> "fractional"
      | Dpv_linprog.Milp.Bound_width -> "width"
      | Dpv_linprog.Milp.Guide_order -> "order")
  in
  Arg.conv (parse, print)

let branch_rule_arg =
  let doc =
    "Branch-variable selection: $(b,fractional) (most fractional \
     binary), $(b,width) (widest pre-activation interval as scored \
     by the DeepPoly guide) or $(b,order) (earliest guide-scored \
     binary in layer order, the cache-friendliest rule for the \
     incremental guide); $(b,width) and $(b,order) fall back to \
     $(b,fractional) without $(b,--absint)."
  in
  Arg.(
    value
    & opt branch_rule_conv Dpv_linprog.Milp.Most_fractional
    & info [ "branch-rule" ] ~doc)

let bisect_options_of ~bisect ~bisect_timeout_s =
  if bisect <= 0 then None
  else Some { Verify.max_depth = bisect; subbox_time_limit_s = bisect_timeout_s }

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON trace of the run to $(docv) \
     (open in chrome://tracing or https://ui.perfetto.dev).  Tracing \
     is off — a single atomic load per site — unless this flag or the \
     DPV_TRACE environment variable enables it."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write the end-of-run metrics snapshot (dpv-metrics/1 JSON: \
     counters, high-water gauges, latency histograms) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* Arm tracing before the work and flush trace/metrics after it — on
   the raising path too, so a crashed run still leaves its telemetry
   behind.  [Faults.trace_sites] stamps the trace with every fault
   site's occurrence/fired counts, making chaos runs self-describing. *)
let with_obs ~trace ~metrics f =
  if trace <> None then Dpv_obs.Trace.configure ();
  let finish () =
    Option.iter
      (fun path ->
        Dpv_linprog.Faults.trace_sites ();
        Dpv_obs.Trace.write ~path)
      trace;
    Option.iter
      (fun path -> Dpv_obs.Metrics.save_json (Dpv_obs.Metrics.snapshot ()) ~path)
      metrics
  in
  Fun.protect ~finally:finish f

let milp_options_of ~workers ~timeout_s =
  let workers =
    if workers <= 0 then Dpv_linprog.Milp_par.default_workers () else workers
  in
  {
    Dpv_linprog.Milp.default_options with
    find_first = true;
    workers;
    time_limit_s = timeout_s;
  }

let property_conv =
  let parse s =
    match Oracle.find s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown property %S (try: %s)" s
               (String.concat ", " (List.map fst Oracle.all))))
  in
  let print fmt p = Format.fprintf fmt "%s" p.Dpv_spec.Property.name in
  Arg.conv (parse, print)

let property_arg =
  let doc = "Input property phi (bends-right, bends-left, straight, ...)." in
  Arg.(
    value
    & opt property_conv Oracle.bends_right
    & info [ "p"; "property" ] ~doc)

let psi_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Specfile.parse_psi s) in
  let print fmt psi = Format.fprintf fmt "%s" psi.Dpv_spec.Risk.name in
  Arg.conv (parse, print)

let psi_arg =
  let doc =
    "Risk condition psi: far-left[:T], far-right[:T] or straight[:H]."
  in
  Arg.(value & opt psi_conv (Workflow.psi_steer_far_left ()) & info [ "psi" ] ~doc)

let strategy_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Specfile.parse_strategy s) in
  let print fmt s = Format.fprintf fmt "%s" (Workflow.strategy_name s) in
  Arg.conv (parse, print)

let strategy_arg =
  let doc = "Bounds strategy for the region S." in
  Arg.(value & opt strategy_conv Workflow.Data_octagon & info [ "strategy" ] ~doc)

(* ---- train ---- *)

let train_cmd =
  let run seed cache_dir output =
    let prepared = Workflow.prepare_cached ~quiet:false ~cache_dir (setup_of ~seed) in
    Format.printf "trained: %a@." Network.pp prepared.Workflow.perception;
    Format.printf "val MAE: %.3f m / %.4f rad@." prepared.Workflow.val_mae.(0)
      prepared.Workflow.val_mae.(1);
    (match output with
    | Some path ->
        Serialize.save prepared.Workflow.perception ~path;
        Format.printf "saved model to %s@." path
    | None -> ());
    0
  in
  let output =
    let doc = "Also save the model to this path." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train the direct perception network")
    Term.(const run $ seed $ cache_dir $ output)

(* ---- verify ---- *)

let verify_cmd =
  let run seed cache_dir property psi strategy cut workers timeout_s absint
      bisect bisect_timeout_s branch_rule trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let prepared = Workflow.prepare_cached ~cache_dir (setup_of ~seed) in
    let milp_options =
      { (milp_options_of ~workers ~timeout_s) with Dpv_linprog.Milp.branch_rule }
    in
    let bisect = bisect_options_of ~bisect ~bisect_timeout_s in
    let case =
      Workflow.run_case ~milp_options ?cut ~absint ?bisect prepared ~property
        ~psi ~strategy
    in
    Format.printf "%a@." Report.pp_case case;
    match case.Workflow.result.Verify.verdict with
    | Verify.Safe _ -> 0
    | Verify.Unsafe _ -> 1
    | Verify.Unknown _ -> 2
  in
  let cut =
    let doc = "Cut layer (defaults to the deepest ReLU)." in
    Arg.(value & opt (some int) None & info [ "cut" ] ~doc)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Verify a (phi, psi) safety property of the cached network")
    Term.(
      const run $ seed $ cache_dir $ property_arg $ psi_arg $ strategy_arg
      $ cut $ workers $ timeout_s $ absint_arg $ bisect_arg
      $ bisect_timeout_arg $ branch_rule_arg $ trace_arg $ metrics_arg)

(* ---- campaign ---- *)

exception Spec_error of string

let spec_error fmt = Printf.ksprintf (fun m -> raise (Spec_error m)) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Read + parse a campaign spec file; dialect and query building live
   in {!Dpv_core.Specfile}, shared with the serve daemon. *)
let load_spec path =
  let text = try read_file path with Sys_error e -> spec_error "%s" e in
  match Json.of_string text with
  | Ok v -> v
  | Error e -> spec_error "cannot parse %s: %s" path e

(* --shard I/N: one deterministic slice of the query-key partition.
   Validation here mirrors Campaign.run's, so a bad value is a usage
   error instead of an uncaught Invalid_argument. *)
let shard_conv =
  let parse s =
    match String.split_on_char '/' s with
    | [ i; n ] -> (
        match (int_of_string_opt i, int_of_string_opt n) with
        | Some i, Some n when n >= 1 && 0 <= i && i < n -> Ok (i, n)
        | _ -> Error (`Msg (Printf.sprintf "shard %S: need I/N with 0 <= I < N" s)))
    | _ -> Error (`Msg (Printf.sprintf "shard %S: need I/N, e.g. 0/4" s))
  in
  let print fmt (i, n) = Format.fprintf fmt "%d/%d" i n in
  Arg.conv (parse, print)

let campaign_cmd =
  let run cache_dir spec_path output journal resume shard absint bisect
      bisect_timeout_s branch_rule trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    try
      let spec = load_spec spec_path in
      let parsed =
        match Specfile.parse spec with Ok p -> p | Error e -> spec_error "%s" e
      in
      let runners = parsed.Specfile.runners in
      let budget_s = parsed.Specfile.budget_s in
      let milp_options = Specfile.milp_options ~branch_rule parsed in
      let bisect = bisect_options_of ~bisect ~bisect_timeout_s in
      let prepared = Workflow.prepare_cached ~cache_dir parsed.Specfile.setup in
      let queries =
        match
          Specfile.queries
            (Specfile.builder prepared)
            ~default_cut:parsed.Specfile.setup.Workflow.cut
            parsed.Specfile.query_specs
        with
        | Ok q -> q
        | Error e -> spec_error "%s" e
      in
      (* --resume implies journaling to the same file unless --journal
         overrides it: a resumed campaign that dies can itself be
         resumed. *)
      let resume_entries =
        Option.map
          (fun path ->
            match Dpv_core.Journal.load ~path with
            | Ok entries -> entries
            | Error e -> spec_error "cannot resume from %s: %s" path e)
          resume
      in
      let journal =
        match (journal, resume) with Some _, _ -> journal | None, r -> r
      in
      let report =
        Dpv_core.Campaign.run ~milp_options ~runners ?shard ?budget_s ?journal
          ?resume:resume_entries ~absint ?bisect
          ~perception:prepared.Workflow.perception queries
      in
      Format.printf "%a@." Report.pp_campaign report;
      if metrics <> None then
        Format.printf "%a@." Report.pp_metrics report.Dpv_core.Campaign.metrics;
      Dpv_core.Campaign.save_json report ~path:output;
      Format.printf "report written to %s@." output;
      (* Exit-code precedence: a proven violation (1) outranks an
         incomplete campaign (4), which outranks an inconclusive
         verdict (2).  A degraded campaign must not exit 0: "no unsafe
         found" is not "all safe" when queries crashed or were
         skipped. *)
      Dpv_core.Campaign.report_exit_code report
    with Spec_error msg ->
      Format.eprintf "campaign: %s@." msg;
      3
  in
  let spec_path =
    let doc =
      "Campaign specification (JSON): top-level keys seed, runners, \
       workers, budget_s, timeout_s, max_nodes, setup and a queries \
       array of {name, property, psi, strategy, cut, margin} objects."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC" ~doc)
  in
  let output =
    Arg.(
      value
      & opt string "campaign_report.json"
      & info [ "o"; "output" ] ~doc:"JSON report output path.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ]
          ~doc:
            "Append each settled query to this crash-safe journal file \
             (JSON lines, atomically rewritten), enabling $(b,--resume) \
             after a kill.")
  in
  let resume =
    Arg.(
      value
      & opt (some file) None
      & info [ "resume" ]
          ~doc:
            "Replay completed verdicts from a journal written by a \
             previous run instead of re-solving them; crashed and \
             skipped queries are retried.  Implies journaling to the \
             same file unless $(b,--journal) is also given.")
  in
  let shard =
    Arg.(
      value
      & opt (some shard_conv) None
      & info [ "shard" ] ~docv:"I/N"
          ~doc:
            "Run slice $(i,I) of a deterministic $(i,N)-way partition \
             of the queries (by content digest).  Every shard reads \
             the full spec; run all N slices (any hosts, any order), \
             then combine their journals with $(b,dpv merge-journals).")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a batch of verification queries concurrently with a \
             shared-encoding cache and write an aggregated JSON report")
    Term.(
      const run $ cache_dir $ spec_path $ output $ journal $ resume $ shard
      $ absint_arg $ bisect_arg $ bisect_timeout_arg $ branch_rule_arg
      $ trace_arg $ metrics_arg)

(* ---- merge-journals ---- *)

let merge_journals_cmd =
  let run output inputs report_out =
    match
      List.map
        (fun path ->
          match Dpv_core.Journal.load_with_meta ~path with
          | Ok x -> x
          | Error e -> spec_error "cannot load %s: %s" path e)
        inputs
    with
    | exception Spec_error msg ->
        Format.eprintf "merge-journals: %s@." msg;
        3
    | shards ->
        let entries, metas = Dpv_core.Campaign.merge_journals shards in
        Dpv_core.Journal.save ~path:output entries;
        Format.printf "merged %d journal%s: %d quer%s, %d shard trailer%s -> %s@."
          (List.length inputs)
          (if List.length inputs = 1 then "" else "s")
          (List.length entries)
          (if List.length entries = 1 then "y" else "ies")
          (List.length metas)
          (if List.length metas = 1 then "" else "s")
          output;
        Option.iter
          (fun path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                output_string oc
                  (Dpv_core.Campaign.merged_to_json ~entries ~metas));
            Format.printf "report written to %s@." path)
          report_out;
        Dpv_core.Campaign.worst_exit_code entries
  in
  let output =
    let doc =
      "Merged journal output path (JSON lines, written atomically).  \
       Valid as $(b,dpv campaign --resume) input: a merged partition \
       can be re-run unsharded to retry its crashed queries."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT" ~doc)
  in
  let inputs =
    let doc = "Shard journals to merge (from $(b,dpv campaign --shard))." in
    Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"JOURNAL" ~doc)
  in
  let report_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ]
          ~doc:
            "Also write the merged dpv-campaign/2 JSON report here, with \
             metric totals summed exactly across the shard trailers.")
  in
  Cmd.v
    (Cmd.info "merge-journals"
       ~doc:
         "Merge shard journals into one campaign journal and report; \
          the exit code is the worst across shards (unsafe > degraded \
          > unknown > ok)")
    Term.(const run $ output $ inputs $ report_out)

(* ---- serve / client ---- *)

let socket_arg =
  let doc = "Unix-domain socket path for the server." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "TCP port on loopback (alternative to $(b,--socket))." in
  Arg.(value & opt (some int) None & info [ "port" ] ~doc)

let serve_cmd =
  let run cache_dir spec_path socket port metrics_addr slow_ms state_dir
      capacity runners retry_after_s settle_delay_s trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    try
      let spec = load_spec spec_path in
      let parsed =
        match Specfile.parse spec with Ok p -> p | Error e -> spec_error "%s" e
      in
      let listen =
        match (socket, port) with
        | Some path, None -> `Unix path
        | None, Some port -> `Tcp port
        | Some _, Some _ -> spec_error "give --socket or --port, not both"
        | None, None -> spec_error "a server needs --socket PATH or --port N"
      in
      (* The scrape listener binds loopback only; accept a bare port or
         an explicit loopback host for operator familiarity. *)
      let scrape_port =
        match metrics_addr with
        | None -> None
        | Some addr ->
            let port_str =
              match String.rindex_opt addr ':' with
              | None -> addr
              | Some i ->
                  let host = String.sub addr 0 i in
                  if host <> "127.0.0.1" && host <> "localhost" then
                    spec_error
                      "--metrics-addr serves loopback only (got host %S)" host;
                  String.sub addr (i + 1) (String.length addr - i - 1)
            in
            (match int_of_string_opt port_str with
            | Some p when p > 0 && p < 65536 -> Some p
            | _ ->
                spec_error "--metrics-addr wants PORT or 127.0.0.1:PORT, got %S"
                  addr)
      in
      let prepared = Workflow.prepare_cached ~cache_dir parsed.Specfile.setup in
      let config =
        {
          (Server.default_config ~state_dir) with
          Server.capacity;
          runners;
          retry_after_s;
          settle_delay_s;
          slow_ms;
        }
      in
      let server =
        try
          Server.create ~config ~perception:prepared.Workflow.perception
            ~builder:(Specfile.builder prepared) ~base:parsed ~base_spec:spec ()
        with Failure msg -> spec_error "%s" msg
      in
      if Server.recovered server > 0 then
        Format.printf "recovered %d journaled job(s) from %s@."
          (Server.recovered server)
          state_dir;
      List.iter
        (fun (job, reason) ->
          Format.printf "failed journaled job %s (exit 4): %s@." job reason)
        (Server.recovery_failures server);
      (* SIGTERM/SIGINT request a graceful drain: stop accepting, finish
         or journal in-flight work, then fall through to with_obs's
         trace/metrics flush. *)
      List.iter
        (fun s ->
          Sys.set_signal s
            (Sys.Signal_handle (fun _ -> Server.request_drain server)))
        [ Sys.sigterm; Sys.sigint ];
      let listen_fd =
        match listen with
        | `Unix path ->
            Format.printf "dpv-serve/1 listening on %s@." path;
            Server.listen_unix ~path
        | `Tcp port ->
            Format.printf "dpv-serve/1 listening on 127.0.0.1:%d@." port;
            Server.listen_tcp ~port
      in
      let scrape_fd =
        Option.map
          (fun p ->
            Format.printf "dpv-serve/1 metrics on http://127.0.0.1:%d/metrics@."
              p;
            Server.listen_tcp ~port:p)
          scrape_port
      in
      Format.print_flush ();
      Server.serve ?scrape_fd server listen_fd;
      Format.printf "drained@.";
      0
    with Spec_error msg ->
      Format.eprintf "serve: %s@." msg;
      3
  in
  let spec_path =
    let doc =
      "Base campaign spec: fixes the trained pipeline (seed + setup) the \
       resident server holds.  Submissions omitting seed/setup inherit it."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASE_SPEC" ~doc)
  in
  let state_dir =
    Arg.(
      value & opt string "_serve"
      & info [ "state-dir" ]
          ~doc:
            "Directory for the server joblog and per-job campaign journals \
             (the crash-recovery state).")
  in
  let capacity =
    Arg.(
      value & opt int 4
      & info [ "capacity" ]
          ~doc:
            "Maximum jobs in the system (queued + running); beyond it \
             submissions get an explicit busy reply.")
  in
  let runners =
    Arg.(
      value & opt int 1
      & info [ "runners" ]
          ~doc:"Domain-budget cap per job (specs may ask for fewer).")
  in
  let retry_after_s =
    Arg.(
      value & opt float 1.0
      & info [ "retry-after-s" ] ~doc:"Retry hint carried in busy replies.")
  in
  let settle_delay_s =
    Arg.(
      value & opt float 0.0
      & info [ "settle-delay-s" ]
          ~doc:
            "Pause this many seconds after each settled query (test \
             pacing: makes kill-mid-campaign land deterministically \
             between queries).")
  in
  let metrics_addr =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-addr" ] ~docv:"ADDR"
          ~doc:
            "Also serve OpenMetrics text scrapes over HTTP on this \
             loopback address (PORT or 127.0.0.1:PORT) — point \
             Prometheus (or curl) at it.")
  in
  let slow_ms =
    Arg.(
      value & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-query threshold: queries over this many milliseconds \
             are appended to STATE_DIR/slowlog.jsonl with a per-phase \
             time breakdown.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident verification service: accept campaign \
          submissions over a socket, stream verdicts, journal every \
          accepted job for crash recovery")
    Term.(
      const run $ cache_dir $ spec_path $ socket_arg $ port_arg $ metrics_addr
      $ slow_ms $ state_dir $ capacity $ runners $ retry_after_s
      $ settle_delay_s $ trace_arg $ metrics_arg)

let client_cmd =
  let run action spec_path socket port name priority budget_s deadline_s wait
      trace_out =
    let connect () =
      try
        match (socket, port) with
        | Some path, None -> Ok (Sclient.connect_unix ~path)
        | None, Some port -> Ok (Sclient.connect_tcp ~port)
        | _ -> Error "give --socket PATH or --port N (not both)"
      with Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "cannot connect: %s" (Unix.error_message e))
    in
    let with_conn f =
      match connect () with
      | Error msg ->
          Format.eprintf "client: %s@." msg;
          3
      | Ok fd ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () -> f fd)
    in
    let one_shot op =
      with_conn @@ fun fd ->
      match Sclient.rpc fd (Json.encode (Json.Obj [ ("op", Json.Str op) ])) with
      | Ok reply ->
          print_endline reply;
          0
      | Error msg ->
          Format.eprintf "client: %s@." msg;
          3
    in
    match action with
    | "ping" -> one_shot "ping"
    | "metrics" -> one_shot "metrics"
    | "drain" -> one_shot "drain"
    | "submit" -> (
        match spec_path with
        | None ->
            Format.eprintf "client: submit needs a SPEC file@.";
            3
        | Some path -> (
            match Json.of_string (read_file path) with
            | exception Sys_error e ->
                Format.eprintf "client: %s@." e;
                3
            | Error e ->
                Format.eprintf "client: cannot parse %s: %s@." path e;
                3
            | Ok spec ->
                let opt_num key = function
                  | None -> []
                  | Some v -> [ (key, Json.Num v) ]
                in
                let request =
                  Json.encode
                    (Json.Obj
                       ([ ("op", Json.Str "submit"); ("spec", spec) ]
                       @ (match name with
                         | None -> []
                         | Some n -> [ ("name", Json.Str n) ])
                       @ [ ("priority", Json.int priority) ]
                       @ opt_num "budget_s" budget_s
                       @ opt_num "deadline_s" deadline_s
                       @
                       if trace_out = None then []
                       else [ ("trace", Json.Bool true) ]))
                in
                (* The trace frame carries the job's Chrome-trace JSON
                   as a string; peel it off the stream into the file
                   the user asked for. *)
                let on_frame line =
                  match trace_out with
                  | None -> print_endline line
                  | Some file -> (
                      match Json.of_string line with
                      | Ok j
                        when Json.member "type" j = Some (Json.Str "trace") -> (
                          match
                            Option.bind (Json.member "events" j) Json.to_string
                          with
                          | Some events ->
                              let oc = open_out file in
                              Fun.protect
                                ~finally:(fun () -> close_out oc)
                                (fun () -> output_string oc events);
                              Format.eprintf "client: trace written to %s@."
                                file
                          | None -> print_endline line)
                      | _ -> print_endline line)
                in
                (* Each attempt is one connection; on busy with --wait,
                   sleep out the server's hint and resubmit. *)
                let rec attempt () =
                  let outcome =
                    with_conn @@ fun fd ->
                    match Sclient.submit_and_stream fd ~request ~on_frame with
                    | Sclient.Finished { exit_code } -> exit_code
                    | Sclient.Busy { retry_after_s } ->
                        if wait then begin
                          Unix.sleepf retry_after_s;
                          (* Busy (6) is never final under --wait. *)
                          -1
                        end
                        else begin
                          Format.eprintf
                            "client: server busy (retry after %.1fs)@."
                            retry_after_s;
                          6
                        end
                    | Sclient.Failed msg ->
                        Format.eprintf "client: %s@." msg;
                        3
                  in
                  if outcome = -1 then attempt () else outcome
                in
                attempt ()))
    | a ->
        Format.eprintf "client: unknown action %S (submit, metrics, ping, drain)@." a;
        3
  in
  let action =
    let doc = "What to ask the server: submit, metrics, ping or drain." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ACTION" ~doc)
  in
  let spec_path =
    let doc = "Campaign spec to submit (for $(b,submit))." in
    Arg.(value & pos 1 (some file) None & info [] ~docv:"SPEC" ~doc)
  in
  let name_arg =
    Arg.(
      value & opt (some string) None
      & info [ "name" ] ~doc:"Human-readable job name.")
  in
  let priority =
    Arg.(
      value & opt int 0
      & info [ "priority" ] ~doc:"Admission priority (higher runs first).")
  in
  let budget_s =
    Arg.(
      value & opt (some float) None
      & info [ "budget-s" ] ~doc:"Campaign wall-clock budget once running.")
  in
  let deadline_s =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-s" ]
          ~doc:
            "Wall-clock deadline from acceptance; queue wait spends it \
             and the budget is carved from the remainder.")
  in
  let wait =
    Arg.(
      value & flag
      & info [ "wait" ]
          ~doc:
            "On a busy reply, sleep out the server's retry hint and \
             resubmit instead of exiting 6.")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Ask the server to trace this job and write its \
             Chrome-trace JSON here (open in Perfetto); the trace \
             frame is peeled off the verdict stream.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running dpv serve: submit a campaign and stream its \
          verdicts (exit code mirrors dpv campaign; 6 = server busy), or \
          ping/metrics/drain")
    Term.(
      const run $ action $ spec_path $ socket_arg $ port_arg $ name_arg
      $ priority $ budget_s $ deadline_s $ wait $ trace_out)

(* ---- top ---- *)

let top_cmd =
  let run socket port interval_s count =
    let connect () =
      try
        match (socket, port) with
        | Some path, None -> Ok (Sclient.connect_unix ~path)
        | None, Some port -> Ok (Sclient.connect_tcp ~port)
        | _ -> Error "give --socket PATH or --port N (not both)"
      with Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "cannot connect: %s" (Unix.error_message e))
    in
    (* One metrics poll over the persistent connection.  Passing the
       previous reply's cursor makes the server answer with the delta
       since that poll (counters and histograms subtract; rates and
       point samples stay current), which is exactly what a live rate
       display wants. *)
    let fetch fd ~since =
      let req =
        Json.Obj
          (("op", Json.Str "metrics")
          ::
          (match since with
          | None -> []
          | Some c -> [ ("since", Json.int c) ]))
      in
      match Sclient.rpc fd (Json.encode req) with
      | Error e -> Error e
      | Ok reply -> (
          match Json.of_string reply with
          | Error e -> Error (Printf.sprintf "unparseable reply: %s" e)
          | Ok j -> (
              let cursor = Option.bind (Json.member "cursor" j) Json.to_int in
              let is_delta = Json.member "since" j <> None in
              match Json.member "metrics" j with
              | None -> Error "reply carries no metrics"
              | Some m -> (
                  match Metrics.of_json ~line:0 m with
                  | Error e -> Error e
                  | Ok snap -> Ok (cursor, is_delta, snap))))
    in
    let fmt_ns ns =
      if ns >= 1e9 then Printf.sprintf "%.2fs" (ns /. 1e9)
      else if ns >= 1e6 then Printf.sprintf "%.1fms" (ns /. 1e6)
      else if ns >= 1e3 then Printf.sprintf "%.1fus" (ns /. 1e3)
      else Printf.sprintf "%.0fns" ns
    in
    let render b ~is_delta snap =
      let c name = Option.value ~default:0 (Metrics.counter_in snap name) in
      let r name =
        float_of_int (Option.value ~default:0 (Metrics.rate_in snap name))
        /. 1000.0
      in
      let pct num den =
        if den <= 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den
      in
      let quantiles name =
        match Metrics.histogram_in snap name with
        | Some h when h.Metrics.count > 0 ->
            Printf.sprintf "p50 %s / p99 %s  (%d obs)"
              (fmt_ns (Metrics.quantile_of_hist h ~q:0.5))
              (fmt_ns (Metrics.quantile_of_hist h ~q:0.99))
              h.Metrics.count
        | _ -> "no observations"
      in
      let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
      line "dpv top — %s"
        (if is_delta then Printf.sprintf "last %.1fs" interval_s
         else "since server start");
      line "  jobs in system   %.0f  (queue %.0f, finished %d)"
        (r "serve.jobs_in_system")
        (r "serve.queue_depth_now")
        (c "serve.jobs_finished");
      line "  solves/s         %.2f  (queries %d, nodes/s %.1f)"
        (r "serve.solves_per_s") (c "campaign.queries") (r "milp.nodes_per_s");
      let warm = c "simplex.warm_starts" and cold = c "simplex.cold_starts" in
      line "  warm-start rate  %.1f%%  (warm %d / cold %d)"
        (pct warm (warm + cold)) warm cold;
      let prunes = c "absint.prunes" in
      line "  prune rate       %.1f%%  (pruned %d vs %d MILP nodes)"
        (pct prunes (prunes + c "milp.nodes"))
        prunes (c "milp.nodes");
      line "  journal          %.1f appends/s, %s"
        (r "journal.appends_per_s")
        (quantiles "journal.append_ns");
      line "  lp solve         %s" (quantiles "milp.lp_solve_ns");
      line "  gc               heap %.1f MiB, %.0f minor words/s, %.2f majors/s"
        (r "gc.heap_words" *. 8.0 /. 1048576.0)
        (r "gc.minor_words_per_s")
        (r "gc.majors_per_s")
    in
    match connect () with
    | Error msg ->
        Format.eprintf "top: %s@." msg;
        3
    | Ok fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        @@ fun () ->
        let tty = Unix.isatty Unix.stdout in
        (* Not a terminal: prime the cursor, wait one interval, print a
           single delta block — scriptable and CI-friendly. *)
        let rounds =
          if not tty then 2 else if count > 0 then count else max_int
        in
        let rec loop i ~since =
          match fetch fd ~since with
          | Error msg ->
              Format.eprintf "top: %s@." msg;
              3
          | Ok (cursor, is_delta, snap) ->
              if tty || i > 0 then begin
                let b = Buffer.create 512 in
                render b ~is_delta snap;
                if tty then print_string "\027[2J\027[H";
                print_string (Buffer.contents b);
                flush stdout
              end;
              if i + 1 >= rounds then 0
              else begin
                Unix.sleepf interval_s;
                loop (i + 1) ~since:cursor
              end
        in
        loop 0 ~since:None
  in
  let interval_s =
    Arg.(
      value & opt float 2.0
      & info [ "interval-s" ] ~doc:"Seconds between refreshes.")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "n"; "count" ]
          ~doc:
            "Stop after this many refreshes (0 = run until interrupted).  \
             When stdout is not a terminal a single snapshot is printed \
             regardless.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of a running dpv serve, polled over the metrics \
          since-cursor: jobs in system, solve/prune rates, warm-start \
          hit rate, journal-append and LP-solve latency percentiles.  \
          Prints one snapshot and exits when stdout is not a terminal")
    Term.(const run $ socket_arg $ port_arg $ interval_s $ count)

(* ---- monitor ---- *)

let monitor_cmd =
  let run seed cache_dir frames shifted =
    let setup = setup_of ~seed in
    let prepared = Workflow.prepare_cached ~cache_dir setup in
    let region =
      Runtime.Poly (Polyhedron.fit_octagon ~margin:0.05 prepared.Workflow.bounds_features)
    in
    let monitor =
      Runtime.create ~network:prepared.Workflow.perception
        ~cut:setup.Workflow.cut ~region
    in
    let config =
      if shifted then
        {
          setup.Workflow.scenario with
          Generator.rain_probability = 0.7;
          fog_probability = 0.3;
          camera =
            { setup.Workflow.scenario.Generator.camera with Camera.noise_std = 0.08 };
        }
      else setup.Workflow.scenario
    in
    let rng = Rng.create (seed + 31) in
    for _ = 1 to frames do
      let scene = Generator.sample_scene config rng in
      ignore (Runtime.infer monitor (Generator.render_scene config rng scene))
    done;
    Format.printf "%a@." Runtime.pp_stats (Runtime.stats monitor);
    0
  in
  let frames =
    Arg.(value & opt int 500 & info [ "n"; "frames" ] ~doc:"Frames to stream.")
  in
  let shifted =
    Arg.(
      value & flag
      & info [ "shifted" ] ~doc:"Stream distribution-shifted frames instead.")
  in
  Cmd.v
    (Cmd.info "monitor" ~doc:"Stream frames at the runtime monitor")
    Term.(const run $ seed $ cache_dir $ frames $ shifted)

(* ---- render ---- *)

let render_cmd =
  let run curvature lanes ego weather =
    let road = Road.make ~curvature ~curvature_rate:0.0 ~num_lanes:lanes () in
    let weather =
      match weather with
      | "clear" -> Scene.Clear
      | "rain" -> Scene.Rain
      | "fog" -> Scene.Fog
      | w ->
          Format.eprintf "unknown weather %S, using clear@." w;
          Scene.Clear
    in
    let scene = Scene.make ~weather ~road ~ego_lane:ego () in
    print_string (Camera.to_ascii Camera.default_config
      (Camera.render Camera.default_config scene));
    0
  in
  let curvature =
    Arg.(value & opt float (-0.02) & info [ "k"; "curvature" ] ~doc:"1/m.")
  in
  let lanes = Arg.(value & opt int 3 & info [ "lanes" ] ~doc:"Lane count.") in
  let ego = Arg.(value & opt int 1 & info [ "ego-lane" ] ~doc:"Ego lane.") in
  let weather =
    Arg.(value & opt string "clear" & info [ "weather" ] ~doc:"clear|rain|fog.")
  in
  Cmd.v
    (Cmd.info "render" ~doc:"ASCII-render a synthetic camera frame")
    Term.(const run $ curvature $ lanes $ ego $ weather)

(* ---- certify ---- *)

let certify_cmd =
  let run seed cache_dir property psi strategy output workers timeout_s trace
      metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let prepared = Workflow.prepare_cached ~cache_dir (setup_of ~seed) in
    let milp_options = milp_options_of ~workers ~timeout_s in
    let case = Workflow.run_case ~milp_options prepared ~property ~psi ~strategy in
    let cert =
      Dpv_core.Certificate.of_case case
        ~features:prepared.Workflow.bounds_features
    in
    Dpv_core.Certificate.save cert ~path:output;
    Format.printf "%a@.saved to %s@." Dpv_core.Certificate.pp cert output;
    match case.Workflow.result.Verify.verdict with
    | Verify.Safe _ -> 0
    | Verify.Unsafe _ -> 1
    | Verify.Unknown _ -> 2
  in
  let output =
    Arg.(
      value & opt string "dpv.cert"
      & info [ "o"; "output" ] ~doc:"Certificate output path.")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Verify and emit a deployable certificate (verdict, monitoring \
             region, characterizer head, statistical table)")
    Term.(
      const run $ seed $ cache_dir $ property_arg $ psi_arg $ strategy_arg
      $ output $ workers $ timeout_s $ trace_arg $ metrics_arg)

(* ---- check-cert ---- *)

let check_cert_cmd =
  let run seed cache_dir path =
    match Dpv_core.Certificate.load ~path with
    | Error e ->
        Format.eprintf "cannot load certificate: %s@." e;
        2
    | Ok cert -> (
        Format.printf "%a@." Dpv_core.Certificate.pp cert;
        let prepared = Workflow.prepare_cached ~cache_dir (setup_of ~seed) in
        match
          Dpv_core.Certificate.validate_witness cert
            ~perception:prepared.Workflow.perception
        with
        | Some true ->
            Format.printf "witness replay: CONFIRMED on the cached network@.";
            0
        | Some false ->
            Format.printf "witness replay: REFUTED (stale certificate?)@.";
            1
        | None ->
            Format.printf "no witness to replay@.";
            0)
  in
  let path =
    Arg.(value & opt string "dpv.cert" & info [ "f"; "file" ] ~doc:"Certificate path.")
  in
  Cmd.v
    (Cmd.info "check-cert" ~doc:"Load a certificate and replay its witness")
    Term.(const run $ seed $ cache_dir $ path)

(* ---- refine ---- *)

let refine_cmd =
  let run seed cache_dir property psi strategy max_steps workers timeout_s =
    let prepared = Workflow.prepare_cached ~cache_dir (setup_of ~seed) in
    let milp_options = milp_options_of ~workers ~timeout_s in
    let outcome =
      Dpv_core.Refine.run ~milp_options ?max_steps prepared ~property ~psi
        ~strategy
    in
    Format.printf "%a@." Dpv_core.Refine.pp_outcome outcome;
    match outcome with
    | Dpv_core.Refine.Proved _ -> 0
    | Dpv_core.Refine.Refuted _ -> 1
    | Dpv_core.Refine.Exhausted _ -> 2
  in
  let max_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~doc:"Refinement levels to try (default: all).")
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:"Verify with layer-wise incremental abstraction refinement")
    Term.(
      const run $ seed $ cache_dir $ property_arg $ psi_arg $ strategy_arg
      $ max_steps $ workers $ timeout_s)

(* ---- attack ---- *)

let attack_cmd =
  let run seed cache_dir property psi steps n_seeds =
    let setup = setup_of ~seed in
    let prepared = Workflow.prepare_cached ~cache_dir setup in
    let characterizer, _, _ = Workflow.train_characterizer prepared ~property in
    let rng = Rng.create (seed + 99) in
    let seeds =
      Generator.scenes_and_images setup.Workflow.scenario rng ~n:n_seeds
      |> Array.to_list
      |> List.filter (fun (scene, _) -> Dpv_spec.Property.holds property scene)
      |> List.map snd
      |> Array.of_list
    in
    Format.printf "attacking from %d frames where %s holds...@."
      (Array.length seeds) property.Dpv_spec.Property.name;
    let config = { Dpv_core.Attack.default_config with steps } in
    match
      Dpv_core.Attack.search ~perception:prepared.Workflow.perception
        ~characterizer ~psi ~config ~seeds ()
    with
    | Some c ->
        Format.printf
          "counterexample after %d PGD steps (seed %d): output %a, logit %.3f@."
          c.Dpv_core.Attack.iterations c.Dpv_core.Attack.seed_index
          Dpv_tensor.Vec.pp c.Dpv_core.Attack.output c.Dpv_core.Attack.logit;
        print_string
          (Camera.to_ascii setup.Workflow.scenario.Generator.camera
             c.Dpv_core.Attack.image);
        0
    | None ->
        Format.printf "no counterexample found within the budget@.";
        1
  in
  let steps =
    Arg.(value & opt int 200 & info [ "steps" ] ~doc:"PGD steps per seed.")
  in
  let n_seeds =
    Arg.(value & opt int 200 & info [ "seeds" ] ~doc:"Frames to sample as seeds.")
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Search for a concrete image counterexample by PGD")
    Term.(const run $ seed $ cache_dir $ property_arg $ psi_arg $ steps $ n_seeds)

(* ---- info ---- *)

let info_cmd =
  let run seed cache_dir =
    let setup = setup_of ~seed in
    let prepared = Workflow.prepare_cached ~cache_dir setup in
    Format.printf "model: %a@." Network.pp prepared.Workflow.perception;
    Format.printf "parameters: %d@."
      (Network.num_parameters prepared.Workflow.perception);
    Format.printf "cut layers available: %s@."
      (String.concat ", "
         (List.map string_of_int (Workflow.cut_options setup)));
    Format.printf "properties: %s@."
      (String.concat ", " (List.map fst Oracle.all));
    0
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Show model and experiment defaults")
    Term.(const run $ seed $ cache_dir)

let () =
  (* Deterministic fault injection (chaos testing).  Inert unless the
     DPV_FAULTS environment variable is set; a malformed spec exits 3
     before any work starts. *)
  Dpv_linprog.Faults.init_from_env ();
  (* Tracing via DPV_TRACE, same opt-in shape: the library never reads
     the environment, only executables do. *)
  Dpv_obs.Trace.init_from_env ();
  (* DPV_ABSINT_SCRATCH=1 forces the abstraction guide to re-propagate
     from scratch at every node (bit-identical results; CI uses it to
     prove incremental ≡ from-scratch). *)
  Dpv_core.Absguide.init_from_env ();
  let doc = "safety verification of direct perception neural networks" in
  let main =
    Cmd.group
      (Cmd.info "dpv" ~version:"1.0.0" ~doc)
      [
        train_cmd;
        verify_cmd;
        campaign_cmd;
        merge_journals_cmd;
        serve_cmd;
        client_cmd;
        top_cmd;
        certify_cmd;
        check_cert_cmd;
        refine_cmd;
        attack_cmd;
        monitor_cmd;
        render_cmd;
        info_cmd;
      ]
  in
  exit (Cmd.eval' main)
