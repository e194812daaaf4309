module Milp = Dpv_linprog.Milp
module Faults = Dpv_linprog.Faults

type outcome =
  | Done of Verify.result
  | Crashed of string
  | Skipped of string

type entry = {
  key : string;
  label : string;
  outcome : outcome;
  attempts : int;
  dense_retry : bool;
  deadline_retry : bool;
}

(* Shard trailer: one meta line at the end of a sharded campaign's
   journal carries what the merge step needs beyond the per-query
   entries — which slice of the partition this file covers and the
   shard's metrics snapshot, so [dpv merge-journals] can report exact
   whole-campaign totals without re-running anything. *)
type meta = {
  shard : int;
  shard_count : int;
  runners : int;
  total_wall_s : float;
  trace : string;  (* correlating trace id; "" when the run had none *)
  metrics : Dpv_obs.Metrics.snapshot;
}

(* ---------------- serialization ---------------- *)

(* %.17g round-trips every finite double, so a replayed verdict carries
   bit-identical witnesses and timings. *)
let buf_floats b arr =
  Buffer.add_char b '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%.17g" x)
    arr;
  Buffer.add_char b ']'

let buf_ints b arr =
  Buffer.add_char b '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%d" x)
    arr;
  Buffer.add_char b ']'

let buf_result b (r : Verify.result) =
  Buffer.add_string b "{";
  (match r.Verify.verdict with
  | Verify.Safe { conditional } ->
      Printf.bprintf b "\"verdict\": \"safe\", \"conditional\": %b" conditional
  | Verify.Unsafe { features; output; logit } ->
      Buffer.add_string b "\"verdict\": \"unsafe\", \"features\": ";
      buf_floats b features;
      Buffer.add_string b ", \"output\": ";
      buf_floats b output;
      Printf.bprintf b ", \"logit\": %.17g" logit
  | Verify.Unknown reason ->
      Printf.bprintf b "\"verdict\": \"unknown\", \"reason\": %S" reason);
  Printf.bprintf b ", \"encoding\": %S, \"num_binaries\": %d, \"wall_time_s\": %.17g"
    r.Verify.encoding r.Verify.num_binaries r.Verify.wall_time_s;
  let s = r.Verify.milp_stats in
  Buffer.add_string b ", \"milp\": {";
  (* Plain buffer writes, not a [Printf] call per row: every settled
     query writes this object, and per-row [Printf] makes it ~1.6x
     slower with ~8x the garbage. *)
  List.iter
    (fun (c : Milp.counter) ->
      Buffer.add_char b '"';
      Buffer.add_string b c.key;
      Buffer.add_string b "\": ";
      Buffer.add_string b (string_of_int (c.get s));
      Buffer.add_string b ", ")
    Milp.counters;
  Printf.bprintf b "\"lp_time_s\": %.17g, \"per_worker_nodes\": "
    s.Milp.lp_time_s;
  buf_ints b s.Milp.per_worker_nodes;
  Buffer.add_string b "}}"

let entry_to_line e =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\"key\": %S, \"label\": %S, " e.key e.label;
  (match e.outcome with
  | Done _ -> Buffer.add_string b "\"outcome\": \"done\""
  | Crashed m -> Printf.bprintf b "\"outcome\": \"crashed\", \"reason\": %S" m
  | Skipped m -> Printf.bprintf b "\"outcome\": \"skipped\", \"reason\": %S" m);
  Printf.bprintf b ", \"attempts\": %d, \"dense_retry\": %b, \"deadline_retry\": %b"
    e.attempts e.dense_retry e.deadline_retry;
  (match e.outcome with
  | Done r ->
      Buffer.add_string b ", \"result\": ";
      buf_result b r
  | Crashed _ | Skipped _ -> ());
  Buffer.add_string b "}";
  Buffer.contents b

(* The journal is JSON lines, so the embedded dpv-metrics/1 snapshot
   must be emitted compactly — the pretty printer in [Dpv_obs.Metrics]
   spans lines. *)
let buf_metrics b (s : Dpv_obs.Metrics.snapshot) =
  let obj entries emit =
    Buffer.add_char b '{';
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_string b ", ";
        emit e)
      entries;
    Buffer.add_char b '}'
  in
  Buffer.add_string b "{\"schema\": \"dpv-metrics/1\", \"counters\": ";
  obj s.Dpv_obs.Metrics.snap_counters (fun (name, v) ->
      Printf.bprintf b "%S: %d" name v);
  Buffer.add_string b ", \"gauges\": ";
  obj s.Dpv_obs.Metrics.snap_gauges (fun (name, v) ->
      Printf.bprintf b "%S: %d" name v);
  Buffer.add_string b ", \"rates\": ";
  obj s.Dpv_obs.Metrics.snap_rates (fun (name, v) ->
      Printf.bprintf b "%S: %d" name v);
  Buffer.add_string b ", \"histograms\": ";
  obj s.Dpv_obs.Metrics.snap_histograms (fun (name, h) ->
      Printf.bprintf b "%S: {\"count\": %d, \"sum_ns\": %d, \"buckets\": ["
        name h.Dpv_obs.Metrics.count h.Dpv_obs.Metrics.sum;
      List.iteri
        (fun i (up, n) ->
          if i > 0 then Buffer.add_string b ", ";
          Printf.bprintf b "[%d, %d]" up n)
        h.Dpv_obs.Metrics.buckets;
      Buffer.add_string b "]}");
  Buffer.add_char b '}'

let meta_to_line m =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "{\"journal_meta\": 1, \"shard\": %d, \"shard_count\": %d, \
     \"runners\": %d, \"total_wall_s\": %.17g, "
    m.shard m.shard_count m.runners m.total_wall_s;
  if m.trace <> "" then Printf.bprintf b "\"trace\": %S, " m.trace;
  Buffer.add_string b "\"metrics\": ";
  buf_metrics b m.metrics;
  Buffer.add_string b "}";
  Buffer.contents b

(* ---------------- writer ---------------- *)

module Metrics = Dpv_obs.Metrics
module Trace = Dpv_obs.Trace

let m_appends = Metrics.counter "journal.appends"
let m_rewrites = Metrics.counter "journal.rewrites"
let append_hist = Metrics.histogram "journal.append_ns"

type writer = {
  path : string;
  lock : Mutex.t;
  mutable entries_rev : entry list;
  mutable meta : meta option;
      (* shard trailer, retained so a recovery rewrite reproduces it *)
  mutable oc : out_channel option;
      (* open append channel while the fast path is live *)
  mutable pending_rewrite : bool;
      (* the next append must rewrite the whole file: set at creation
         (the target may hold stale or resumed-from content) and after
         any failed write *)
}

let create ~path existing =
  {
    path;
    lock = Mutex.create ();
    entries_rev = List.rev existing;
    meta = None;
    oc = None;
    pending_rewrite = true;
  }

let close_channel w =
  match w.oc with
  | None -> ()
  | Some oc ->
      w.oc <- None;
      (try close_out oc with Sys_error _ -> ())

let fsync_channel oc =
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc)
  with Unix.Unix_error _ -> ()

(* Whole-file rewrite to a sibling tmp, then an atomic rename: readers
   (and a resumed campaign) never see a torn line.  Used for the first
   write (which doubles as resume compaction — the seeded entries reach
   disk in one pass) and to recover after a failed append; steady-state
   appends take the O(1) fast path below.  Called with the writer lock
   held. *)
let rewrite w =
  close_channel w;
  let tmp = w.path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     List.iter
       (fun e ->
         output_string oc (entry_to_line e);
         output_char oc '\n')
       (List.rev w.entries_rev);
     Option.iter
       (fun m ->
         output_string oc (meta_to_line m);
         output_char oc '\n')
       w.meta;
     fsync_channel oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  (* The injected failure lands between the tmp write and the rename —
     the window where a real crash leaves the journal at its previous
     complete state. *)
  if Faults.fire Faults.Journal_crash then
    raise (Sys_error "injected journal write failure");
  Sys.rename tmp w.path;
  Metrics.incr m_rewrites 1;
  w.pending_rewrite <- false;
  w.oc <- Some (open_out_gen [ Open_wronly; Open_append ] 0o644 w.path)

(* O(1) steady-state append: one line, flushed and fsynced.  The fault
   fires before anything reaches the channel, so — like a real failure
   caught below — the on-disk journal keeps its previous complete
   state. *)
let append_line w e =
  if Faults.fire Faults.Journal_crash then
    raise (Sys_error "injected journal write failure");
  match w.oc with
  | None -> rewrite w
  | Some oc ->
      output_string oc (entry_to_line e);
      output_char oc '\n';
      fsync_channel oc

let append w e =
  Mutex.protect w.lock (fun () ->
      (* Entry first: if the write fails, the next successful append
         rewrites the full list and nothing recorded is lost. *)
      w.entries_rev <- e :: w.entries_rev;
      let t0 = Dpv_obs.Mclock.now_ns () in
      let trace_t0 = Trace.begin_ns () in
      match if w.pending_rewrite then rewrite w else append_line w e with
      | () ->
          Metrics.incr m_appends 1;
          Metrics.observe append_hist (Dpv_obs.Mclock.now_ns () - t0);
          Trace.complete ~name:"journal.append" trace_t0
      | exception ex ->
          (* The append channel may hold a partial line; drop it and
             force the next append through the atomic rewrite so every
             retained entry still reaches disk. *)
          close_channel w;
          w.pending_rewrite <- true;
          Trace.complete
            ~args:[ ("exn", Printexc.to_string ex) ]
            ~name:"journal.append" trace_t0;
          raise ex)

(* The shard trailer rides the same machinery as entry appends: fast
   O(1) append when the channel is healthy, full atomic rewrite when a
   prior write failed.  Campaigns call this once, right before close. *)
let append_meta w m =
  Mutex.protect w.lock (fun () ->
      w.meta <- Some m;
      let line () =
        if Faults.fire Faults.Journal_crash then
          raise (Sys_error "injected journal write failure");
        match w.oc with
        | None -> rewrite w
        | Some oc ->
            output_string oc (meta_to_line m);
            output_char oc '\n';
            fsync_channel oc
      in
      match if w.pending_rewrite then rewrite w else line () with
      | () -> Metrics.incr m_appends 1
      | exception ex ->
          close_channel w;
          w.pending_rewrite <- true;
          raise ex)

let close w = Mutex.protect w.lock (fun () -> close_channel w)

(* One-shot atomic write of a complete journal (tmp + rename) — how
   [dpv merge-journals] materializes the merged entry list so the
   output is always a well-formed resume substrate, never a torn
   partial merge. *)
let save ~path entries =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     List.iter
       (fun e ->
         output_string oc (entry_to_line e);
         output_char oc '\n')
       entries;
     fsync_channel oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  Sys.rename tmp path

(* ---------------- reader ---------------- *)

let ( let* ) = Result.bind

let field ~line name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None ->
      Error
        (Printf.sprintf "line %d: missing or ill-typed field %S" line name)

let array ~line ~what conv name j =
  let* l = field ~line name Json.to_list j in
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | x :: rest -> (
        match conv x with
        | Some v -> go (v :: acc) rest
        | None ->
            Error (Printf.sprintf "line %d: %s in array %S" line what name))
  in
  go [] l

let float_array ~line = array ~line ~what:"non-number" Json.to_float
let int_array ~line = array ~line ~what:"non-integer" Json.to_int

(* A row marked [optional] reads 0 when its key is absent, so journals
   written before that counter existed stay resumable; a key that is
   present must hold an integer. *)
let parse_milp ~line j =
  let* lp_time_s = field ~line "lp_time_s" Json.to_float j in
  let* per_worker_nodes = int_array ~line "per_worker_nodes" j in
  List.fold_left
    (fun acc (c : Milp.counter) ->
      let* s = acc in
      let* v =
        match Json.member c.key j with
        | None when c.optional -> Ok 0
        | _ -> field ~line c.key Json.to_int j
      in
      Ok (c.set s v))
    (Ok { Milp.empty_stats with lp_time_s; per_worker_nodes })
    Milp.counters

let parse_result ~line j =
  let* verdict_word = field ~line "verdict" Json.to_string j in
  let* verdict =
    match verdict_word with
    | "safe" ->
        let* conditional =
          field ~line "conditional"
            (function Json.Bool b -> Some b | _ -> None)
            j
        in
        Ok (Verify.Safe { conditional })
    | "unsafe" ->
        let* features = float_array ~line "features" j in
        let* output = float_array ~line "output" j in
        let* logit = field ~line "logit" Json.to_float j in
        Ok (Verify.Unsafe { features; output; logit })
    | "unknown" ->
        let* reason = field ~line "reason" Json.to_string j in
        Ok (Verify.Unknown reason)
    | other -> Error (Printf.sprintf "line %d: unknown verdict %S" line other)
  in
  let* encoding = field ~line "encoding" Json.to_string j in
  let* num_binaries = field ~line "num_binaries" Json.to_int j in
  let* wall_time_s = field ~line "wall_time_s" Json.to_float j in
  let* milp_json = field ~line "milp" Option.some j in
  let* milp_stats = parse_milp ~line milp_json in
  Ok { Verify.verdict; milp_stats; encoding; num_binaries; wall_time_s }

let parse_entry ~line j =
  let* key = field ~line "key" Json.to_string j in
  let* label = field ~line "label" Json.to_string j in
  let* word = field ~line "outcome" Json.to_string j in
  let* attempts = field ~line "attempts" Json.to_int j in
  let* dense_retry =
    field ~line "dense_retry" (function Json.Bool b -> Some b | _ -> None) j
  in
  let* deadline_retry =
    field ~line "deadline_retry"
      (function Json.Bool b -> Some b | _ -> None)
      j
  in
  let* outcome =
    match word with
    | "done" ->
        let* rj = field ~line "result" Option.some j in
        let* r = parse_result ~line rj in
        Ok (Done r)
    | "crashed" ->
        let* reason = field ~line "reason" Json.to_string j in
        Ok (Crashed reason)
    | "skipped" ->
        let* reason = field ~line "reason" Json.to_string j in
        Ok (Skipped reason)
    | other -> Error (Printf.sprintf "line %d: unknown outcome %S" line other)
  in
  Ok { key; label; outcome; attempts; dense_retry; deadline_retry }

let parse_metrics ~line j =
  let fields name =
    match Json.member name j with
    | Some (Json.Obj fs) -> Ok fs
    | _ ->
        Error (Printf.sprintf "line %d: metrics missing object %S" line name)
  in
  let ints fs =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (name, v) :: rest -> (
          match Json.to_int v with
          | Some n -> go ((name, n) :: acc) rest
          | None ->
              Error
                (Printf.sprintf "line %d: metric %S is not an integer" line
                   name))
    in
    go [] fs
  in
  let* counters = Result.bind (fields "counters") ints in
  let* gauges = Result.bind (fields "gauges") ints in
  (* "rates" arrived with dpv-obs/2; snapshots written before it simply
     have none. *)
  let* rates =
    match Json.member "rates" j with
    | Some (Json.Obj fs) -> ints fs
    | _ -> Ok []
  in
  let* hist_fields = fields "histograms" in
  let parse_hist (name, v) =
    let* count = field ~line "count" Json.to_int v in
    let* sum = field ~line "sum_ns" Json.to_int v in
    let* bucket_list = field ~line "buckets" Json.to_list v in
    let rec buckets acc = function
      | [] -> Ok (List.rev acc)
      | b :: rest -> (
          match Option.map (List.filter_map Json.to_int) (Json.to_list b) with
          | Some [ up; n ] -> buckets ((up, n) :: acc) rest
          | _ ->
              Error
                (Printf.sprintf "line %d: bad bucket in histogram %S" line
                   name))
    in
    let* buckets = buckets [] bucket_list in
    Ok (name, { Dpv_obs.Metrics.count; sum; buckets })
  in
  let rec hists acc = function
    | [] -> Ok (List.rev acc)
    | f :: rest ->
        let* h = parse_hist f in
        hists (h :: acc) rest
  in
  let* histograms = hists [] hist_fields in
  (* Snapshots carry a name-sorted invariant ([Metrics.merge] relies on
     it); re-sort on input rather than trusting the file. *)
  let sorted l = List.sort (fun (a, _) (b, _) -> compare (a : string) b) l in
  Ok
    {
      Dpv_obs.Metrics.snap_counters = sorted counters;
      snap_gauges = sorted gauges;
      snap_rates = sorted rates;
      snap_histograms = sorted histograms;
    }

let parse_meta ~line j =
  let* shard = field ~line "shard" Json.to_int j in
  let* shard_count = field ~line "shard_count" Json.to_int j in
  let* runners = field ~line "runners" Json.to_int j in
  let* total_wall_s = field ~line "total_wall_s" Json.to_float j in
  let trace =
    Option.value ~default:""
      (Option.bind (Json.member "trace" j) Json.to_string)
  in
  let* metrics_json = field ~line "metrics" Option.some j in
  let* metrics = parse_metrics ~line metrics_json in
  Ok { shard; shard_count; runners; total_wall_s; trace; metrics }

let load_with_meta ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | content ->
      (* Every complete append ends in a newline, so a final line with
         no terminator can only be the torn tail of an interrupted
         append — drop it and resume from the last complete entry.
         Corruption anywhere else (or on a newline-terminated final
         line) is still a hard error: that is damage, not a crash. *)
      let ends_with_newline =
        content = "" || content.[String.length content - 1] = '\n'
      in
      let lines = String.split_on_char '\n' content in
      let last_content_line =
        List.fold_left
          (fun (i, last) l ->
            (i + 1, if String.trim l = "" then last else i))
          (1, 0) lines
        |> snd
      in
      let rec go acc metas line = function
        | [] -> Ok (List.rev acc, List.rev metas)
        | l :: rest when String.trim l = "" -> go acc metas (line + 1) rest
        | l :: rest -> (
            let torn_ok = line = last_content_line && not ends_with_newline in
            let parsed =
              match Json.of_string l with
              | Error m -> Error (Printf.sprintf "line %d: %s" line m)
              | Ok j -> (
                  (* A meta trailer self-identifies; anything else must
                     be a query entry. *)
                  match Json.member "journal_meta" j with
                  | Some _ -> Result.map (fun m -> `Meta m) (parse_meta ~line j)
                  | None -> Result.map (fun e -> `Entry e) (parse_entry ~line j))
            in
            match parsed with
            | Error _ when torn_ok -> Ok (List.rev acc, List.rev metas)
            | Error m -> Error m
            | Ok (`Entry e) -> go (e :: acc) metas (line + 1) rest
            | Ok (`Meta m) -> go acc (m :: metas) (line + 1) rest)
      in
      go [] [] 1 lines

(* Resume only needs the entries; sharded journals' meta trailers are
   skipped transparently, so a merged or sharded journal is a valid
   [--resume] input unchanged. *)
let load ~path = Result.map fst (load_with_meta ~path)

let result_of_entry e =
  match e.outcome with Done r -> Some r | Crashed _ | Skipped _ -> None
