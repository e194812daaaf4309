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

let floats a = Json.Arr (Array.to_list (Array.map (fun x -> Json.Num x) a))

(* Floats print with 17 significant digits ({!Json.encode}), so a
   replayed verdict carries bit-identical witnesses and timings. *)
let result_json (r : Verify.result) =
  let verdict =
    match r.Verify.verdict with
    | Verify.Safe { conditional } ->
        [ ("verdict", Json.Str "safe"); ("conditional", Json.Bool conditional) ]
    | Verify.Unsafe { features; output; logit } ->
        [
          ("verdict", Json.Str "unsafe");
          ("features", floats features);
          ("output", floats output);
          ("logit", Json.Num logit);
        ]
    | Verify.Unknown reason ->
        [ ("verdict", Json.Str "unknown"); ("reason", Json.Str reason) ]
  in
  let s = r.Verify.milp_stats in
  let milp =
    List.map (fun (c : Milp.counter) -> (c.key, Json.int (c.get s)))
      Milp.counters
    @ [
        ("lp_time_s", Json.Num s.Milp.lp_time_s);
        ( "per_worker_nodes",
          Json.Arr (List.map Json.int (Array.to_list s.Milp.per_worker_nodes))
        );
      ]
  in
  Json.Obj
    (verdict
    @ [
        ("encoding", Json.Str r.Verify.encoding);
        ("num_binaries", Json.int r.Verify.num_binaries);
        ("wall_time_s", Json.Num r.Verify.wall_time_s);
        ("milp", Json.Obj milp);
      ])

let entry_to_line e =
  let word, reason, result =
    match e.outcome with
    | Done r -> ("done", [], [ ("result", result_json r) ])
    | Crashed m -> ("crashed", [ ("reason", Json.Str m) ], [])
    | Skipped m -> ("skipped", [ ("reason", Json.Str m) ], [])
  in
  Json.encode
    (Json.Obj
       ([
          ("key", Json.Str e.key);
          ("label", Json.Str e.label);
          ("outcome", Json.Str word);
        ]
       @ reason
       @ [
           ("attempts", Json.int e.attempts);
           ("dense_retry", Json.Bool e.dense_retry);
           ("deadline_retry", Json.Bool e.deadline_retry);
         ]
       @ result))

let meta_to_line m =
  Json.encode
    (Json.Obj
       ([
          ("journal_meta", Json.int 1);
          ("shard", Json.int m.shard);
          ("shard_count", Json.int m.shard_count);
          ("runners", Json.int m.runners);
          ("total_wall_s", Json.Num m.total_wall_s);
        ]
       @ (if m.trace = "" then [] else [ ("trace", Json.Str m.trace) ])
       @ [ ("metrics", Dpv_obs.Metrics.to_json m.metrics) ]))

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

(* journal-crash: a journal write fails with [Sys_error]. *)
let journal_crash = Faults.site "journal-crash"

(* Whole-file write to a sibling tmp, then an atomic rename: readers
   (and a resumed campaign) never see a torn line.  [before_rename]
   runs in the window where a real crash leaves [path] at its previous
   complete state. *)
let write_file ~path ~before_rename entries meta =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     List.iter
       (fun line ->
         output_string oc line;
         output_char oc '\n')
       (List.map entry_to_line entries
       @ Option.to_list (Option.map meta_to_line meta));
     fsync_channel oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  before_rename ();
  Sys.rename tmp path

(* The writer's whole-file path: the first write (which doubles as
   resume compaction — the seeded entries reach disk in one pass) and
   the recovery after a failed append; steady-state appends take the
   O(1) fast path below.  Called with the writer lock held. *)
let rewrite w =
  close_channel w;
  write_file ~path:w.path (List.rev w.entries_rev) w.meta
    ~before_rename:(fun () ->
      if Faults.fire journal_crash then
        raise (Sys_error "injected journal write failure"));
  Metrics.incr m_rewrites 1;
  w.pending_rewrite <- false;
  w.oc <- Some (open_out_gen [ Open_wronly; Open_append ] 0o644 w.path)

(* Persist the record just filed into [w]: the O(1) steady-state
   append (one line, flushed and fsynced) when the file is in a
   known-good state, the atomic rewrite otherwise.  The fault fires
   before anything reaches the channel, so — like a real failure caught
   below — the on-disk journal keeps its previous complete state.
   [line] is encoded only on the fast path.  Called with the writer
   lock held, after the record is filed: if the write fails, the next
   successful append rewrites everything and nothing recorded is
   lost. *)
let persist w line =
  let t0 = Dpv_obs.Mclock.now_ns () in
  let trace_t0 = Trace.begin_ns () in
  let append_line () =
    if Faults.fire journal_crash then
      raise (Sys_error "injected journal write failure");
    match w.oc with
    | None -> rewrite w
    | Some oc ->
        output_string oc (line ());
        output_char oc '\n';
        fsync_channel oc
  in
  match if w.pending_rewrite then rewrite w else append_line () with
  | () ->
      Metrics.incr m_appends 1;
      Metrics.observe append_hist (Dpv_obs.Mclock.now_ns () - t0);
      Trace.complete ~name:"journal.append" trace_t0
  | exception ex ->
      (* The append channel may hold a partial line; drop it and force
         the next append through the atomic rewrite so every retained
         record still reaches disk. *)
      close_channel w;
      w.pending_rewrite <- true;
      Trace.complete
        ~args:[ ("exn", Printexc.to_string ex) ]
        ~name:"journal.append" trace_t0;
      raise ex

let append w e =
  Mutex.protect w.lock (fun () ->
      w.entries_rev <- e :: w.entries_rev;
      persist w (fun () -> entry_to_line e))

(* The shard trailer is retained so a recovery rewrite reproduces it
   after the entries.  Campaigns call this once, right before close. *)
let append_meta w m =
  Mutex.protect w.lock (fun () ->
      w.meta <- Some m;
      persist w (fun () -> meta_to_line m))

let close w = Mutex.protect w.lock (fun () -> close_channel w)

(* One-shot atomic write of a complete journal (tmp + rename) — how
   [dpv merge-journals] materializes the merged entry list so the
   output is always a well-formed resume substrate, never a torn
   partial merge. *)
let save ~path entries = write_file ~path ~before_rename:ignore entries None

(* ---------------- reader ---------------- *)

exception Bad_line of string

let bad ~line fmt =
  Printf.ksprintf
    (fun m -> raise (Bad_line (Printf.sprintf "line %d: %s" line m)))
    fmt

let field ~line name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> v
  | None -> bad ~line "missing or ill-typed field %S" name

let array ~line ~what conv name j =
  Array.of_list
    (List.map
       (fun x ->
         match conv x with
         | Some v -> v
         | None -> bad ~line "%s in array %S" what name)
       (field ~line name Json.to_list j))

let float_array ~line = array ~line ~what:"non-number" Json.to_float

(* A row marked [optional] reads 0 when its key is absent, so journals
   written before that counter existed stay resumable; a key that is
   present must hold an integer. *)
let parse_milp ~line j =
  let lp_time_s = field ~line "lp_time_s" Json.to_float j in
  let per_worker_nodes =
    array ~line ~what:"non-integer" Json.to_int "per_worker_nodes" j
  in
  List.fold_left
    (fun s (c : Milp.counter) ->
      c.set s
        (match Json.member c.key j with
        | None when c.optional -> 0
        | _ -> field ~line c.key Json.to_int j))
    { Milp.empty_stats with lp_time_s; per_worker_nodes }
    Milp.counters

let parse_result ~line j =
  let verdict =
    match field ~line "verdict" Json.to_string j with
    | "safe" ->
        Verify.Safe { conditional = field ~line "conditional" Json.to_bool j }
    | "unsafe" ->
        let features = float_array ~line "features" j in
        let output = float_array ~line "output" j in
        let logit = field ~line "logit" Json.to_float j in
        Verify.Unsafe { features; output; logit }
    | "unknown" -> Verify.Unknown (field ~line "reason" Json.to_string j)
    | other -> bad ~line "unknown verdict %S" other
  in
  let encoding = field ~line "encoding" Json.to_string j in
  let num_binaries = field ~line "num_binaries" Json.to_int j in
  let wall_time_s = field ~line "wall_time_s" Json.to_float j in
  let milp_stats = parse_milp ~line (field ~line "milp" Option.some j) in
  { Verify.verdict; milp_stats; encoding; num_binaries; wall_time_s }

let parse_entry ~line j =
  let key = field ~line "key" Json.to_string j in
  let label = field ~line "label" Json.to_string j in
  let word = field ~line "outcome" Json.to_string j in
  let attempts = field ~line "attempts" Json.to_int j in
  let dense_retry = field ~line "dense_retry" Json.to_bool j in
  let deadline_retry = field ~line "deadline_retry" Json.to_bool j in
  let outcome =
    match word with
    | "done" -> Done (parse_result ~line (field ~line "result" Option.some j))
    | "crashed" -> Crashed (field ~line "reason" Json.to_string j)
    | "skipped" -> Skipped (field ~line "reason" Json.to_string j)
    | other -> bad ~line "unknown outcome %S" other
  in
  { key; label; outcome; attempts; dense_retry; deadline_retry }

let parse_metrics = Metrics.of_json

let parse_meta ~line j =
  let shard = field ~line "shard" Json.to_int j in
  let shard_count = field ~line "shard_count" Json.to_int j in
  let runners = field ~line "runners" Json.to_int j in
  let total_wall_s = field ~line "total_wall_s" Json.to_float j in
  let trace =
    Option.value ~default:""
      (Option.bind (Json.member "trace" j) Json.to_string)
  in
  match Metrics.of_json ~line (field ~line "metrics" Option.some j) with
  | Ok metrics -> { shard; shard_count; runners; total_wall_s; trace; metrics }
  | Error m -> raise (Bad_line m)

let read_lines ~path decode =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | content ->
      (* Every complete append ends in a newline, so the split's last
         piece is empty unless an append was torn: a final line with no
         terminator is the only one a crash can leave half-written, and
         it is dropped.  Corruption anywhere else (or on a
         newline-terminated final line) is damage, not a crash. *)
      let lines = String.split_on_char '\n' content in
      let last = List.length lines in
      let rec go acc line = function
        | [] -> Ok (List.rev acc)
        | l :: rest when String.trim l = "" -> go acc (line + 1) rest
        | l :: rest -> (
            match decode ~line l with
            | Ok x -> go (x :: acc) (line + 1) rest
            | Error _ when line = last -> Ok (List.rev acc)
            | Error m -> Error m)
      in
      go [] 1 lines

let load_with_meta ~path =
  read_lines ~path (fun ~line l ->
      try
        Ok
          (match Json.of_string l with
          | Error m -> bad ~line "%s" m
          | Ok j -> (
              (* A meta trailer self-identifies; anything else must be
                 a query entry. *)
              match Json.member "journal_meta" j with
              | Some _ -> Either.Right (parse_meta ~line j)
              | None -> Either.Left (parse_entry ~line j)))
      with Bad_line m -> Error m)
  |> Result.map (List.partition_map Fun.id)

(* Resume only needs the entries; sharded journals' meta trailers are
   skipped transparently, so a merged or sharded journal is a valid
   [--resume] input unchanged. *)
let load ~path = Result.map fst (load_with_meta ~path)

let result_of_entry e =
  match e.outcome with Done r -> Some r | Crashed _ | Skipped _ -> None
