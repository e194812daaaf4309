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
let m_write_failures = Metrics.counter "journal.write_failures"
let append_hist = Metrics.histogram "journal.append_ns"
let sync_hist = Metrics.histogram "journal.sync_ns"

(* A filed record, waiting for its group commit. *)
type record = {
  line : unit -> string;  (* encoded by the syncer, off the settling task *)
  filed_ns : int;
  on_sync : (unit, exn) result -> unit;
}

(* Where the next group goes.  Owned by the syncer while it runs. *)
type target =
  | Fresh  (* no file yet: the first group creates it by open + append *)
  | Rewrite
      (* the whole file must be rewritten: the writer was seeded (the
         target may hold stale or resumed-from content), or a group
         write failed *)
  | Open of out_channel  (* the append channel of a complete file *)

type writer = {
  path : string;
  lock : Mutex.t;
  filed : Condition.t;  (* the syncer waits here for records or [close] *)
  synced : Condition.t;  (* [append] and [close] wait here for groups *)
  mutable entries_rev : entry list;  (* every entry, for a rewrite *)
  mutable meta : meta option;
      (* shard trailer, retained so a recovery rewrite reproduces it *)
  mutable queue_rev : record list;  (* filed, not yet taken by the syncer *)
  mutable filed_count : int;
  mutable synced_count : int;
  mutable closing : bool;
  mutable target : target;
  mutable failures : int;
  mutable syncer : Thread.t option;
}

let fsync_channel oc =
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc)
  with Unix.Unix_error _ -> ()

let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let close_channel w =
  match w.target with
  | Open oc ->
      w.target <- Rewrite;
      close_out_noerr oc
  | Fresh | Rewrite -> ()

(* journal-crash: a journal write fails with [Sys_error].  It fires
   once per group write (every record of the group fails together),
   and on the rewrite path just before the rename. *)
let journal_crash = Faults.site "journal-crash"

let injected_failure () =
  if Faults.fire journal_crash then
    raise (Sys_error "injected journal write failure")

let output_lines oc lines =
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines

(* Whole-file write to a sibling tmp, then an atomic rename and an
   fsync of the directory, so the rename itself is durable: readers
   (and a resumed campaign) never see a torn line.  [before_rename]
   runs in the window where a real crash leaves [path] at its previous
   complete state. *)
let write_file ~path ~before_rename entries meta =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     output_lines oc
       (List.map entry_to_line entries
       @ Option.to_list (Option.map meta_to_line meta));
     fsync_channel oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  before_rename ();
  Sys.rename tmp path;
  fsync_dir path

(* The whole-file path of a seeded writer (which doubles as resume
   compaction: the seeded entries reach disk in one pass) and the
   recovery after a failed group.  Leaves the append channel open. *)
let rewrite w (entries, meta) =
  close_channel w;
  write_file ~path:w.path entries meta ~before_rename:injected_failure;
  Metrics.incr m_rewrites 1;
  w.target <- Open (open_out_gen [ Open_wronly; Open_append ] 0o644 w.path)

let count_failure w =
  Mutex.protect w.lock (fun () -> w.failures <- w.failures + 1);
  Metrics.incr m_write_failures 1

(* One group commit: every record the syncer took, written and made
   durable by one fsync.  [whole] is the writer's full content, taken
   with the group, for the rewrite path.  A failure drops the append
   channel (it may hold a partial line) and sends the next group
   through the rewrite, so every retained record still reaches disk. *)
let write_group w group whole =
  let t0 = Dpv_obs.Mclock.now_ns () in
  let trace_t0 = Trace.begin_ns () in
  let append oc =
    output_lines oc (List.map (fun r -> r.line ()) group);
    fsync_channel oc
  in
  let args = [ ("records", string_of_int (List.length group)) ] in
  match
    match w.target with
    | Rewrite -> rewrite w (Lazy.force whole)
    | Open oc ->
        injected_failure ();
        append oc
    | Fresh ->
        injected_failure ();
        let oc =
          open_out_gen
            [ Open_wronly; Open_creat; Open_trunc; Open_append ]
            0o644 w.path
        in
        w.target <- Open oc;
        append oc;
        fsync_dir w.path
  with
  | () ->
      let now = Dpv_obs.Mclock.now_ns () in
      Metrics.observe sync_hist (now - t0);
      List.iter (fun r -> Metrics.observe append_hist (now - r.filed_ns)) group;
      Trace.complete ~args ~name:"journal.sync" trace_t0;
      Ok ()
  | exception ex ->
      close_channel w;
      w.target <- Rewrite;
      count_failure w;
      Trace.complete
        ~args:(("exn", Printexc.to_string ex) :: args)
        ~name:"journal.sync" trace_t0;
      Error ex

(* The syncer: take whatever is filed, commit it as one group, then
   run the group's callbacks in filing order.  Exits once [close] asks
   and nothing is left. *)
let rec sync_loop w =
  let group, whole =
    Mutex.protect w.lock (fun () ->
        while w.queue_rev = [] && not w.closing do
          Condition.wait w.filed w.lock
        done;
        let group = List.rev w.queue_rev in
        w.queue_rev <- [];
        let entries = w.entries_rev and meta = w.meta in
        (group, lazy (List.rev entries, meta)))
  in
  if group <> [] then begin
    let result = write_group w group whole in
    List.iter (fun r -> try r.on_sync result with _ -> ()) group;
    Mutex.protect w.lock (fun () ->
        w.synced_count <- w.synced_count + List.length group;
        Condition.broadcast w.synced);
    sync_loop w
  end

let create ~path existing =
  let w =
    {
      path;
      lock = Mutex.create ();
      filed = Condition.create ();
      synced = Condition.create ();
      entries_rev = List.rev existing;
      meta = None;
      queue_rev = [];
      filed_count = 0;
      synced_count = 0;
      closing = false;
      target = (if existing = [] then Fresh else Rewrite);
      failures = 0;
      syncer = None;
    }
  in
  w.syncer <- Some (Thread.create sync_loop w);
  w

(* Queue one record; called with the writer lock held.  Returns its
   position in filing order. *)
let enqueue w ~on_sync line =
  if w.closing then invalid_arg "Journal: the writer is closed";
  Metrics.incr m_appends 1;
  w.queue_rev <-
    { line; filed_ns = Dpv_obs.Mclock.now_ns (); on_sync } :: w.queue_rev;
  w.filed_count <- w.filed_count + 1;
  Condition.signal w.filed;
  w.filed_count

let file_entry w ~on_sync e =
  Mutex.protect w.lock (fun () ->
      let seq = enqueue w ~on_sync (fun () -> entry_to_line e) in
      w.entries_rev <- e :: w.entries_rev;
      seq)

let file_meta_record w ~on_sync m =
  Mutex.protect w.lock (fun () ->
      let seq = enqueue w ~on_sync (fun () -> meta_to_line m) in
      w.meta <- Some m;
      seq)

let file w ?(on_sync = ignore) e = ignore (file_entry w ~on_sync e)
let file_meta w m = ignore (file_meta_record w ~on_sync:ignore m)

let await_synced w seq =
  Mutex.protect w.lock (fun () ->
      while w.synced_count < seq do
        Condition.wait w.synced w.lock
      done)

(* File and wait: [append]'s synchronous contract, on [file]'s path. *)
let file_and_wait file_record w x =
  let result = ref (Ok ()) in
  await_synced w (file_record w ~on_sync:(fun r -> result := r) x);
  match !result with Ok () -> () | Error ex -> raise ex

let append w e = file_and_wait file_entry w e
let append_meta w m = file_and_wait file_meta_record w m

(* Waits for the last group, joins the syncer, and retries a rewrite
   the last group left pending.  A failed retry is counted like any
   failed group. *)
let close w =
  let syncer =
    Mutex.protect w.lock (fun () ->
        w.closing <- true;
        Condition.signal w.filed;
        let th = w.syncer in
        w.syncer <- None;
        th)
  in
  Option.iter
    (fun th ->
      Thread.join th;
      (match w.target with
      | Rewrite when w.filed_count > 0 -> (
          try rewrite w (List.rev w.entries_rev, w.meta)
          with _ -> count_failure w)
      | Fresh | Rewrite | Open _ -> ());
      close_channel w)
    syncer

let write_failures w = Mutex.protect w.lock (fun () -> w.failures)

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
