(* Span tracing in Chrome trace_event format.

   Disabled (the default), every instrumentation site is one relaxed
   atomic load — the same discipline as Dpv_linprog.Faults — so the
   solver hot paths pay nothing measurable.  Armed, events accumulate
   in one mutex-protected in-memory buffer (campaign-scale traces are
   thousands of events, not millions) and are written once at the end. *)

type event =
  | Complete of {
      name : string;
      ts_ns : int;
      dur_ns : int;
      tid : int;
      args : (string * string) list;
    }
  | Instant of {
      name : string;
      ts_ns : int;
      tid : int;
      args : (string * string) list;
    }
  | Thread_name of { tid : int; label : string }

let armed = Atomic.make false
let lock = Mutex.create ()
let events : event list ref = ref []
let epoch_ns = ref 0

let enabled () = Atomic.get armed

let configure () =
  Mutex.protect lock (fun () ->
      events := [];
      epoch_ns := Mclock.now_ns ());
  Atomic.set armed true

let disable () = Atomic.set armed false

(* Job-scoped arming for dpv serve: start collecting without discarding
   whatever an already-armed global trace has buffered, and keep the
   epoch stable across jobs so per-job extracts share one timeline. *)
let arm () =
  Mutex.protect lock (fun () ->
      if !epoch_ns = 0 then epoch_ns := Mclock.now_ns ());
  Atomic.set armed true

(* ---------------- ambient job context ----------------

   One global cell, not domain-local: the serve executor runs jobs one
   at a time, and the pool workers it fans out to should inherit the
   same job's trace id.  [record] stamps the id into every event's args
   so a job's spans can be extracted later ([tagged_events]) even
   though they interleave with other instrumentation in one buffer. *)

let context_cell : string option Atomic.t = Atomic.make None
let context () = Atomic.get context_cell

let with_context id f =
  let prev = Atomic.exchange context_cell (Some id) in
  Fun.protect ~finally:(fun () -> Atomic.set context_cell prev) f

let record ev =
  let ev =
    match (Atomic.get context_cell, ev) with
    | Some id, Complete c -> Complete { c with args = ("trace", id) :: c.args }
    | Some id, Instant i -> Instant { i with args = ("trace", id) :: i.args }
    | _ -> ev
  in
  Mutex.protect lock (fun () -> events := ev :: !events)
let tid () = (Domain.self () :> int)

(* Explicit begin/end pair for hot sites that want to avoid even a
   closure allocation on the enabled path: [begin_ns] returns 0 when
   tracing is off, and [complete] drops the event for a 0 start (which
   also covers tracing being disabled mid-span). *)
let begin_ns () = if Atomic.get armed then Mclock.now_ns () else 0

let complete ?(args = []) ~name t0 =
  if t0 <> 0 && Atomic.get armed then
    record
      (Complete
         { name; ts_ns = t0; dur_ns = Mclock.now_ns () - t0; tid = tid (); args })

let with_span ?(args = []) name f =
  if not (Atomic.get armed) then f ()
  else begin
    let t0 = Mclock.now_ns () in
    match f () with
    | v ->
        record
          (Complete
             {
               name;
               ts_ns = t0;
               dur_ns = Mclock.now_ns () - t0;
               tid = tid ();
               args;
             });
        v
    | exception e ->
        (* The span still lands in the trace — an aborted phase with its
           exception text is exactly what a chaos-run trace is for. *)
        record
          (Complete
             {
               name;
               ts_ns = t0;
               dur_ns = Mclock.now_ns () - t0;
               tid = tid ();
               args = ("exn", Printexc.to_string e) :: args;
             });
        raise e
  end

let instant ?(args = []) name =
  if Atomic.get armed then
    record (Instant { name; ts_ns = Mclock.now_ns (); tid = tid (); args })

let name_thread label =
  if Atomic.get armed then record (Thread_name { tid = tid (); label })

let event_count () = Mutex.protect lock (fun () -> List.length !events)

let tagged_events id =
  let tagged = function
    | Complete { args; _ } | Instant { args; _ } ->
        List.exists (fun (k, v) -> k = "trace" && v = id) args
    | Thread_name _ -> true
    (* thread metas label the tracks the job's spans live on *)
  in
  Mutex.protect lock (fun () -> List.rev (List.filter tagged !events))

let clear () = Mutex.protect lock (fun () -> events := [])

(* ---------------- Chrome trace_event JSON ---------------- *)

(* Timestamps are microseconds relative to [configure] time, with
   nanosecond precision kept in the fraction — what chrome://tracing
   and Perfetto expect for "ts"/"dur". *)
let event_json pid epoch ev =
  let us ns = Json.Num (float_of_int ns /. 1e3) in
  let event name ph tid times args =
    Json.Obj
      ((("name", Json.Str name) :: ("ph", Json.Str ph) :: times)
      @ [
          ("pid", Json.int pid);
          ("tid", Json.int tid);
          ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args));
        ])
  in
  match ev with
  | Complete { name; ts_ns; dur_ns; tid; args } ->
      event name "X" tid [ ("ts", us (ts_ns - epoch)); ("dur", us dur_ns) ] args
  | Instant { name; ts_ns; tid; args } ->
      let times = [ ("s", Json.Str "t"); ("ts", us (ts_ns - epoch)) ] in
      event name "i" tid times args
  | Thread_name { tid; label } ->
      event "thread_name" "M" tid [] [ ("name", label) ]

let json_of ~epoch evs =
  let pid = Unix.getpid () in
  (* Metadata first so viewers label threads before their first event. *)
  let metas, rest =
    List.partition (function Thread_name _ -> true | _ -> false) evs
  in
  let events = List.map (event_json pid epoch) (metas @ rest) in
  Json.encode ~indent:2
    (Json.Obj
       [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ])
  ^ "\n"

let to_json () =
  let evs, epoch =
    Mutex.protect lock (fun () -> (List.rev !events, !epoch_ns))
  in
  json_of ~epoch evs

let events_to_json evs =
  let epoch = Mutex.protect lock (fun () -> !epoch_ns) in
  json_of ~epoch evs

let write ~path =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_json ()))

let init_from_env () =
  match Sys.getenv_opt "DPV_TRACE" with
  | None -> ()
  | Some path when String.trim path = "" -> ()
  | Some path ->
      configure ();
      at_exit (fun () -> write ~path)
