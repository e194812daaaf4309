type site = {
  name : string;
  mutable target : int; (* fires on this occurrence; 0 = never *)
  count : int Atomic.t;
  fired_count : int Atomic.t;
}

(* Registered sites, newest first.  Layers register at module
   initialization; the lock keeps a late registration safe anyway. *)
let registry_lock = Mutex.create ()
let registry : site list ref = ref []

let registered () = Mutex.protect registry_lock (fun () -> List.rev !registry)
let names () = List.map (fun s -> s.name) (registered ())

let site name =
  Mutex.protect registry_lock (fun () ->
      if List.exists (fun s -> s.name = name) !registry then
        invalid_arg
          (Printf.sprintf "Faults.site: %S is already registered" name);
      let s =
        { name; target = 0; count = Atomic.make 0; fired_count = Atomic.make 0 }
      in
      registry := s :: !registry;
      s)

let find name =
  match List.find_opt (fun s -> s.name = name) (registered ()) with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "unknown fault site %S (known: seed, %s)" name
           (String.concat ", " (names ())))

(* Armed state.  The enabled flag is the only thing the disabled fast
   path reads; targets change only while it is off. *)
let armed = Atomic.make false
let the_seed = Atomic.make 0

let reset s =
  s.target <- 0;
  Atomic.set s.count 0;
  Atomic.set s.fired_count 0

let disable () =
  Atomic.set armed false;
  Atomic.set the_seed 0;
  List.iter reset (registered ())

let configure ?(seed = 0) plan =
  let plan =
    List.map
      (fun (name, n) ->
        if n < 1 then invalid_arg "Faults.configure: occurrence must be >= 1";
        (find name, n))
      plan
  in
  disable ();
  List.iter (fun (s, n) -> s.target <- n) plan;
  Atomic.set the_seed seed;
  if plan <> [] then Atomic.set armed true

let enabled () = Atomic.get armed

let seed () = Atomic.get the_seed

let fire s =
  if not (Atomic.get armed) then false
  else begin
    let occurrence = 1 + Atomic.fetch_and_add s.count 1 in
    let hit = s.target > 0 && occurrence = s.target in
    if hit then begin
      Atomic.incr s.fired_count;
      (* A chaos run with tracing on shows each injection as a marker at
         the instant it fired, on the worker that drew it. *)
      Dpv_obs.Trace.instant
        ~args:[ ("occurrence", string_of_int occurrence) ]
        ("fault-fire:" ^ s.name)
    end;
    hit
  end

let occurrences name = Atomic.get (find name).count
let fired name = Atomic.get (find name).fired_count

(* One summary marker per site, fired or not, so a trace is
   self-describing about which injection sites the run passed through.
   Executables call this right before writing the trace. *)
let trace_sites () =
  List.iter
    (fun s ->
      Dpv_obs.Trace.instant
        ~args:
          [
            ("occurrences", string_of_int (Atomic.get s.count));
            ("fired", string_of_int (Atomic.get s.fired_count));
            ("target", string_of_int s.target);
          ]
        ("fault-site:" ^ s.name))
    (registered ())

let parse_spec spec =
  let parts =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go seed plan = function
    | [] -> Ok (seed, List.rev plan)
    | part :: rest -> (
        match String.index_opt part '=' with
        | None -> Error (Printf.sprintf "fault spec %S is not key=value" part)
        | Some eq -> (
            let key = String.trim (String.sub part 0 eq) in
            let value =
              String.trim
                (String.sub part (eq + 1) (String.length part - eq - 1))
            in
            match int_of_string_opt value with
            | None ->
                Error (Printf.sprintf "fault spec %S: %S is not an integer" part value)
            | Some n ->
                if key = "seed" then go n plan rest
                else (
                  match find key with
                  | exception Invalid_argument msg -> Error msg
                  | _ ->
                      if n < 1 then
                        Error
                          (Printf.sprintf "fault site %S: occurrence must be >= 1" key)
                      else go seed ((key, n) :: plan) rest)))
  in
  go 0 [] parts

let init_from_env () =
  match Sys.getenv_opt "DPV_FAULTS" with
  | None -> ()
  | Some spec when String.trim spec = "" -> ()
  | Some spec -> (
      match parse_spec spec with
      | Ok (seed, plan) -> configure ~seed plan
      | Error msg ->
          Printf.eprintf "DPV_FAULTS: %s\n%!" msg;
          exit 3)
