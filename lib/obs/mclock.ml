(* The container has no monotonic-clock binding (no mtime opam package),
   so monotonicity is enforced in software: readings are clamped to
   never decrease across a wall-clock step backwards (NTP slew, VM
   migration).  Nanoseconds are measured from a process-start epoch so
   the float subtraction below stays well inside the 2^53 window where
   doubles are exact to the nanosecond. *)

let epoch_s = Unix.gettimeofday ()
let last = Atomic.make 0

let now_ns () =
  let raw = int_of_float ((Unix.gettimeofday () -. epoch_s) *. 1e9) in
  let rec clamp () =
    let prev = Atomic.get last in
    if raw <= prev then prev
    else if Atomic.compare_and_set last prev raw then raw
    else clamp ()
  in
  clamp ()
