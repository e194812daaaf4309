let now_s () = Unix.gettimeofday ()

(* Monotonic source for trace timestamps and latency histograms.
   Deadlines stay on [now_s]: a deadline is a promise about the wall
   clock, and jumping with it is the correct behavior there. *)
let monotonic_ns = Dpv_obs.Mclock.now_ns

type deadline = float option

let deadline_after = function
  | None -> None
  | Some budget_s -> Some (now_s () +. budget_s)

(* deadline-jitter: one [expired] check on a finite deadline returns
   true early. *)
let deadline_jitter = Faults.site "deadline-jitter"

(* Inclusive, so a zero-second budget is expired from the start even
   when the clock has not ticked since the deadline was minted.  The
   deadline-jitter fault site makes one check on a finite deadline
   report expiry early — the recovery under test is the deadline-retry
   rung, which re-carves from the (not actually expired) budget. *)
let expired = function
  | None -> false
  | Some t -> Faults.fire deadline_jitter || now_s () >= t

let remaining_s = function
  | None -> None
  | Some t -> Some (Float.max 0.0 (t -. now_s ()))

let carve deadline budget_s =
  match (remaining_s deadline, budget_s) with
  | None, b -> b
  | (Some _ as r), None -> r
  | Some r, Some b -> Some (Float.min r b)
