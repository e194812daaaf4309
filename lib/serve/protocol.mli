(** The [dpv serve] request/response dialect.

    Every frame payload is one JSON document.  Requests carry an ["op"]
    key — [submit] (a campaign spec), [query] (sugar: one query object,
    wrapped into a one-query spec), [metrics] (with an optional
    ["since"] cursor for delta polls), [ping], [drain].
    Responses carry a ["type"] key — [busy], [error], [accepted],
    [verdict] (streamed, one per settled query), [trace] (the job's
    spans, when requested), [done] (terminal, with the job's exit
    code), [metrics], [pong], [draining]. *)

module Json = Dpv_obs.Json

type request =
  | Submit of {
      name : string option;
      priority : int;           (** higher dequeues first; default 0 *)
      budget_s : float option;  (** campaign budget once running *)
      deadline_s : float option;
          (** wall-clock deadline minted at acceptance; queue wait
              spends it, and the budget is carved from what remains *)
      trace : bool;
          (** stream the job's spans back as a [trace] frame before
              [done] *)
      spec : Json.t;            (** a [dpv campaign] spec document *)
    }
  | Metrics of { since : int option }
      (** [since]: a cursor from an earlier metrics reply; the response
          is then the delta since that snapshot ({!Dpv_obs.Metrics.since})
          instead of the full registry *)
  | Ping
  | Drain

val parse_request :
  ?max_depth:int -> ?max_bytes:int -> string -> (request, string) result
(** Parse one frame payload.  The limits are {!Json.of_string}'s —
    the server passes its frame cap so a hostile payload is bounded
    twice (framing and parsing). *)

(** {2 Response payloads} *)

val busy : retry_after_s:float -> queue_depth:int -> string
val error : message:string -> string

val accepted : job:string -> position:int -> trace:string -> string
(** Carries the job's trace id — the client-side end of the
    correlation chain. *)

val verdict_line : Dpv_core.Campaign.query_report -> string

val done_line :
  job:string -> ?trace:string -> Dpv_core.Campaign.report -> string

val metrics_reply :
  ?cursor:int -> ?since:int -> Dpv_obs.Metrics.snapshot -> string
(** [cursor] names this snapshot for later [since] polls; [since]
    (echoed from the request) marks the payload as a delta against
    that cursor — absent, the payload is the full registry. *)

val trace_reply : job:string -> trace:string -> events:string -> string
(** [events] is a complete Chrome [trace_event] JSON document carried
    as a string, written verbatim to the client's [--trace] file. *)

val pong : jobs_running:int -> queue_depth:int -> string
val draining : string
