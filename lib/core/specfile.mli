(** Campaign specification files, parsed once, shared everywhere.

    One JSON dialect describes a batch of verification queries — the
    [dpv campaign] input format — and two front ends consume it: the
    batch CLI command and the [dpv serve] daemon (which receives the
    same document as a network submission).  This module is the single
    definition of that dialect, so a spec accepted by one is accepted
    by the other and denotes the same {!Campaign.query} list.

    Top-level keys: [seed], [runners], [workers], [budget_s],
    [timeout_s], [max_nodes], an optional [setup] object (shrinks the
    trained pipeline for smoke tests) and a [queries] array of
    [{name, property, psi, strategy, cut, margin}] objects. *)

type parsed = {
  seed : int;
  runners : int;
  workers : int;            (** [<= 0] means one per available core *)
  budget_s : float option;
  timeout_s : float option;
  max_nodes : int;
  setup : Workflow.setup;   (** derived from [seed] + the [setup] object *)
  query_specs : Json.t list;  (** raw query objects, for {!queries} *)
}

val parse : Json.t -> (parsed, string) result
(** Parse the top level of a campaign spec.  Every error names the
    offending key; the [queries] array is kept raw so query building
    (which needs a trained pipeline) can happen later, against a
    {!builder}. *)

val milp_options :
  ?branch_rule:Dpv_linprog.Milp.branch_rule -> parsed -> Dpv_linprog.Milp.options
(** The solver options a parsed spec denotes ([find_first], workers
    with the [<= 0] = per-core default applied, time limit, node
    cap). *)

val parse_psi : string -> (Dpv_spec.Risk.t, string) result
(** [far-left[:T]], [far-right[:T]], [straight[:H]], or the raw
    inequality language ("y0 >= 2.5 && y1 <= 0.3"). *)

val parse_strategy : string -> (Workflow.strategy, string) result
(** [static-box], [static-zonotope], [static-deeppoly], [data-box] or
    [data-octagon]. *)

type builder
(** Memoized query building over one prepared pipeline: characterizer
    training and bounds fitting cache on (property, cut) and
    (strategy, cut) respectively.  Both are deterministic in the
    setup seed, so memoized queries verify identically to freshly
    built ones.  Thread-safe — the serve daemon shares one builder
    across client connections, amortizing one submission's training
    for every later one.  Heads come from
    {!Workflow.train_characterizer}, so a pipeline from
    {!Workflow.prepare_cached} loads them from its model cache. *)

val builder : Workflow.prepared -> builder

val queries :
  builder -> default_cut:int -> Json.t list -> (Campaign.query list, string) result
(** Build the typed query list from raw query objects (the
    [query_specs] of a {!parsed}).  [default_cut] applies where a
    query names no [cut] — pass the setup's. *)
