module Lp = Dpv_linprog.Lp
module Milp = Dpv_linprog.Milp
module Faults = Dpv_linprog.Faults
module Box_domain = Dpv_absint.Box_domain
module Interval = Dpv_absint.Interval
module Deeppoly = Dpv_absint.Deeppoly
module Resumable = Dpv_absint.Deeppoly.Resumable
module Risk = Dpv_spec.Risk
module Linexpr = Dpv_spec.Linexpr
module Metrics = Dpv_obs.Metrics

(* ---------------- global mode ---------------- *)

(* Scratch mode forces every consult to re-propagate from layer 1.  It
   runs the same engine through the same code path, so results are
   bit-identical to incremental mode by construction — the CI
   incremental-equivalence step flips this and compares verdicts and
   exact node/prune counters. *)
let scratch_mode = Atomic.make false

let set_scratch b = Atomic.set scratch_mode b

let init_from_env () =
  match Sys.getenv_opt "DPV_ABSINT_SCRATCH" with
  | None -> ()
  | Some v -> (
      match String.trim (String.lowercase_ascii v) with
      | "" | "0" | "false" | "no" -> set_scratch false
      | _ -> set_scratch true)

let m_stale_fallbacks = Metrics.counter "absint.stale_fallbacks"
let m_seeded_roots = Metrics.counter "absint.seeded_roots"

(* Phase of one encoded ReLU binary under a node's current bounds.  The
   branch-and-bound children only ever tighten a binary to exactly
   [0, 0] or [1, 1], so reading the bounds recovers the node's phase
   fixings without any side channel from the solver. *)
let phase_of node v =
  let lo, up = Lp.var_bounds node v in
  let lo = Option.value lo ~default:0.0 in
  let up = Option.value up ~default:1.0 in
  if lo >= 0.5 then Deeppoly.Active
  else if up <= 0.5 then Deeppoly.Inactive
  else Deeppoly.Unknown

(* Interval of a linear expression over an output box. *)
let expr_bounds (expr : Linexpr.t) box =
  List.fold_left
    (fun acc (c, i) -> Interval.add acc (Interval.scale c box.(i)))
    (Interval.point expr.Linexpr.const)
    (Linexpr.normalized_terms expr)

let query_unreachable ~psi ~characterizer_margin ~output_box ~logit_box =
  logit_box.Interval.hi < characterizer_margin
  || List.exists
       (fun (ineq : Risk.inequality) ->
         let iv = expr_bounds ineq.Risk.expr output_box in
         match ineq.Risk.rel with
         | `Le -> iv.Interval.lo > ineq.Risk.bound
         | `Ge -> iv.Interval.hi < ineq.Risk.bound)
       psi.Risk.inequalities

(* ---------------- from-scratch reference propagation ----------------

   The from-scratch semantics the incremental engine must reproduce: a
   fresh state propagated from layer 1 under the node's effective
   phases — the node's own fixing where one exists, otherwise the phase
   the propagated pre-activation bounds imply ([hi <= 0] before
   [lo >= 0], the same order the ReLU kernel resolves an [Unknown]).
   It shares no cached layer with any guide instance, so the debug
   cross-check under fault builds catches a state that a skipped
   invalidation left stale.  [None] when a fixing empties the region. *)
let reference_output plan ~relus ~box node =
  let st = Resumable.create plan box in
  let phases l =
    let d = Resumable.layer_dim plan l in
    let phases = Array.make d Deeppoly.Unknown in
    (match List.assoc_opt l relus with
    | None -> ()
    | Some vars ->
        let cl, ch = Resumable.conc_view st ~layer:(l - 1) in
        for i = 0 to min d (Array.length vars) - 1 do
          match vars.(i) with
          | None -> ()
          | Some v -> (
              match phase_of node v with
              | Deeppoly.Unknown ->
                  if ch.(i) <= 0.0 then phases.(i) <- Deeppoly.Inactive
                  else if cl.(i) >= 0.0 then phases.(i) <- Deeppoly.Active
              | p -> phases.(i) <- p)
        done);
    phases
  in
  ignore (Resumable.propagate st ~phases : int);
  if Resumable.last_empty st then None else Some (Resumable.output_box st)

(* ---------------- per-instance incremental state ---------------- *)

(* One ReLU layer that carries encoded binaries.  [rc_key] is the
   node's phase fixings as read at the last consult; [rc_phases] the
   effective phases the layer state was last transferred with (node
   fixing where present, else implied from bounds).  [rc_implied.(i)]
   records whether [rc_phases.(i)] is exactly what the pre-activation
   bounds would resolve an [Unknown] to — in that case the fixed-phase
   transfer and the [Unknown] transfer coincide bit-for-bit.  The state
   at this layer stays valid for a new node as long as the node's
   fixings are {e compatible} with [rc_phases]: every binary the node
   fixes agrees, and every binary the node leaves free was transferred
   under a phase the bounds imply anyway.  That is weaker than key
   equality — a child whose only change is adopting a phase the guide
   itself implied resumes without re-propagating — but a node that
   un-fixes a genuinely crossing binary (a sibling after backtracking)
   must invalidate, because its [Unknown] transfer is wider than the
   fixed one the cache holds. *)
type relu_cache = {
  rc_layer : int;
  rc_vars : Lp.var option array;
  rc_key : Deeppoly.phase array;
  mutable rc_key_valid : bool;
  rc_phases : Deeppoly.phase array;
  rc_implied : bool array;
  mutable rc_fixes : (Lp.var * float) list; (* ascending neuron order *)
  mutable rc_widths : (Lp.var * float) list;
  mutable rc_have : bool; (* fixes/widths current for key + state *)
}

type net_state = {
  ns_st : Resumable.state;
  ns_caches : relu_cache array; (* ascending [rc_layer] *)
  ns_phases_fn : int -> Deeppoly.phase array;
}

type instance = {
  i_suffix : net_state;
  i_head : net_state;
  i_slot : (int * relu_cache * int) option array;
      (* encoded binary -> (net: 0 suffix / 1 head, cache, neuron) *)
  i_delta_cap : int; (* total binaries: past this, full scan is cheaper *)
  mutable i_last : Lp.t option;
      (* node the keys were last synced against; [None] forces a full
         key scan (first consult, or after a scratch/fallback consult) *)
  mutable i_hits : int;
  mutable i_propagated : int;
  mutable i_saved : int;
}

(* Fixes and widths for one ReLU layer from its pre-activation bounds
   [(cl, ch)] and the node phases in [rc_key]; records the effective
   phases into [rc_phases].  Called by the propagation callback (with
   the just-materialized previous layer) for re-propagated layers, and
   lazily at guidance assembly for resumed ones. *)
let compute_layer rc (cl : float array) (ch : float array) =
  let d = Array.length rc.rc_key in
  let nv = Array.length rc.rc_vars in
  let fixes = ref [] and widths = ref [] in
  for i = d - 1 downto 0 do
    let var = if i < nv then rc.rc_vars.(i) else None in
    match var with
    | None ->
        rc.rc_phases.(i) <- Deeppoly.Unknown;
        rc.rc_implied.(i) <- true
    | Some v -> (
        match rc.rc_key.(i) with
        | Deeppoly.Unknown ->
            let lo = cl.(i) and hi = ch.(i) in
            if hi <= 0.0 then begin
              fixes := (v, 0.0) :: !fixes;
              rc.rc_phases.(i) <- Deeppoly.Inactive
            end
            else if lo >= 0.0 then begin
              fixes := (v, 1.0) :: !fixes;
              rc.rc_phases.(i) <- Deeppoly.Active
            end
            else begin
              widths := (v, hi -. lo) :: !widths;
              rc.rc_phases.(i) <- Deeppoly.Unknown
            end;
            (* The phase came from the bounds themselves. *)
            rc.rc_implied.(i) <- true
        | p ->
            rc.rc_phases.(i) <- p;
            (* Node-fixed: the transfer matches an [Unknown] transfer
               only if the bounds resolve to the very same phase, with
               the same [hi <= 0] before [lo >= 0] tie-break the ReLU
               transfer uses. *)
            rc.rc_implied.(i) <-
              (if ch.(i) <= 0.0 then p = Deeppoly.Inactive
               else if cl.(i) >= 0.0 then p = Deeppoly.Active
               else false))
  done;
  rc.rc_fixes <- !fixes;
  rc.rc_widths <- !widths;
  rc.rc_have <- true

let make_net_state st plan relus ~seeded =
  let n = Resumable.num_layers plan in
  let caches = ref [] in
  let by_layer = Array.make (n + 1) None in
  let unknown = Array.make (n + 1) [||] in
  for l = n downto 1 do
    if Resumable.is_relu plan l then begin
      let d = Resumable.layer_dim plan l in
      match List.assoc_opt l relus with
      | Some vars ->
          let rc =
            {
              rc_layer = l;
              rc_vars = vars;
              rc_key = Array.make d Deeppoly.Unknown;
              rc_key_valid = seeded;
              rc_phases = Array.make d Deeppoly.Unknown;
              rc_implied = Array.make d true;
              rc_fixes = [];
              rc_widths = [];
              rc_have = false;
            }
          in
          caches := rc :: !caches;
          by_layer.(l) <- Some rc
      | None -> unknown.(l) <- Array.make d Deeppoly.Unknown
    end
  done;
  let phases_fn l =
    match by_layer.(l) with
    | None -> unknown.(l)
    | Some rc ->
        let cl, ch = Resumable.conc_view st ~layer:(l - 1) in
        compute_layer rc cl ch;
        rc.rc_phases
  in
  { ns_st = st; ns_caches = Array.of_list !caches; ns_phases_fn = phases_fn }

(* Read the node's fixings into every layer key of one net and return
   the earliest layer whose fixings are incompatible with the effective
   phases its state was built under ([max_int] when fully valid). *)
let full_scan ns node =
  let first_invalid = ref max_int in
  Array.iter
    (fun rc ->
      let key_changed = ref (not rc.rc_key_valid) in
      let incompatible = ref (not rc.rc_key_valid) in
      let d = Array.length rc.rc_key in
      let nv = Array.length rc.rc_vars in
      for i = 0 to d - 1 do
        let p =
          if i < nv then
            match rc.rc_vars.(i) with
            | Some v -> phase_of node v
            | None -> Deeppoly.Unknown
          else Deeppoly.Unknown
        in
        if p <> rc.rc_key.(i) then begin
          key_changed := true;
          rc.rc_key.(i) <- p
        end;
        (* A fixed binary must match the transferred phase exactly; a
           free binary is only compatible with a fixed transfer when
           the bounds implied that phase anyway (identical transfer). *)
        if
          p <> rc.rc_phases.(i)
          && ((p <> Deeppoly.Unknown) || not rc.rc_implied.(i))
        then incompatible := true
      done;
      rc.rc_key_valid <- true;
      if !key_changed then rc.rc_have <- false;
      if !incompatible && rc.rc_layer < !first_invalid then
        first_invalid := rc.rc_layer)
    ns.ns_caches;
  !first_invalid

(* absint-stale: the guide serves a stale cached layer state once: a
   consult that should have invalidated part of its prefix cache skips
   the invalidation.  The debug cross-check (active whenever the
   harness is armed) must detect the divergence against a from-scratch
   propagation and fall back. *)
let absint_stale = Faults.site "absint-stale"

(* Roll one net's engine back to [l].  Returns [true] when the
   [absint-stale] fault suppressed a rollback that should have happened
   (the injected bug the cross-check must catch). *)
let apply_invalidation ns l =
  if l = max_int then false
  else begin
    Array.iter
      (fun rc -> if rc.rc_layer >= l then rc.rc_have <- false)
      ns.ns_caches;
    let stale =
      l <= Resumable.valid ns.ns_st && Faults.fire absint_stale
    in
    if not stale then Resumable.invalidate_from ns.ns_st l;
    stale
  end

(* Bring both nets' keys in line with [node] and roll their engines
   back as needed; returns the per-net stale flags.  The fast path
   diffs [node] against the previously-synced node via the model's
   bound-change trail — a B&B child or sibling is one or two
   [set_var_bounds] away, so almost every consult touches O(1) binaries
   instead of re-reading all of them.  Any variable the trail diff does
   not name provably kept its bounds, and an unchanged binary cannot
   become incompatible (its key already agreed with the phases the
   valid layers were transferred with), so the delta sync invalidates
   exactly where the full scan would. *)
let sync_incremental inst node =
  let fi = [| max_int; max_int |] in
  let delta_done =
    match inst.i_last with
    | None -> false
    | Some prev -> (
        match Lp.bounds_delta ~cap:inst.i_delta_cap prev node with
        | None -> false
        | Some vars ->
            let nslots = Array.length inst.i_slot in
            List.iter
              (fun v ->
                if v < nslots then
                  match inst.i_slot.(v) with
                  | None -> ()
                  | Some (net, rc, i) ->
                      let p = phase_of node v in
                      if p <> rc.rc_key.(i) then begin
                        rc.rc_key.(i) <- p;
                        rc.rc_have <- false
                      end;
                      if
                        p <> rc.rc_phases.(i)
                        && ((p <> Deeppoly.Unknown) || not rc.rc_implied.(i))
                        && rc.rc_layer < fi.(net)
                      then fi.(net) <- rc.rc_layer)
              vars;
            true)
  in
  if not delta_done then begin
    fi.(0) <- full_scan inst.i_suffix node;
    fi.(1) <- full_scan inst.i_head node
  end;
  inst.i_last <- Some node;
  let s_stale = apply_invalidation inst.i_suffix fi.(0) in
  let h_stale = apply_invalidation inst.i_head fi.(1) in
  (s_stale, h_stale)

let sync_scratch_net ns node =
  Resumable.invalidate_from ns.ns_st 1;
  Array.iter
    (fun rc ->
      let d = Array.length rc.rc_key in
      let nv = Array.length rc.rc_vars in
      for i = 0 to d - 1 do
        rc.rc_key.(i) <-
          (if i < nv then
             match rc.rc_vars.(i) with
             | Some v -> phase_of node v
             | None -> Deeppoly.Unknown
           else Deeppoly.Unknown)
      done;
      rc.rc_key_valid <- true;
      rc.rc_have <- false)
    ns.ns_caches

let sync_scratch inst node =
  sync_scratch_net inst.i_suffix node;
  sync_scratch_net inst.i_head node;
  (* Keys no longer carry incremental invariants for the next consult:
     force the next incremental sync through the full scan. *)
  inst.i_last <- None

(* Propagate one network; returns (empty, resumed_layers). *)
let run_net inst ns =
  let resumed = Resumable.valid ns.ns_st in
  let transferred = Resumable.propagate ns.ns_st ~phases:ns.ns_phases_fn in
  inst.i_propagated <- inst.i_propagated + transferred;
  inst.i_saved <- inst.i_saved + resumed;
  (Resumable.last_empty ns.ns_st, resumed)

(* Resumed layers kept their fixes/widths unless an earlier consult
   left them unset; those re-read the (still materialized) cached
   bounds without re-propagating anything. *)
let collect ns fixes widths =
  Array.iter
    (fun rc ->
      if not rc.rc_have then begin
        let cl, ch = Resumable.conc_view ns.ns_st ~layer:(rc.rc_layer - 1) in
        compute_layer rc cl ch
      end;
      List.iter (fun f -> fixes := f :: !fixes) rc.rc_fixes;
      List.iter (fun w -> widths := w :: !widths) rc.rc_widths)
    ns.ns_caches

(* ---------------- seeds (bisection root reuse) ---------------- *)

type seed = {
  sd_box : Box_domain.t;
  sd_splan : Resumable.plan;
  sd_hplan : Resumable.plan;
  sd_suffix : Resumable.state;
  sd_head : Resumable.state;
  mutable sd_taken : bool;
}

let root_propagation ~suffix ~head ~feature_box =
  let splan = Resumable.plan suffix and hplan = Resumable.plan head in
  let s_st = Resumable.create splan feature_box in
  let h_st = Resumable.create hplan feature_box in
  let unknowns plan l =
    Array.make (Resumable.layer_dim plan l) Deeppoly.Unknown
  in
  ignore (Resumable.propagate s_st ~phases:(unknowns splan) : int);
  ignore (Resumable.propagate h_st ~phases:(unknowns hplan) : int);
  {
    sd_box = Array.copy feature_box;
    sd_splan = splan;
    sd_hplan = hplan;
    sd_suffix = s_st;
    sd_head = h_st;
    sd_taken = false;
  }

let seed_output_box sd = Resumable.output_box sd.sd_suffix
let seed_logit_box sd = (Resumable.output_box sd.sd_head).(0)

(* ---------------- the guide factory ---------------- *)

let factory ?seed ~suffix ~head ~feature_box ~suffix_relus
    ~head_relus ~psi ~characterizer_margin () : Milp.guide_factory =
  (* A seed is only adoptable when it was propagated over exactly this
     box (bit-for-bit); anything else is silently a non-seed. *)
  let seed =
    match seed with
    | Some sd when Box_domain.same_box sd.sd_box feature_box -> Some sd
    | _ -> None
  in
  let splan, hplan =
    match seed with
    | Some sd -> (sd.sd_splan, sd.sd_hplan)
    | None -> (Resumable.plan suffix, Resumable.plan head)
  in
  let lock = Mutex.create () in
  let instances = ref [] in
  let consult_core inst node ~scratch =
    let s_stale, h_stale =
      if scratch then begin
        sync_scratch inst node;
        (false, false)
      end
      else sync_incremental inst node
    in
    let stale = s_stale || h_stale in
    let s_empty, s_resumed = run_net inst inst.i_suffix in
    if s_empty then (`Prune, s_resumed > 0, stale)
    else begin
      let h_empty, h_resumed = run_net inst inst.i_head in
      let hit = s_resumed > 0 || h_resumed > 0 in
      if h_empty then (`Prune, hit, stale)
      else begin
        let output_box = Resumable.output_box inst.i_suffix.ns_st in
        let logit_box = (Resumable.output_box inst.i_head.ns_st).(0) in
        if query_unreachable ~psi ~characterizer_margin ~output_box ~logit_box
        then (`Prune, hit, stale)
        else begin
          let fixes = ref [] and widths = ref [] in
          collect inst.i_suffix fixes widths;
          collect inst.i_head fixes widths;
          ( `Guide
              {
                Milp.prune = false;
                fix = List.rev !fixes;
                widths = List.rev !widths;
              },
            hit,
            stale )
        end
      end
    end
  in
  (* Debug cross-check (armed fault harness only): compare the engine's
     bounds against a from-scratch propagation bit-for-bit.  Any
     divergence — in particular one injected by [absint-stale] — falls
     back to a clean re-propagation. *)
  let diverged inst node =
    match reference_output splan ~relus:suffix_relus ~box:feature_box node with
    | None -> not (Resumable.last_empty inst.i_suffix.ns_st)
    | Some sbox ->
        if Resumable.last_empty inst.i_suffix.ns_st then true
        else if
          not
            (Box_domain.same_box sbox
               (Resumable.output_box inst.i_suffix.ns_st))
        then true
        else (
          match
            reference_output hplan ~relus:head_relus ~box:feature_box node
          with
          | None -> not (Resumable.last_empty inst.i_head.ns_st)
          | Some hbox ->
              Resumable.last_empty inst.i_head.ns_st
              || not
                   (Box_domain.same_box hbox
                      (Resumable.output_box inst.i_head.ns_st)))
  in
  let force_scratch inst =
    Resumable.invalidate_from inst.i_suffix.ns_st 1;
    Resumable.invalidate_from inst.i_head.ns_st 1;
    Array.iter (fun rc -> rc.rc_have <- false) inst.i_suffix.ns_caches;
    Array.iter (fun rc -> rc.rc_have <- false) inst.i_head.ns_caches;
    inst.i_last <- None
  in
  let consult inst node =
    let scratch = Atomic.get scratch_mode in
    let decision, hit, _stale = consult_core inst node ~scratch in
    let decision, hit =
      if (not scratch) && Faults.enabled () && diverged inst node then begin
        Metrics.incr m_stale_fallbacks 1;
        force_scratch inst;
        let d, h, _ = consult_core inst node ~scratch:false in
        (d, h)
      end
      else (decision, hit)
    in
    if hit then inst.i_hits <- inst.i_hits + 1;
    match decision with
    | `Prune -> { Milp.prune = true; fix = []; widths = [] }
    | `Guide g -> g
  in
  let new_guide () =
    let inst =
      Mutex.protect lock (fun () ->
          let adopted =
            match seed with
            | Some sd when not sd.sd_taken ->
                sd.sd_taken <- true;
                Some sd
            | _ -> None
          in
          let s_st, h_st, seeded =
            match adopted with
            | Some sd -> (sd.sd_suffix, sd.sd_head, true)
            | None ->
                ( Resumable.create splan feature_box,
                  Resumable.create hplan feature_box,
                  false )
          in
          if seeded then Metrics.incr m_seeded_roots 1;
          let suffix_ns = make_net_state s_st splan suffix_relus ~seeded in
          let head_ns = make_net_state h_st hplan head_relus ~seeded in
          (* Binary -> cache slot index for the trail-diff sync, plus
             the binary count past which a full scan is cheaper. *)
          let max_var = ref (-1) and nbin = ref 0 in
          let count ns =
            Array.iter
              (fun rc ->
                Array.iter
                  (function
                    | Some v ->
                        incr nbin;
                        if v > !max_var then max_var := v
                    | None -> ())
                  rc.rc_vars)
              ns.ns_caches
          in
          count suffix_ns;
          count head_ns;
          let slot = Array.make (!max_var + 1) None in
          let index net ns =
            Array.iter
              (fun rc ->
                Array.iteri
                  (fun i -> function
                    | Some v -> slot.(v) <- Some (net, rc, i)
                    | None -> ())
                  rc.rc_vars)
              ns.ns_caches
          in
          index 0 suffix_ns;
          index 1 head_ns;
          let inst =
            {
              i_suffix = suffix_ns;
              i_head = head_ns;
              i_slot = slot;
              i_delta_cap = !nbin;
              i_last = None;
              i_hits = 0;
              i_propagated = 0;
              i_saved = 0;
            }
          in
          instances := inst :: !instances;
          inst)
    in
    fun node -> consult inst node
  in
  let stats () =
    Mutex.protect lock (fun () ->
        List.fold_left
          (fun (acc : Milp.stats) i ->
            {
              acc with
              absint_incr_hits = acc.absint_incr_hits + i.i_hits;
              absint_layers_propagated =
                acc.absint_layers_propagated + i.i_propagated;
              absint_layers_saved = acc.absint_layers_saved + i.i_saved;
            })
          Milp.empty_stats !instances)
  in
  { Milp.new_guide; stats }
