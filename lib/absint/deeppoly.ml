module Layer = Dpv_nn.Layer
module Network = Dpv_nn.Network
module Mat = Dpv_tensor.Mat
module Vec = Dpv_tensor.Vec

(* One affine expression over the input variables. *)
type expr = { coeffs : Vec.t; const : float }

(* [conc] caches the tightest known concrete interval per neuron: the
   meet of the symbolic bounds' concretization and a plain box transfer.
   This guarantees the domain is never looser than {!Box_domain} even on
   neurons where the symbolic relaxation is weak (e.g. the [y >= x]
   lower bound of a crossing ReLU concretizes below zero). *)
type t = {
  input_box : Box_domain.t;
  lower : expr array;
  upper : expr array;
  conc : Interval.t array;
}

let dim t = Array.length t.lower
let input_dim t = Array.length t.input_box

(* Tightest concrete value of an affine expression over the input box:
   positive coefficients pull from the matching side of the box. *)
let concretize_lo box e =
  let acc = ref e.const in
  Array.iteri
    (fun j c ->
      let iv : Interval.t = box.(j) in
      acc := !acc +. if c >= 0.0 then c *. iv.Interval.lo else c *. iv.Interval.hi)
    e.coeffs;
  !acc

let concretize_hi box e =
  let acc = ref e.const in
  Array.iteri
    (fun j c ->
      let iv : Interval.t = box.(j) in
      acc := !acc +. if c >= 0.0 then c *. iv.Interval.hi else c *. iv.Interval.lo)
    e.coeffs;
  !acc

let to_box t = Array.copy t.conc

let of_box box =
  Array.iter
    (fun (iv : Interval.t) ->
      if not (Float.is_finite iv.Interval.lo && Float.is_finite iv.Interval.hi)
      then invalid_arg "Deeppoly.of_box: unbounded side")
    box;
  let d = Array.length box in
  let identity i =
    let coeffs = Vec.zeros d in
    coeffs.(i) <- 1.0;
    { coeffs; const = 0.0 }
  in
  {
    input_box = box;
    lower = Array.init d identity;
    upper = Array.init d identity;
    conc = Array.copy box;
  }

let scale_expr c e = { coeffs = Vec.scale c e.coeffs; const = c *. e.const }
let add_expr a b = { coeffs = Vec.add a.coeffs b.coeffs; const = a.const +. b.const }
let const_expr n c = { coeffs = Vec.zeros n; const = c }

(* Both arguments are sound enclosures, so their intersection is too;
   if float rounding makes them nominally disjoint — or a degenerate
   transfer left a nan side — keep whichever operand is still a
   well-formed interval. *)
let meet_safe box_iv expr_iv =
  let well_formed (iv : Interval.t) =
    (not (Float.is_nan iv.Interval.lo)) && not (Float.is_nan iv.Interval.hi)
  in
  match (well_formed box_iv, well_formed expr_iv) with
  | true, true -> (
      match Interval.meet box_iv expr_iv with
      | Some iv -> iv
      | None -> box_iv)
  | true, false -> box_iv
  | false, true -> expr_iv
  | false, false -> Interval.top

(* Finalize a transfer step: concretize the fresh symbolic bounds and
   intersect with the box-domain image of the previous concrete cache. *)
let rebuild t layer ~lower ~upper =
  let box_image = Box_domain.transfer_layer layer t.conc in
  let conc =
    Array.init (Array.length lower) (fun i ->
        let lo = concretize_lo t.input_box lower.(i) in
        let hi = concretize_hi t.input_box upper.(i) in
        let expr_iv =
          if lo <= hi then Interval.make ~lo ~hi else box_image.(i)
        in
        meet_safe box_image.(i) expr_iv)
  in
  { t with lower; upper; conc }

(* Affine combination: picking the lower expr for positive weights and
   the upper expr for negative ones yields a sound lower bound (and
   symmetrically for upper). *)
let affine_combine n ~weights_row ~bias ~lower ~upper =
  let lo = ref (const_expr n bias) and hi = ref (const_expr n bias) in
  Array.iteri
    (fun j w ->
      if w > 0.0 then begin
        lo := add_expr !lo (scale_expr w lower.(j));
        hi := add_expr !hi (scale_expr w upper.(j))
      end
      else if w < 0.0 then begin
        lo := add_expr !lo (scale_expr w upper.(j));
        hi := add_expr !hi (scale_expr w lower.(j))
      end)
    weights_row;
  (!lo, !hi)

let transfer_dense t layer weights bias =
  let n = input_dim t in
  let rows = Mat.rows weights in
  let lower = Array.make rows (const_expr n 0.0) in
  let upper = Array.make rows (const_expr n 0.0) in
  for i = 0 to rows - 1 do
    let lo, hi =
      affine_combine n ~weights_row:(Mat.row weights i) ~bias:bias.(i)
        ~lower:t.lower ~upper:t.upper
    in
    lower.(i) <- lo;
    upper.(i) <- hi
  done;
  rebuild t layer ~lower ~upper

let transfer_diag t layer scale shift =
  let d = dim t in
  let n = input_dim t in
  let lower = Array.make d (const_expr n 0.0) in
  let upper = Array.make d (const_expr n 0.0) in
  for i = 0 to d - 1 do
    let a = scale.(i) and b = shift.(i) in
    if Float.is_finite a && Float.is_finite b then begin
      let scaled_lo = scale_expr a t.lower.(i)
      and scaled_hi = scale_expr a t.upper.(i) in
      let lo, hi =
        if a >= 0.0 then (scaled_lo, scaled_hi) else (scaled_hi, scaled_lo)
      in
      lower.(i) <- { lo with const = lo.const +. b };
      upper.(i) <- { hi with const = hi.const +. b }
    end
    else begin
      (* A non-finite scale or shift would smear inf/nan coefficients
         over every downstream concretization; keep the neuron as an
         opaque constant interval instead, widening any nan side. *)
      let raw = Interval.add (Interval.scale a t.conc.(i)) (Interval.point b) in
      let lo = if Float.is_nan raw.Interval.lo then neg_infinity else raw.Interval.lo in
      let hi = if Float.is_nan raw.Interval.hi then infinity else raw.Interval.hi in
      let lo, hi = if lo <= hi then (lo, hi) else (neg_infinity, infinity) in
      lower.(i) <- const_expr n lo;
      upper.(i) <- const_expr n hi
    end
  done;
  rebuild t layer ~lower ~upper

(* DeepPoly ReLU bounds for one neuron.  With concrete pre-activation
   bounds [l, u]:
     u <= 0           -> y = 0
     l >= 0           -> y unchanged
     l < 0 < u        -> upper: y <= (u/(u-l)) (x - l), substituting x's
                         upper expression; lower: y >= x if u > -l (the
                         smaller-area choice) else y >= 0.
   The chord slope u/(u-l) goes non-finite when u - l overflows (huge
   bounds of opposite sign) and nan when the cached bounds are already
   poisoned; either way the symbolic relaxation would smear inf/nan
   coefficients over every downstream concretization, so the crossing
   case guards the slope and falls back to the box relaxation
   0 <= y <= u for that neuron. *)
let relu_neuron_bounds t n i =
  let { Interval.lo = l; hi = u } = t.conc.(i) in
  if u <= 0.0 then (const_expr n 0.0, const_expr n 0.0)
  else if l >= 0.0 then (t.lower.(i), t.upper.(i))
  else begin
    let denom = u -. l in
    let lambda = u /. denom in
    if Float.is_finite denom && denom > 0.0 && Float.is_finite lambda then begin
      let up = scale_expr lambda t.upper.(i) in
      let upper = { up with const = up.const -. (lambda *. l) } in
      let lower = if u > -.l then t.lower.(i) else const_expr n 0.0 in
      (lower, upper)
    end
    else (const_expr n 0.0, const_expr n u)
  end

let transfer_relu t =
  let d = dim t in
  let n = input_dim t in
  let lower = Array.make d (const_expr n 0.0) in
  let upper = Array.make d (const_expr n 0.0) in
  for i = 0 to d - 1 do
    let lo, hi = relu_neuron_bounds t n i in
    lower.(i) <- lo;
    upper.(i) <- hi
  done;
  rebuild t Layer.Relu ~lower ~upper

type phase = Active | Inactive | Unknown

exception Empty_region

(* ReLU transfer under externally-fixed phases (the branch-and-bound
   binary fixings).  [Inactive] asserts pre-activation x <= 0 (so
   y = 0); [Active] asserts x >= 0 (so y = x); [Unknown] neurons get
   the ordinary DeepPoly relaxation.  Returns [None] when a fixing
   contradicts the propagated pre-activation bounds — the abstract
   region is empty, so the search node carrying these fixings is
   infeasible.  The x = 0 boundary is feasible under either phase, so
   the contradiction tests are strict. *)
let transfer_relu_fixed phases t =
  let d = dim t in
  if Array.length phases <> d then
    invalid_arg "Deeppoly.transfer_relu_fixed: phase array dimension";
  let n = input_dim t in
  let lower = Array.make d (const_expr n 0.0) in
  let upper = Array.make d (const_expr n 0.0) in
  try
    for i = 0 to d - 1 do
      let { Interval.lo = l; hi = u } = t.conc.(i) in
      match phases.(i) with
      | Inactive ->
          if l > 0.0 then raise Empty_region;
          lower.(i) <- const_expr n 0.0;
          upper.(i) <- const_expr n 0.0
      | Active ->
          if u < 0.0 then raise Empty_region;
          lower.(i) <- t.lower.(i);
          upper.(i) <- t.upper.(i)
      | Unknown ->
          let lo, hi = relu_neuron_bounds t n i in
          lower.(i) <- lo;
          upper.(i) <- hi
    done;
    Some (rebuild t Layer.Relu ~lower ~upper)
  with Empty_region -> None

(* Smooth activations: fall back to the concrete interval image (sound,
   loses the symbolic information for those neurons). *)
let transfer_monotone t layer f =
  let d = dim t in
  let n = input_dim t in
  let lower = Array.make d (const_expr n 0.0) in
  let upper = Array.make d (const_expr n 0.0) in
  for i = 0 to d - 1 do
    let iv = t.conc.(i) in
    lower.(i) <- const_expr n (f iv.Interval.lo);
    upper.(i) <- const_expr n (f iv.Interval.hi)
  done;
  rebuild t layer ~lower ~upper

let rec transfer_layer layer t =
  match layer with
  | Layer.Conv2d _ -> transfer_layer (Layer.lower_to_dense layer) t
  | Layer.Dense { weights; bias } -> transfer_dense t layer weights bias
  | Layer.Relu -> transfer_relu t
  | Layer.Sigmoid ->
      transfer_monotone t layer (fun x -> 1.0 /. (1.0 +. exp (-.x)))
  | Layer.Tanh -> transfer_monotone t layer tanh
  | Layer.Batch_norm _ -> (
      match Layer.batch_norm_scale_shift layer with
      | Some (scale, shift) -> transfer_diag t layer scale shift
      | None -> assert false)

let propagate_all net t =
  if dim t <> Network.input_dim net then
    invalid_arg "Deeppoly.propagate_all: wrong input dimension";
  let n = Network.num_layers net in
  let out = Array.make (n + 1) (to_box t) in
  let cur = ref t in
  for l = 1 to n do
    cur := transfer_layer (Network.layer net l) !cur;
    out.(l) <- to_box !cur
  done;
  out

(* ------------------------------------------------------------------ *)
(* Resumable in-place propagation.                                     *)
(*                                                                     *)
(* The branch-and-bound guide re-propagates the same network under     *)
(* phase fixings that differ from the previous node's by one or two    *)
(* ReLU layers, so almost all of every propagation is recomputation.   *)
(* [Resumable] keeps one preallocated buffer per layer (symbolic       *)
(* coefficient rows, constants, concrete bounds) and re-runs only the  *)
(* layers at or past the earliest change.                              *)
(*                                                                     *)
(* Every kernel below mirrors the immutable transfer above operation   *)
(* for operation — same accumulation order, same branch conditions,    *)
(* same nan/overflow fallbacks — so a resumed propagation is           *)
(* bit-identical to a from-scratch one: reusing a cached layer state   *)
(* reuses exactly the floats the scratch run would recompute.  Any     *)
(* edit to a transfer above must be replayed here (and the property    *)
(* tests compare the two paths bit-for-bit on random networks).        *)
(*                                                                     *)
(* Steady-state propagation allocates nothing: all loops write into    *)
(* preallocated float arrays, scalar accumulation goes through array   *)
(* cells rather than [ref]s, and the empty-region escape is a          *)
(* constant exception.                                                 *)
module Resumable = struct
  type slot = {
    s_dim : int;
    lo_c : float array array; (* per neuron: coeff row over the input *)
    lo_k : float array; (* per neuron: lower-expression constant *)
    hi_c : float array array;
    hi_k : float array;
    cl : float array; (* concrete lower bounds (the [conc] cache) *)
    ch : float array;
  }

  (* Conv2d is lowered to dense once at plan time ([transfer_layer]
     lowers it on every visit; [Layer.lower_to_dense] is deterministic,
     so the weights are identical).  Sigmoid/tanh get their own
     constructors so the kernel calls [exp]/[tanh] directly instead of
     through a float-boxing closure. *)
  type step =
    | S_dense of float array array * float array
    | S_relu
    | S_diag of float array * float array
    | S_sigmoid
    | S_tanh

  type plan = {
    p_input_dim : int;
    steps : step array; (* steps.(l - 1) transfers layer l *)
    p_dims : int array; (* p_dims.(l) = output dimension of layer l *)
  }

  let num_layers p = Array.length p.steps
  let layer_dim p l = p.p_dims.(l)
  let is_relu p l = match p.steps.(l - 1) with S_relu -> true | _ -> false

  let plan net =
    let rec step layer =
      match layer with
      | Layer.Conv2d _ -> step (Layer.lower_to_dense layer)
      | Layer.Dense { weights; bias } ->
          S_dense (Array.init (Mat.rows weights) (Mat.row weights), bias)
      | Layer.Relu -> S_relu
      | Layer.Sigmoid -> S_sigmoid
      | Layer.Tanh -> S_tanh
      | Layer.Batch_norm _ -> (
          match Layer.batch_norm_scale_shift layer with
          | Some (scale, shift) -> S_diag (scale, shift)
          | None -> assert false)
    in
    {
      p_input_dim = Network.input_dim net;
      steps = Array.of_list (List.map step (Network.layers net));
      p_dims = Network.dims net;
    }

  type state = {
    plan : plan;
    in_lo : float array; (* input box, split into sides *)
    in_hi : float array;
    slots : slot array; (* slots.(l) holds layer l's state *)
    img_lo : float array; (* per-step box-domain image scratch *)
    img_hi : float array;
    ex_lo : float array; (* per-step concretization scratch *)
    ex_hi : float array;
    mutable valid : int; (* deepest cached layer holding current state *)
    mutable empty : bool; (* last [propagate] hit an empty region *)
    mutable progress : int; (* layers transferred by the last propagate *)
  }

  let make_slot ~input_dim dim =
    {
      s_dim = dim;
      lo_c = Array.init dim (fun _ -> Array.make input_dim 0.0);
      lo_k = Array.make dim 0.0;
      hi_c = Array.init dim (fun _ -> Array.make input_dim 0.0);
      hi_k = Array.make dim 0.0;
      cl = Array.make dim 0.0;
      ch = Array.make dim 0.0;
    }

  let valid st = st.valid
  let last_empty st = st.empty

  let create plan box =
    let id = plan.p_input_dim in
    if Array.length box <> id then
      invalid_arg "Deeppoly.Resumable.create: wrong input dimension";
    Array.iter
      (fun (iv : Interval.t) ->
        if
          not
            (Float.is_finite iv.Interval.lo && Float.is_finite iv.Interval.hi)
        then invalid_arg "Deeppoly.Resumable.create: unbounded side")
      box;
    let slots =
      Array.init
        (num_layers plan + 1)
        (fun l -> make_slot ~input_dim:id plan.p_dims.(l))
    in
    let max_dim = Array.fold_left max 0 plan.p_dims in
    let s0 = slots.(0) in
    for i = 0 to id - 1 do
      s0.lo_c.(i).(i) <- 1.0;
      s0.hi_c.(i).(i) <- 1.0;
      s0.cl.(i) <- box.(i).Interval.lo;
      s0.ch.(i) <- box.(i).Interval.hi
    done;
    {
      plan;
      in_lo = Array.init id (fun i -> box.(i).Interval.lo);
      in_hi = Array.init id (fun i -> box.(i).Interval.hi);
      slots;
      img_lo = Array.make max_dim 0.0;
      img_hi = Array.make max_dim 0.0;
      ex_lo = Array.make max_dim 0.0;
      ex_hi = Array.make max_dim 0.0;
      valid = 0;
      empty = false;
      progress = 0;
    }

  let invalidate_from st l =
    if l < 1 then invalid_arg "Deeppoly.Resumable.invalidate_from";
    if l - 1 < st.valid then st.valid <- l - 1

  (* A slot is current only up to [valid]. *)
  let slot_holding st l =
    if l <= st.valid then st.slots.(l)
    else invalid_arg "Deeppoly.Resumable: layer state not materialized"

  let conc_lo st ~layer i = (slot_holding st layer).cl.(i)
  let conc_hi st ~layer i = (slot_holding st layer).ch.(i)

  (* Borrowed view of a layer's concrete bounds; valid until the next
     [propagate].  Lets callers scan pre-activation bounds without a
     boxed-float accessor call per neuron. *)
  let conc_view st ~layer =
    let s = slot_holding st layer in
    (s.cl, s.ch)

  let box_of_layer st l =
    let s = slot_holding st l in
    Array.init st.plan.p_dims.(l) (fun i ->
        { Interval.lo = s.cl.(i); hi = s.ch.(i) })

  let output_box st = box_of_layer st (num_layers st.plan)

  (* --- kernels; [m] = output dim, [cols] = src dim, [id] = input dim *)

  (* Mirror of [rebuild]: [st.img_lo/hi] holds the box-domain image of
     the source conc, the dst expressions are concretized against the
     input box ([concretize_lo/hi]'s accumulation order), and the two
     enclosures meet per [meet_safe]. *)
  let rebuild_into st (dst : slot) m =
    let id = Array.length st.in_lo in
    let ex_lo = st.ex_lo and ex_hi = st.ex_hi in
    for i = 0 to m - 1 do
      let lc = dst.lo_c.(i) and hc = dst.hi_c.(i) in
      ex_lo.(i) <- dst.lo_k.(i);
      ex_hi.(i) <- dst.hi_k.(i);
      for j = 0 to id - 1 do
        let c = lc.(j) in
        ex_lo.(i) <-
          ex_lo.(i) +. (if c >= 0.0 then c *. st.in_lo.(j) else c *. st.in_hi.(j));
        let c = hc.(j) in
        ex_hi.(i) <-
          ex_hi.(i) +. (if c >= 0.0 then c *. st.in_hi.(j) else c *. st.in_lo.(j))
      done
    done;
    for i = 0 to m - 1 do
      let blo = st.img_lo.(i) and bhi = st.img_hi.(i) in
      let lo = ex_lo.(i) and hi = ex_hi.(i) in
      (* float-tuple-free [if lo <= hi then (lo, hi) else box_image] *)
      let ordered = lo <= hi in
      let elo = if ordered then lo else blo in
      let ehi = if ordered then hi else bhi in
      let bwf = (not (Float.is_nan blo)) && not (Float.is_nan bhi) in
      let ewf = (not (Float.is_nan elo)) && not (Float.is_nan ehi) in
      if bwf && ewf then begin
        let mlo = Float.max blo elo and mhi = Float.min bhi ehi in
        if mlo > mhi then begin
          dst.cl.(i) <- blo;
          dst.ch.(i) <- bhi
        end
        else begin
          dst.cl.(i) <- mlo;
          dst.ch.(i) <- mhi
        end
      end
      else if bwf then begin
        dst.cl.(i) <- blo;
        dst.ch.(i) <- bhi
      end
      else if ewf then begin
        dst.cl.(i) <- elo;
        dst.ch.(i) <- ehi
      end
      else begin
        dst.cl.(i) <- neg_infinity;
        dst.ch.(i) <- infinity
      end
    done

  (* Mirror of [transfer_dense] + the dense [Box_domain.transfer_layer]
     row ([Interval.dot] then adding the bias point). *)
  let dense_into st ~cols (src : slot) (dst : slot) rows bias =
    let id = Array.length st.in_lo in
    let m = Array.length rows in
    for i = 0 to m - 1 do
      let r = rows.(i) in
      let lc = dst.lo_c.(i) and hc = dst.hi_c.(i) in
      Array.fill lc 0 id 0.0;
      Array.fill hc 0 id 0.0;
      dst.lo_k.(i) <- bias.(i);
      dst.hi_k.(i) <- bias.(i);
      for j = 0 to cols - 1 do
        let w = r.(j) in
        if w > 0.0 then begin
          let sl = src.lo_c.(j) and sh = src.hi_c.(j) in
          for k = 0 to id - 1 do
            lc.(k) <- lc.(k) +. (w *. sl.(k))
          done;
          dst.lo_k.(i) <- dst.lo_k.(i) +. (w *. src.lo_k.(j));
          for k = 0 to id - 1 do
            hc.(k) <- hc.(k) +. (w *. sh.(k))
          done;
          dst.hi_k.(i) <- dst.hi_k.(i) +. (w *. src.hi_k.(j))
        end
        else if w < 0.0 then begin
          let sl = src.lo_c.(j) and sh = src.hi_c.(j) in
          for k = 0 to id - 1 do
            lc.(k) <- lc.(k) +. (w *. sh.(k))
          done;
          dst.lo_k.(i) <- dst.lo_k.(i) +. (w *. src.hi_k.(j));
          for k = 0 to id - 1 do
            hc.(k) <- hc.(k) +. (w *. sl.(k))
          done;
          dst.hi_k.(i) <- dst.hi_k.(i) +. (w *. src.lo_k.(j))
        end
      done;
      st.img_lo.(i) <- 0.0;
      st.img_hi.(i) <- 0.0;
      for j = 0 to cols - 1 do
        let c = r.(j) in
        if c >= 0.0 then begin
          st.img_lo.(i) <- st.img_lo.(i) +. (c *. src.cl.(j));
          st.img_hi.(i) <- st.img_hi.(i) +. (c *. src.ch.(j))
        end
        else begin
          st.img_lo.(i) <- st.img_lo.(i) +. (c *. src.ch.(j));
          st.img_hi.(i) <- st.img_hi.(i) +. (c *. src.cl.(j))
        end
      done;
      st.img_lo.(i) <- st.img_lo.(i) +. bias.(i);
      st.img_hi.(i) <- st.img_hi.(i) +. bias.(i)
    done;
    rebuild_into st dst m

  (* Mirror of [transfer_relu_fixed] (with [relu_neuron_bounds] inlined
     for the [Unknown] case) + the ReLU box image. *)
  let relu_into st ~m (src : slot) (dst : slot) phases =
    let id = Array.length st.in_lo in
    if Array.length phases <> m then
      invalid_arg "Deeppoly.transfer_relu_fixed: phase array dimension";
    for i = 0 to m - 1 do
      let l = src.cl.(i) and u = src.ch.(i) in
      (match phases.(i) with
      | Inactive ->
          if l > 0.0 then raise Empty_region;
          Array.fill dst.lo_c.(i) 0 id 0.0;
          dst.lo_k.(i) <- 0.0;
          Array.fill dst.hi_c.(i) 0 id 0.0;
          dst.hi_k.(i) <- 0.0
      | Active ->
          if u < 0.0 then raise Empty_region;
          Array.blit src.lo_c.(i) 0 dst.lo_c.(i) 0 id;
          dst.lo_k.(i) <- src.lo_k.(i);
          Array.blit src.hi_c.(i) 0 dst.hi_c.(i) 0 id;
          dst.hi_k.(i) <- src.hi_k.(i)
      | Unknown ->
          if u <= 0.0 then begin
            Array.fill dst.lo_c.(i) 0 id 0.0;
            dst.lo_k.(i) <- 0.0;
            Array.fill dst.hi_c.(i) 0 id 0.0;
            dst.hi_k.(i) <- 0.0
          end
          else if l >= 0.0 then begin
            Array.blit src.lo_c.(i) 0 dst.lo_c.(i) 0 id;
            dst.lo_k.(i) <- src.lo_k.(i);
            Array.blit src.hi_c.(i) 0 dst.hi_c.(i) 0 id;
            dst.hi_k.(i) <- src.hi_k.(i)
          end
          else begin
            let denom = u -. l in
            let lambda = u /. denom in
            if
              Float.is_finite denom && denom > 0.0 && Float.is_finite lambda
            then begin
              let sh = src.hi_c.(i) and dh = dst.hi_c.(i) in
              for k = 0 to id - 1 do
                dh.(k) <- lambda *. sh.(k)
              done;
              dst.hi_k.(i) <- (lambda *. src.hi_k.(i)) -. (lambda *. l);
              if u > -.l then begin
                Array.blit src.lo_c.(i) 0 dst.lo_c.(i) 0 id;
                dst.lo_k.(i) <- src.lo_k.(i)
              end
              else begin
                Array.fill dst.lo_c.(i) 0 id 0.0;
                dst.lo_k.(i) <- 0.0
              end
            end
            else begin
              Array.fill dst.lo_c.(i) 0 id 0.0;
              dst.lo_k.(i) <- 0.0;
              Array.fill dst.hi_c.(i) 0 id 0.0;
              dst.hi_k.(i) <- u
            end
          end);
      st.img_lo.(i) <- Float.max 0.0 l;
      st.img_hi.(i) <- Float.max 0.0 u
    done;
    rebuild_into st dst m

  (* Mirror of [transfer_diag] (including the non-finite scale/shift
     fallback) + the batch-norm box image. *)
  let diag_into st ~m (src : slot) (dst : slot) scale shift =
    let id = Array.length st.in_lo in
    for i = 0 to m - 1 do
      let a = scale.(i) and b = shift.(i) in
      if Float.is_finite a && Float.is_finite b then begin
        if a >= 0.0 then begin
          let sl = src.lo_c.(i) and sh = src.hi_c.(i) in
          let dl = dst.lo_c.(i) and dh = dst.hi_c.(i) in
          for k = 0 to id - 1 do
            dl.(k) <- a *. sl.(k)
          done;
          dst.lo_k.(i) <- (a *. src.lo_k.(i)) +. b;
          for k = 0 to id - 1 do
            dh.(k) <- a *. sh.(k)
          done;
          dst.hi_k.(i) <- (a *. src.hi_k.(i)) +. b
        end
        else begin
          let sl = src.lo_c.(i) and sh = src.hi_c.(i) in
          let dl = dst.lo_c.(i) and dh = dst.hi_c.(i) in
          for k = 0 to id - 1 do
            dl.(k) <- a *. sh.(k)
          done;
          dst.lo_k.(i) <- (a *. src.hi_k.(i)) +. b;
          for k = 0 to id - 1 do
            dh.(k) <- a *. sl.(k)
          done;
          dst.hi_k.(i) <- (a *. src.lo_k.(i)) +. b
        end
      end
      else begin
        let raw_lo =
          (if a >= 0.0 then a *. src.cl.(i) else a *. src.ch.(i)) +. b
        in
        let raw_hi =
          (if a >= 0.0 then a *. src.ch.(i) else a *. src.cl.(i)) +. b
        in
        let lo = if Float.is_nan raw_lo then neg_infinity else raw_lo in
        let hi = if Float.is_nan raw_hi then infinity else raw_hi in
        let ordered = lo <= hi in
        let lo = if ordered then lo else neg_infinity in
        let hi = if ordered then hi else infinity in
        Array.fill dst.lo_c.(i) 0 id 0.0;
        dst.lo_k.(i) <- lo;
        Array.fill dst.hi_c.(i) 0 id 0.0;
        dst.hi_k.(i) <- hi
      end;
      st.img_lo.(i) <-
        (if a >= 0.0 then a *. src.cl.(i) else a *. src.ch.(i)) +. b;
      st.img_hi.(i) <-
        (if a >= 0.0 then a *. src.ch.(i) else a *. src.cl.(i)) +. b
    done;
    rebuild_into st dst m

  (* Mirror of [transfer_monotone] + the monotone box image (both apply
     the same function endpoint-wise, so expression constants and image
     coincide before concretization). *)
  let mono_into st ~m (src : slot) (dst : slot) which =
    let id = Array.length st.in_lo in
    for i = 0 to m - 1 do
      (match which with
      | `Sigmoid ->
          st.img_lo.(i) <- 1.0 /. (1.0 +. exp (-.src.cl.(i)));
          st.img_hi.(i) <- 1.0 /. (1.0 +. exp (-.src.ch.(i)))
      | `Tanh ->
          st.img_lo.(i) <- tanh src.cl.(i);
          st.img_hi.(i) <- tanh src.ch.(i));
      Array.fill dst.lo_c.(i) 0 id 0.0;
      dst.lo_k.(i) <- st.img_lo.(i);
      Array.fill dst.hi_c.(i) 0 id 0.0;
      dst.hi_k.(i) <- st.img_hi.(i)
    done;
    rebuild_into st dst m

  (* Re-propagate layers [valid + 1 .. n]; [phases l] supplies the
     phase fixings for ReLU layer [l] (the array is read during the
     call and may be reused by the caller afterwards; the engine
     guarantees layer [l - 1]'s bounds are materialized when it asks).
     Returns the number of layers transferred; [last_empty] reports
     whether a fixing contradicted the propagated bounds, in which case
     the transfer stopped at the contradicting layer and deeper cached
     states are stale (and marked invalid). *)
  let propagate st ~phases =
    st.empty <- false;
    st.progress <- 0;
    let n = num_layers st.plan in
    (try
       for l = st.valid + 1 to n do
         let src = st.slots.(l - 1) in
         let dst = st.slots.(l) in
         let m = st.plan.p_dims.(l) in
         (match st.plan.steps.(l - 1) with
         | S_dense (rows, bias) ->
             dense_into st ~cols:st.plan.p_dims.(l - 1) src dst rows bias
         | S_relu -> relu_into st ~m src dst (phases l)
         | S_diag (scale, shift) -> diag_into st ~m src dst scale shift
         | S_sigmoid -> mono_into st ~m src dst `Sigmoid
         | S_tanh -> mono_into st ~m src dst `Tanh);
         st.valid <- l;
         st.progress <- st.progress + 1
       done
     with Empty_region -> st.empty <- true);
    st.progress
end
