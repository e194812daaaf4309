module Layer = Dpv_nn.Layer
module Network = Dpv_nn.Network
module Mat = Dpv_tensor.Mat

type phase = Active | Inactive | Unknown

exception Empty_region

(* In-place DeepPoly.  Each neuron carries a symbolic lower and upper
   bound (affine expressions over the input) and a concrete interval:
   the meet of their concretization over the input box and a plain box
   transfer of the previous layer, so the domain is never looser than
   [Box_domain] even where the relaxation is weak (the [y >= x] lower
   bound of a crossing ReLU concretizes below zero).

   The branch-and-bound guide re-propagates the same network under
   fixings that differ from the previous node's by one or two ReLU
   layers.  [Resumable] keeps one preallocated buffer per layer and
   re-runs only the layers at or past the earliest change; a layer's
   floats depend only on the layer before it, so a resumed propagation
   is bit-identical to a from-scratch one.  Steady-state propagation
   allocates nothing: loops write into preallocated float arrays,
   scalar accumulation goes through array cells rather than [ref]s,
   and the empty-region escape is a constant exception.

   test/deeppoly_reference.ml keeps the immutable transfers this kernel
   was written against, and the tests compare the two bit for bit
   (same accumulation order, branch conditions and nan/overflow
   fallbacks): an edit here that moves a float fails them, and a
   deliberate change of semantics is made in both. *)
module Resumable = struct
  type slot = {
    s_dim : int;
    lo_c : float array array; (* per neuron: coeff row over the input *)
    lo_k : float array; (* per neuron: lower-expression constant *)
    hi_c : float array array;
    hi_k : float array;
    cl : float array; (* concrete lower bounds *)
    ch : float array;
  }

  (* Conv2d is lowered to dense once, at plan time.  Sigmoid/tanh get
     their own constructors so the kernel calls [exp]/[tanh] directly
     instead of through a float-boxing closure. *)
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

  (* Finalize a transfer step.  [st.img_lo/hi] holds the box-domain
     image of the source's concrete bounds.  The dst expressions are
     concretized against the input box (a positive coefficient pulls
     from the matching side of the box), and the two enclosures meet.
     Both are sound, so their intersection is too; if float rounding
     makes them nominally disjoint, or a degenerate transfer left a nan
     side, keep whichever operand is still a well-formed interval. *)
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

  (* Affine layer: picking the source's lower expression for positive
     weights and its upper expression for negative ones yields a sound
     lower bound (and symmetrically for the upper).  The box image is
     the row's [Interval.dot] with the source bounds plus the bias. *)
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

  (* ReLU under the search's phase fixings: [Inactive] asserts x <= 0
     (y = 0), [Active] asserts x >= 0 (y = x), and a fixing the
     pre-activation bounds contradict raises [Empty_region] (strictly:
     x = 0 is feasible under either phase).  [Unknown] takes the
     DeepPoly relaxation over the bounds [l, u]: y = 0 if u <= 0, y = x
     if l >= 0, else the upper chord y <= (u/(u-l)) (x - l) and the
     lower bound y >= x when u > -l (the smaller area), y >= 0
     otherwise.  The slope goes non-finite when u - l overflows and nan
     when the bounds are poisoned; either would smear inf/nan over every
     later concretization, so the neuron then falls back to the box
     relaxation 0 <= y <= u. *)
  let relu_into st ~m (src : slot) (dst : slot) phases =
    let id = Array.length st.in_lo in
    if Array.length phases <> m then
      invalid_arg "Deeppoly.Resumable.propagate: phase array dimension";
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

  (* Batch norm as a per-neuron affine map y = a x + b; a negative [a]
     swaps the expressions.  A non-finite scale or shift would smear
     inf/nan coefficients over every downstream concretization, so the
     neuron becomes an opaque constant interval instead, widening any
     nan side. *)
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

  (* Smooth activations fall back to the concrete interval image: sound,
     but the neurons lose their symbolic information.  Expression
     constants and box image apply the same function endpoint-wise, so
     they coincide before concretization. *)
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

let propagate_all net box =
  let plan = Resumable.plan net in
  let st = Resumable.create plan box in
  let unknowns l = Array.make (Resumable.layer_dim plan l) Unknown in
  ignore (Resumable.propagate st ~phases:unknowns : int);
  Array.init (Resumable.num_layers plan + 1) (Resumable.box_of_layer st)
