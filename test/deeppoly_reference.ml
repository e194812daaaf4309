(* Reference DeepPoly: the immutable transfers, one record of symbolic
   expressions per layer, rebuilt by every transfer.
   [Dpv_absint.Deeppoly.Resumable] computes the same floats in place,
   and the tests in test_absint_incremental.ml and test_conv.ml compare
   the two bit for bit, so an edit to a kernel that moves a float fails
   them.  [phase] is the library's own type, so both engines take the
   same fixing arrays. *)

module Layer = Dpv_nn.Layer
module Network = Dpv_nn.Network
module Mat = Dpv_tensor.Mat
module Vec = Dpv_tensor.Vec
module Interval = Dpv_absint.Interval
module Box_domain = Dpv_absint.Box_domain

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

type phase = Dpv_absint.Deeppoly.phase = Active | Inactive | Unknown

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

