module Lp = Dpv_linprog.Lp
module Layer = Dpv_nn.Layer
module Network = Dpv_nn.Network
module Box_domain = Dpv_absint.Box_domain
module Interval = Dpv_absint.Interval
module Mat = Dpv_tensor.Mat
module Linexpr = Dpv_spec.Linexpr
module Risk = Dpv_spec.Risk
module Polyhedron = Dpv_monitor.Polyhedron

type t = {
  model : Lp.t;
  feature_vars : Lp.var array;
  output_vars : Lp.var array;
  logit_var : Lp.var;
  num_binaries : int;
  num_fixed_relus : int;
  head_relu_vars : (int * Lp.var option array) list;
}

let lp_bound x = if Float.is_finite x then Some x else None

(* Fresh continuous variable for a neuron with interval bounds; infinite
   sides become absent LP bounds. *)
let neuron_var_opt model ~name (iv : Interval.t) =
  let m, v =
    match (lp_bound iv.lo, lp_bound iv.hi) with
    | Some lo, Some up -> Lp.add_var ~name ~lo ~up model
    | Some lo, None -> Lp.add_var ~name ~lo model
    | None, Some up -> Lp.add_var ~name ~up model
    | None, None -> Lp.add_var ~name model
  in
  (m, v)

let encode_dense model ~name ~weights ~bias ~in_vars ~out_bounds =
  let rows = Mat.rows weights in
  let model = ref model in
  let out_vars =
    Array.init rows (fun i ->
        let m, v =
          neuron_var_opt !model ~name:(Printf.sprintf "%s_y%d" name i)
            out_bounds.(i)
        in
        model := m;
        v)
  in
  for i = 0 to rows - 1 do
    let inputs =
      List.filter_map
        (fun j ->
          let w = Mat.get weights i j in
          if w = 0.0 then None else Some (w, in_vars.(j)))
        (List.init (Mat.cols weights) (fun j -> j))
    in
    let terms =
      (1.0, out_vars.(i)) :: List.map (fun (w, v) -> (-.w, v)) inputs
    in
    let m =
      Lp.add_constraint ~name:(Printf.sprintf "%s_eq%d" name i) !model terms
        Lp.Eq bias.(i)
    in
    model := Lp.define m out_vars.(i) (Lp.Affine (inputs, bias.(i)))
  done;
  (!model, out_vars)

let encode_batch_norm model ~name ~scale ~shift ~in_vars ~out_bounds =
  let d = Array.length in_vars in
  let model = ref model in
  let out_vars =
    Array.init d (fun i ->
        let m, v =
          neuron_var_opt !model ~name:(Printf.sprintf "%s_y%d" name i)
            out_bounds.(i)
        in
        model := m;
        v)
  in
  for i = 0 to d - 1 do
    let m =
      Lp.add_constraint ~name:(Printf.sprintf "%s_eq%d" name i) !model
        [ (1.0, out_vars.(i)); (-.scale.(i), in_vars.(i)) ]
        Lp.Eq shift.(i)
    in
    model :=
      Lp.define m out_vars.(i)
        (Lp.Affine ([ (scale.(i), in_vars.(i)) ], shift.(i)))
  done;
  (!model, out_vars)

(* Big-M ReLU on one neuron with pre-activation bounds [l0, h0]:
     stable active   (l0 >= 0): y = x
     stable inactive (h0 <= 0): y = 0
     crossing: binary d with
       y >= x, y >= 0, y <= x - l0*(1 - d), y <= h0*d.               *)
let encode_relu model ~name ~in_vars ~in_bounds =
  let d = Array.length in_vars in
  let model = ref model in
  let binaries = ref 0 in
  let fixed = ref 0 in
  (* Per-neuron phase indicator, [None] for bound-stable neurons — the
     map the abstract-interpretation guide uses to tie LP binaries back
     to network neurons. *)
  let deltas = Array.make d None in
  let out_vars =
    Array.init d (fun i ->
        let { Interval.lo = l0; hi = h0 } = in_bounds.(i) in
        if l0 >= 0.0 then begin
          incr fixed;
          in_vars.(i)
        end
        else if h0 <= 0.0 then begin
          incr fixed;
          let m, v =
            Lp.add_var ~name:(Printf.sprintf "%s_y%d" name i) ~lo:0.0 ~up:0.0
              !model
          in
          model := m;
          v
        end
        else begin
          if not (Float.is_finite l0 && Float.is_finite h0) then
            invalid_arg
              (Printf.sprintf
                 "Encode: ReLU %s_%d crosses zero with unbounded \
                  pre-activation [%g, %g]; a bounded region S is required"
                 name i l0 h0);
          incr binaries;
          let m, y =
            Lp.add_var ~name:(Printf.sprintf "%s_y%d" name i) ~lo:0.0 ~up:h0
              !model
          in
          let m, delta =
            Lp.add_var ~name:(Printf.sprintf "%s_d%d" name i) ~kind:Lp.Binary m
          in
          deltas.(i) <- Some delta;
          let x = in_vars.(i) in
          let m =
            Lp.add_constraint ~name:(Printf.sprintf "%s_ge%d" name i) m
              [ (1.0, y); (-1.0, x) ]
              Lp.Ge 0.0
          in
          (* y <= x - l0 + l0*d  <=>  y - x - l0*d <= -l0 *)
          let m =
            Lp.add_constraint ~name:(Printf.sprintf "%s_ub1_%d" name i) m
              [ (1.0, y); (-1.0, x); (-.l0, delta) ]
              Lp.Le (-.l0)
          in
          let m =
            Lp.add_constraint ~name:(Printf.sprintf "%s_ub2_%d" name i) m
              [ (1.0, y); (-.h0, delta) ]
              Lp.Le 0.0
          in
          model := Lp.define m y (Lp.Relu { pre = x; phase = delta });
          y
        end)
  in
  (!model, out_vars, deltas, !binaries, !fixed)

let encode_network model ~net ~input_vars ~input_box ~name =
  if Array.length input_vars <> Network.input_dim net then
    invalid_arg "Encode.encode_network: input variable count mismatch";
  let bounds = Box_domain.propagate_all net input_box in
  let model = ref model in
  let vars = ref input_vars in
  let binaries = ref 0 in
  let fixed = ref 0 in
  let relu_vars = ref [] in
  List.iteri
    (fun idx layer ->
      let lname = Printf.sprintf "%s_l%d" name (idx + 1) in
      let layer =
        (* Convolutions are affine: encode their dense materialization. *)
        match layer with Layer.Conv2d _ -> Layer.lower_to_dense layer | _ -> layer
      in
      match layer with
      | Layer.Conv2d _ -> assert false
      | Layer.Dense { weights; bias } ->
          let m, out =
            encode_dense !model ~name:lname ~weights ~bias ~in_vars:!vars
              ~out_bounds:bounds.(idx + 1)
          in
          model := m;
          vars := out
      | Layer.Batch_norm _ ->
          let scale, shift =
            match Layer.batch_norm_scale_shift layer with
            | Some p -> p
            | None -> assert false
          in
          let m, out =
            encode_batch_norm !model ~name:lname ~scale ~shift ~in_vars:!vars
              ~out_bounds:bounds.(idx + 1)
          in
          model := m;
          vars := out
      | Layer.Relu ->
          let m, out, deltas, b, f =
            encode_relu !model ~name:lname ~in_vars:!vars
              ~in_bounds:bounds.(idx)
          in
          model := m;
          vars := out;
          relu_vars := (idx + 1, deltas) :: !relu_vars;
          binaries := !binaries + b;
          fixed := !fixed + f
      | Layer.Sigmoid | Layer.Tanh ->
          invalid_arg
            (Printf.sprintf
               "Encode: layer %s is not piecewise-linear; cannot encode"
               (Layer.name layer)))
    (Network.layers net);
  (!model, !vars, List.rev !relu_vars, !binaries, !fixed)

let risk_constraints model ~psi ~output_vars =
  List.fold_left
    (fun model (ineq : Risk.inequality) ->
      let terms =
        List.map
          (fun (c, i) ->
            if i >= Array.length output_vars then
              invalid_arg "Encode: psi mentions an output index out of range";
            (c, output_vars.(i)))
          (Linexpr.normalized_terms ineq.Risk.expr)
      in
      let const = ineq.Risk.expr.Linexpr.const in
      let rel = match ineq.Risk.rel with `Le -> Lp.Le | `Ge -> Lp.Ge in
      Lp.add_constraint ~name:"psi" model terms rel (ineq.Risk.bound -. const))
    model psi.Risk.inequalities

(* The feature layer + suffix part of the encoding depends only on
   (suffix, feature_box, extra_faces) — not on the characterizer head or
   psi.  [Lp.t] is persistent, so this prefix can be built once and
   completed into many per-query models without copying: a campaign
   caches one [shared] per distinct (cut, bounds) key.

   Two memos under [lock] make a repeated completion or restriction
   cost a lookup: [heads] keeps, per head, the prefix with the head's
   rows added, and [restricted] keeps the prefix built over each
   sub-box.  Both live as long as the prefix. *)
type shared = {
  suffix : Network.t;
  feature_box : Box_domain.t;
  faces : Polyhedron.halfspace list;
  base_model : Lp.t;
  shared_feature_vars : Lp.var array;
  shared_output_vars : Lp.var array;
  suffix_relu_vars : (int * Lp.var option array) list;
  suffix_binaries : int;
  suffix_fixed_relus : int;
  lock : Mutex.t;
  heads : (Network.t * head_prefix) list ref;
  restricted : (Box_domain.t * shared) list ref;
}

(* [base_model] after the head's rows: what [complete] adds psi and
   phi to. *)
and head_prefix = {
  head_model : Lp.t;
  head_logit : Lp.var;
  head_relus : (int * Lp.var option array) list;
  head_binaries : int;
  head_fixed_relus : int;
}

(* The value [cell] holds for [key]; on a miss, [build] runs and its
   value is recorded, all under [lock].  A build that raises records
   nothing. *)
let memo lock cell ~same key build =
  Mutex.protect lock (fun () ->
      match List.find_opt (fun (k, _) -> same k key) !cell with
      | Some (_, v) -> v
      | None ->
          let v = build () in
          cell := (key, v) :: !cell;
          v)

let build_shared ~suffix ~feature_box ?(extra_faces = []) () =
  if Array.length feature_box <> Network.input_dim suffix then
    invalid_arg "Encode.build_shared: feature box dimension mismatch";
  let model = ref (Lp.create ()) in
  let feature_vars =
    Array.init (Array.length feature_box) (fun i ->
        let m, v =
          neuron_var_opt !model ~name:(Printf.sprintf "n_%d" i) feature_box.(i)
        in
        model := m;
        v)
  in
  (* Octagon faces over the shared feature variables. *)
  List.iter
    (fun (f : Polyhedron.halfspace) ->
      let terms =
        List.map (fun (i, c) -> (c, feature_vars.(i))) f.Polyhedron.direction
      in
      model := Lp.add_constraint ~name:"face" !model terms Lp.Le f.Polyhedron.bound)
    extra_faces;
  let m, output_vars, relu_vars, b1, f1 =
    encode_network !model ~net:suffix ~input_vars:feature_vars
      ~input_box:feature_box ~name:"g"
  in
  {
    suffix;
    feature_box;
    faces = extra_faces;
    base_model = m;
    shared_feature_vars = feature_vars;
    shared_output_vars = output_vars;
    suffix_relu_vars = relu_vars;
    suffix_binaries = b1;
    suffix_fixed_relus = f1;
    lock = Mutex.create ();
    heads = ref [];
    restricted = ref [];
  }

let complete shared ~head ?(characterizer_margin = 0.0) ?psi () =
  if Network.input_dim shared.suffix <> Network.input_dim head then
    invalid_arg "Encode.complete: suffix/head input dimensions differ";
  if Network.output_dim head <> 1 then
    invalid_arg "Encode.complete: characterizer head must output a single logit";
  (* [compare] is total: the same head hits at once, and a head with a
     NaN weight still matches itself. *)
  let hp =
    memo shared.lock shared.heads ~same:(fun a b -> compare a b = 0) head
      (fun () ->
        let m, head_out, head_relus, b2, f2 =
          encode_network shared.base_model ~net:head
            ~input_vars:shared.shared_feature_vars
            ~input_box:shared.feature_box ~name:"h"
        in
        {
          head_model = m;
          head_logit = head_out.(0);
          head_relus;
          head_binaries = b2;
          head_fixed_relus = f2;
        })
  in
  let m =
    match psi with
    | Some psi ->
        risk_constraints hp.head_model ~psi
          ~output_vars:shared.shared_output_vars
    | None -> hp.head_model
  in
  let m =
    Lp.add_constraint ~name:"phi_holds" m
      [ (1.0, hp.head_logit) ]
      Lp.Ge characterizer_margin
  in
  {
    model = m;
    feature_vars = shared.shared_feature_vars;
    output_vars = shared.shared_output_vars;
    logit_var = hp.head_logit;
    num_binaries = shared.suffix_binaries + hp.head_binaries;
    num_fixed_relus = shared.suffix_fixed_relus + hp.head_fixed_relus;
    head_relu_vars = hp.head_relus;
  }

let build ~suffix ~head ~feature_box ?(extra_faces = [])
    ?(characterizer_margin = 0.0) ?psi () =
  let shared = build_shared ~suffix ~feature_box ~extra_faces () in
  complete shared ~head ~characterizer_margin ?psi ()

let suffix_of_shared shared = shared.suffix
let feature_box_of_shared shared = shared.feature_box
let suffix_relu_vars_of_shared shared = shared.suffix_relu_vars

(* Rebuild the prefix over a sub-box of the original feature region —
   the unit of work under input bisection.  The octagon faces still
   apply (the sub-box only shrinks S), so they are carried over. *)
let restrict_shared shared ~feature_box =
  if Array.length feature_box <> Array.length shared.feature_box then
    invalid_arg "Encode.restrict_shared: feature box dimension mismatch";
  memo shared.lock shared.restricted ~same:Box_domain.same_box feature_box
    (fun () ->
      build_shared ~suffix:shared.suffix ~feature_box
        ~extra_faces:shared.faces ())

let set_output_objective t ~sense expr =
  let terms =
    List.map
      (fun (c, i) ->
        if i >= Array.length t.output_vars then
          invalid_arg "Encode.set_output_objective: output index out of range";
        (c, t.output_vars.(i)))
      (Linexpr.normalized_terms expr)
  in
  { t with model = Lp.set_objective t.model sense terms }

let size_description t =
  Printf.sprintf "%d vars (%d binary), %d constraints, %d relus fixed by bounds"
    (Lp.num_vars t.model) t.num_binaries
    (Lp.num_constraints t.model)
    t.num_fixed_relus
