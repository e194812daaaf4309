(* Incremental (resumable) DeepPoly propagation.

   The branch-and-bound guide's whole correctness argument is that
   [Deeppoly.Resumable] is bit-identical to the immutable transfers
   kept in [Deeppoly_reference]: a cached layer state IS what a
   from-scratch run would recompute, so reusing it changes nothing —
   verdicts, node counts, prunes and phase-fixes included.  These
   tests compare the two paths bit-for-bit (Int64 payloads, not
   tolerances) on randomized networks and randomized fixing
   sequences: extensions (a child fixes one more phase), retractions
   (backtracking), full redraws (a work-steal landing in an unrelated
   subtree), contradictory fixings (empty regions) and degenerate
   float inputs. *)

module Interval = Dpv_absint.Interval
module Deeppoly = Dpv_absint.Deeppoly
module Box_domain = Dpv_absint.Box_domain
module Network = Dpv_nn.Network
module Layer = Dpv_nn.Layer
module Mat = Dpv_tensor.Mat
module Rng = Dpv_tensor.Rng

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_box_bits label (a : Box_domain.t) (b : Box_domain.t) =
  Alcotest.(check int) (label ^ ": dimension") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (iv : Interval.t) ->
      let jv : Interval.t = b.(i) in
      if
        not
          (same_float iv.Interval.lo jv.Interval.lo
          && same_float iv.Interval.hi jv.Interval.hi)
      then
        Alcotest.failf "%s: neuron %d differs: [%h, %h] vs [%h, %h]" label i
          iv.Interval.lo iv.Interval.hi jv.Interval.lo jv.Interval.hi)
    a

(* Random network mixing every layer kind the domain supports.  Dense
   layers always precede activations so ReLU layers sit at varying
   depths with varying widths. *)
let random_mixed_net rng ~input_dim ~blocks =
  let layers = ref [] in
  let prev = ref input_dim in
  for _ = 1 to blocks do
    let d = 1 + Rng.int rng 3 in
    let rows =
      Array.init d (fun _ ->
          Array.init !prev (fun _ -> Rng.uniform rng ~lo:(-1.5) ~hi:1.5))
    in
    let bias = Array.init d (fun _ -> Rng.uniform rng ~lo:(-0.5) ~hi:0.5) in
    layers := Layer.dense ~weights:(Mat.of_rows rows) ~bias :: !layers;
    prev := d;
    (match Rng.int rng 5 with
    | 0 | 1 -> layers := Layer.Relu :: !layers
    | 2 ->
        layers :=
          Layer.Batch_norm
            {
              gamma = Array.init d (fun _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0);
              beta = Array.init d (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0);
              mean = Array.init d (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0);
              var = Array.init d (fun _ -> Rng.uniform rng ~lo:0.1 ~hi:2.0);
              eps = 1e-5;
            }
          :: !layers
    | 3 -> layers := (if Rng.int rng 2 = 0 then Layer.Sigmoid else Layer.Tanh) :: !layers
    | _ -> ());
    ()
  done;
  (* Guarantee at least one ReLU so fixing sequences are non-trivial. *)
  layers := Layer.Relu :: !layers;
  Network.create ~input_dim (List.rev !layers)

let relu_layers net =
  List.mapi (fun idx l -> (idx + 1, l)) (Network.layers net)
  |> List.filter_map (fun (l, layer) ->
         match layer with Layer.Relu -> Some l | _ -> None)

(* Immutable reference: fold the reference transfers under the same
   phase fixings, recording per-layer boxes until an empty region. *)
let reference_propagate net box phase_of_layer =
  let module R = Deeppoly_reference in
  let n = Network.num_layers net in
  let boxes = Array.make (n + 1) None in
  let t = ref (R.of_box box) in
  boxes.(0) <- Some (R.to_box !t);
  let empty = ref false in
  List.iteri
    (fun idx layer ->
      if not !empty then begin
        (match layer with
        | Layer.Relu -> (
            match R.transfer_relu_fixed (phase_of_layer (idx + 1)) !t with
            | Some t' -> t := t'
            | None -> empty := true)
        | layer -> t := R.transfer_layer layer !t);
        if not !empty then boxes.(idx + 1) <- Some (R.to_box !t)
      end)
    (Network.layers net);
  (boxes, !empty)

let random_box rng dim =
  Array.init dim (fun _ ->
      let lo = Rng.uniform rng ~lo:(-1.5) ~hi:0.5 in
      Interval.make ~lo ~hi:(lo +. Rng.uniform rng ~lo:0.05 ~hi:2.0))

let random_phase rng =
  match Rng.int rng 3 with
  | 0 -> Deeppoly.Active
  | 1 -> Deeppoly.Inactive
  | _ -> Deeppoly.Unknown

(* One randomized episode: a network, a box, and a sequence of fixing
   mutations replayed against both engines. *)
let run_episode rng ~steps =
  let input_dim = 1 + Rng.int rng 3 in
  let net = random_mixed_net rng ~input_dim ~blocks:(1 + Rng.int rng 4) in
  let box = random_box rng input_dim in
  let plan = Deeppoly.Resumable.plan net in
  let st = Deeppoly.Resumable.create plan box in
  let n = Deeppoly.Resumable.num_layers plan in
  Alcotest.(check int) "plan layer count" (Network.num_layers net) n;
  let relus = relu_layers net in
  let phases = Hashtbl.create 8 in
  List.iter
    (fun l ->
      Hashtbl.replace phases l
        (Array.make (Deeppoly.Resumable.layer_dim plan l) Deeppoly.Unknown))
    relus;
  let prev = Hashtbl.create 8 in
  let phase_of_layer l = Hashtbl.find phases l in
  for _ = 1 to steps do
    (* Mutate the fixings: usually a single deep flip (a child node),
       sometimes a full redraw (a steal landing elsewhere), sometimes a
       reset to all-Unknown (back at a root). *)
    (match Rng.int rng 10 with
    | 0 ->
        List.iter
          (fun l ->
            let a = Hashtbl.find phases l in
            Hashtbl.replace phases l (Array.map (fun _ -> random_phase rng) a))
          relus
    | 1 ->
        List.iter
          (fun l ->
            let a = Hashtbl.find phases l in
            Hashtbl.replace phases l (Array.map (fun _ -> Deeppoly.Unknown) a))
          relus
    | _ ->
        if relus <> [] then begin
          let l = List.nth relus (Rng.int rng (List.length relus)) in
          let a = Array.copy (Hashtbl.find phases l) in
          a.(Rng.int rng (Array.length a)) <- random_phase rng;
          Hashtbl.replace phases l a
        end);
    (* The guide's invalidation protocol: roll back to the earliest
       ReLU layer whose fixings changed since the last propagation. *)
    List.iter
      (fun l ->
        let cur = Hashtbl.find phases l in
        let changed =
          match Hashtbl.find_opt prev l with
          | None -> true
          | Some old -> old <> cur
        in
        if changed then Deeppoly.Resumable.invalidate_from st l)
      (List.rev relus);
    let resumed_from = Deeppoly.Resumable.valid st in
    let transferred = Deeppoly.Resumable.propagate st ~phases:phase_of_layer in
    if not (Deeppoly.Resumable.last_empty st) then
      Alcotest.(check int) "propagate covers the invalid tail"
        (n - resumed_from) transferred;
    List.iter
      (fun l -> Hashtbl.replace prev l (Array.copy (Hashtbl.find phases l)))
      relus;
    let ref_boxes, ref_empty = reference_propagate net box phase_of_layer in
    Alcotest.(check bool) "empty-region agreement" ref_empty
      (Deeppoly.Resumable.last_empty st);
    if not ref_empty then begin
      (* Output box plus every still-materialized layer state must be
         bit-identical to the from-scratch reference. *)
      check_box_bits "output box"
        (Option.get ref_boxes.(n))
        (Deeppoly.Resumable.output_box st);
      for l = 0 to Deeppoly.Resumable.valid st do
        check_box_bits
          (Printf.sprintf "cached layer %d" l)
          (Option.get ref_boxes.(l))
          (Deeppoly.Resumable.box_of_layer st l)
      done
    end
  done

let test_resumable_matches_scratch () =
  let rng = Rng.create 20260881 in
  for _ = 1 to 40 do
    run_episode rng ~steps:12
  done

let test_resumable_degenerate_floats () =
  (* Non-finite batch-norm parameters and overflowing crossing
     intervals take the guarded fallbacks; the mirrors must reproduce
     them exactly (including the nan-widening). *)
  List.iter
    (fun gamma ->
      let net =
        Network.create ~input_dim:1
          [
            Layer.Batch_norm
              {
                gamma = [| gamma |];
                beta = [| 0.0 |];
                mean = [| 0.0 |];
                var = [| 1.0 |];
                eps = 0.0;
              };
            Layer.Relu;
          ]
      in
      let box = [| Interval.make ~lo:(-1e308) ~hi:1e308 |] in
      let plan = Deeppoly.Resumable.plan net in
      let st = Deeppoly.Resumable.create plan box in
      let unknowns l = Array.make (Deeppoly.Resumable.layer_dim plan l) Deeppoly.Unknown in
      ignore (Deeppoly.Resumable.propagate st ~phases:unknowns : int);
      let ref_boxes, ref_empty =
        reference_propagate net box (fun l -> unknowns l)
      in
      Alcotest.(check bool) "not empty" false ref_empty;
      check_box_bits
        (Printf.sprintf "gamma=%h output" gamma)
        (Option.get ref_boxes.(2))
        (Deeppoly.Resumable.output_box st))
    [ Float.nan; Float.infinity; Float.neg_infinity; 1.0 ]

let test_resumable_empty_then_recover () =
  (* A contradictory fixing stops propagation; the next consistent
     fixing must propagate cleanly from the surviving prefix. *)
  let net =
    Network.create ~input_dim:1
      [
        Layer.dense ~weights:(Mat.of_rows [| [| 1.0 |] |]) ~bias:[| 2.0 |];
        Layer.Relu;
      ]
  in
  let box = [| Interval.make ~lo:0.0 ~hi:1.0 |] in
  let plan = Deeppoly.Resumable.plan net in
  let st = Deeppoly.Resumable.create plan box in
  let phases = [| Deeppoly.Inactive |] in
  ignore (Deeppoly.Resumable.propagate st ~phases:(fun _ -> phases) : int);
  Alcotest.(check bool) "contradiction detected" true
    (Deeppoly.Resumable.last_empty st);
  phases.(0) <- Deeppoly.Active;
  Deeppoly.Resumable.invalidate_from st 2;
  ignore (Deeppoly.Resumable.propagate st ~phases:(fun _ -> phases) : int);
  Alcotest.(check bool) "recovered" false (Deeppoly.Resumable.last_empty st);
  let out = Deeppoly.Resumable.output_box st in
  Alcotest.(check bool) "bounds are the shifted box" true
    (same_float out.(0).Interval.lo 2.0 && same_float out.(0).Interval.hi 3.0)

(* A resumed propagation writes into the state's preallocated layer
   buffers.  On a 16-ReLU, width-4 stack, 2,000 cycles of invalidating
   from layer 1 and propagating again allocate at most 8 minor words
   per propagate (it is 0); one boxed float per neuron would be 128. *)
let test_resumed_propagation_allocation () =
  let relus = 16 and width = 4 in
  let dims = (width :: List.init relus (fun _ -> width)) @ [ 1 ] in
  let net = Test_absint_guided.golden_stack ~seed:11 dims in
  let plan = Deeppoly.Resumable.plan net in
  let phase_arrays =
    Array.init
      (Deeppoly.Resumable.num_layers plan + 1)
      (fun l ->
        if l >= 1 && Deeppoly.Resumable.is_relu plan l then
          Array.make (Deeppoly.Resumable.layer_dim plan l) Deeppoly.Unknown
        else [||])
  in
  let phases l = phase_arrays.(l) in
  let st =
    Deeppoly.Resumable.create plan
      (Box_domain.uniform ~dim:width ~lo:(-1.0) ~hi:1.0)
  in
  let cycle () =
    Deeppoly.Resumable.invalidate_from st 1;
    ignore (Deeppoly.Resumable.propagate st ~phases : int)
  in
  for _ = 1 to 100 do
    cycle ()
  done;
  let cycles = 2000 in
  let before = Gc.minor_words () in
  for _ = 1 to cycles do
    cycle ()
  done;
  let per_propagate = (Gc.minor_words () -. before) /. float_of_int cycles in
  if per_propagate > 8.0 then
    Alcotest.failf "%.2f minor words per propagate (at most 8)" per_propagate

let tests =
  [
    Alcotest.test_case "resumable ≡ scratch (random episodes)" `Quick
      test_resumable_matches_scratch;
    Alcotest.test_case "resumable mirrors degenerate-float fallbacks" `Quick
      test_resumable_degenerate_floats;
    Alcotest.test_case "empty region then recovery" `Quick
      test_resumable_empty_then_recover;
    Alcotest.test_case "resumed propagation allocation" `Quick
      test_resumed_propagation_allocation;
  ]
