module Rng = Dpv_tensor.Rng
module Vec = Dpv_tensor.Vec
module Network = Dpv_nn.Network
module Init = Dpv_nn.Init
module Serialize = Dpv_nn.Serialize
module Dataset = Dpv_train.Dataset
module Trainer = Dpv_train.Trainer
module Optimizer = Dpv_train.Optimizer
module Loss = Dpv_train.Loss
module Generator = Dpv_scenario.Generator
module Camera = Dpv_scenario.Camera
module Affordance = Dpv_scenario.Affordance
module Scene = Dpv_scenario.Scene
module Property = Dpv_spec.Property
module Risk = Dpv_spec.Risk
module Linexpr = Dpv_spec.Linexpr
module Box_domain = Dpv_absint.Box_domain
module Propagate = Dpv_absint.Propagate

type architecture = Mlp | Cnn of int list

type setup = {
  scenario : Generator.config;
  seed : int;
  architecture : architecture;
  hidden : int list;
  perception_epochs : int;
  perception_lr : float;
  train_size : int;
  val_size : int;
  cut : int;
  characterizer_samples : int;
  bounds_samples : int;
}

let default_setup =
  {
    scenario = Generator.default_config;
    seed = 7;
    architecture = Mlp;
    hidden = [ 32; 16; 8 ];
    perception_epochs = 30;
    perception_lr = 2e-3;
    train_size = 1200;
    val_size = 300;
    cut = 9;
    characterizer_samples = 600;
    bounds_samples = 600;
  }

(* Final layouts after phase-2 BN insertion:
   MLP: (Dense BN ReLU)^h Dense            -> ReLU at 3, 6, ...
   CNN: (Conv ReLU)^c (Dense BN ReLU)^h Dense
                                            -> ReLU at 2,4,.. then 2c+3k *)
let cut_options setup =
  match setup.architecture with
  | Mlp -> List.rev (List.mapi (fun i _ -> 3 * (i + 1)) setup.hidden)
  | Cnn channels ->
      let conv_cuts = List.mapi (fun i _ -> 2 * (i + 1)) channels in
      let base = 2 * List.length channels in
      let head_cuts = List.mapi (fun i _ -> base + (3 * (i + 1))) setup.hidden in
      List.rev (conv_cuts @ head_cuts)

let relu_cuts net =
  Network.layers net
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter_map (fun (i, l) ->
         match l with
         | Dpv_nn.Layer.Relu -> Some i
         | Dpv_nn.Layer.Dense _ | Dpv_nn.Layer.Conv2d _
         | Dpv_nn.Layer.Batch_norm _ | Dpv_nn.Layer.Sigmoid
         | Dpv_nn.Layer.Tanh ->
             None)
  |> List.rev

let cnn_setup ?(channels = [ 4; 8 ]) ?(hidden = [ 16; 8 ]) setup =
  let setup = { setup with architecture = Cnn channels; hidden } in
  match cut_options setup with
  | deepest :: _ -> { setup with cut = deepest }
  | [] -> invalid_arg "Workflow.cnn_setup: no ReLU cuts"


type prepared = {
  setup : setup;
  perception : Network.t;
  final_train_loss : float;
  val_mae : float array;
  bounds_features : Vec.t array;
  bounds_images : Vec.t array;
}

let image_dim setup = Camera.input_dim setup.scenario.Generator.camera

let bounds_images_of setup =
  (* A dedicated stream so the "visited values" set is decoupled from the
     training batches, like logging activations while re-driving the
     collected footage. *)
  let rng = Rng.create (setup.seed + 104729) in
  Array.map snd (Generator.scenes_and_images setup.scenario rng ~n:setup.bounds_samples)

let finish_preparation setup perception ~final_train_loss ~val_mae =
  let bounds_images = bounds_images_of setup in
  let bounds_features =
    Characterizer.features ~perception ~cut:setup.cut bounds_images
  in
  { setup; perception; final_train_loss; val_mae; bounds_features; bounds_images }

let prepare ?(quiet = true) setup =
  let data_rng = Rng.create setup.seed in
  let init_rng = Rng.create (setup.seed + 1) in
  let train_rng = Rng.create (setup.seed + 2) in
  let dataset =
    Generator.affordance_dataset setup.scenario data_rng
      ~n:(setup.train_size + setup.val_size)
  in
  let train_set, val_set =
    Dataset.split data_rng dataset
      ~train_fraction:
        (float_of_int setup.train_size
        /. float_of_int (setup.train_size + setup.val_size))
  in
  (* Two-phase training.  Phase 1 trains the plain ReLU network (MLP or
     CNN), which converges cleanly.  Phase 2 inserts identity-calibrated
     batch-norm layers after the hidden Dense layers (statistics measured
     on the training frames) and fine-tunes, yielding the Dense-BN-ReLU
     close-to-output structure of the paper's network without fighting
     frozen-statistics BN from scratch. *)
  let perception =
    match setup.architecture with
    | Mlp ->
        Init.mlp init_rng ~input_dim:(image_dim setup) ~hidden:setup.hidden
          ~output_dim:Affordance.dim
    | Cnn channels ->
        let camera = setup.scenario.Generator.camera in
        Init.conv_net init_rng ~in_height:camera.Camera.height
          ~in_width:camera.Camera.width ~channels ~hidden:setup.hidden
          ~output_dim:Affordance.dim
  in
  let on_epoch ~epoch ~loss =
    if not quiet then
      Format.eprintf "[perception] epoch %d loss %.4f@." epoch loss
  in
  let phase1_epochs = Stdlib.max 1 (setup.perception_epochs * 2 / 3) in
  let phase2_epochs = Stdlib.max 1 (setup.perception_epochs - phase1_epochs) in
  let phase1_config =
    {
      Trainer.default_config with
      epochs = phase1_epochs;
      batch_size = 32;
      loss = Loss.Mse;
    }
  in
  let optimizer = Optimizer.adam ~lr:setup.perception_lr perception in
  let (_ : Trainer.history) =
    Trainer.fit ~on_epoch ~rng:train_rng phase1_config optimizer perception
      train_set
  in
  let perception =
    Trainer.insert_identity_batch_norm perception
      ~inputs:train_set.Dataset.inputs
  in
  let phase2_config =
    { phase1_config with epochs = phase2_epochs; bn_momentum = 0.02 }
  in
  let optimizer2 =
    Optimizer.adam ~lr:(setup.perception_lr /. 3.0) perception
  in
  let history =
    Trainer.fit ~on_epoch ~rng:train_rng phase2_config optimizer2 perception
      train_set
  in
  let final_train_loss = history.Trainer.epoch_losses.(phase2_epochs - 1) in
  let val_mae = Trainer.regression_mae perception val_set in
  finish_preparation setup perception ~final_train_loss ~val_mae

let setup_digest setup =
  let arch =
    match setup.architecture with
    | Mlp -> "mlp"
    | Cnn channels -> "cnn:" ^ String.concat "," (List.map string_of_int channels)
  in
  let s =
    Printf.sprintf "%s|%d|%s|%d|%g|%d|%d|%d|%d|%d|%d|%g|%g"
      arch setup.seed
      (String.concat "," (List.map string_of_int setup.hidden))
      setup.perception_epochs setup.perception_lr setup.train_size
      setup.val_size setup.cut setup.characterizer_samples
      setup.bounds_samples
      setup.scenario.Generator.camera.Camera.width
      (fst setup.scenario.Generator.curvature_range)
      (snd setup.scenario.Generator.curvature_range)
  in
  Digest.to_hex (Digest.string s)

(* [mkdir -p], tolerating a directory another process creates
   concurrently. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Write a fresh temporary file beside [path] and rename it over [path],
   so a reader, a concurrent writer or a crash sees the old entry or
   the whole new one, never a torn one.  The temporary file is created
   private; the entry gets the usual 0644. *)
let write_atomically path write =
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path)
      (Filename.basename path) ".tmp"
  in
  match
    write tmp;
    Unix.chmod tmp 0o644
  with
  | () -> Sys.rename tmp path
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let read_meta path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match
        String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "")
      with
      | loss :: maes ->
          (float_of_string loss, Array.of_list (List.map float_of_string maes))
      | [] -> failwith "Workflow: corrupt cache meta")

(* An entry that does not load whole, or whose network does not take
   this setup's images (the digest omits the camera height), is a
   miss. *)
let load_cached setup ~model_path ~meta_path =
  if not (Sys.file_exists model_path && Sys.file_exists meta_path) then None
  else
    match (Serialize.load ~path:model_path, read_meta meta_path) with
    | perception, (final_train_loss, val_mae)
      when Network.input_dim perception = image_dim setup ->
        Some (finish_preparation setup perception ~final_train_loss ~val_mae)
    | _ -> None
    | exception (Failure _ | Invalid_argument _ | End_of_file | Sys_error _) ->
        None

let prepare_cached ?(quiet = true) ~cache_dir setup =
  let digest = setup_digest setup in
  let model_path = Filename.concat cache_dir ("perception-" ^ digest ^ ".net") in
  let meta_path = Filename.concat cache_dir ("perception-" ^ digest ^ ".meta") in
  match load_cached setup ~model_path ~meta_path with
  | Some prepared -> prepared
  | None ->
      mkdir_p cache_dir;
      let prepared = prepare ~quiet setup in
      write_atomically model_path (fun path ->
          Serialize.save prepared.perception ~path);
      write_atomically meta_path (fun path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              Printf.fprintf oc "%h %s\n" prepared.final_train_loss
                (String.concat " "
                   (Array.to_list
                      (Array.map (Printf.sprintf "%h") prepared.val_mae)))));
      prepared

let features_at prepared ~cut =
  if cut = prepared.setup.cut then prepared.bounds_features
  else
    Characterizer.features ~perception:prepared.perception ~cut
      prepared.bounds_images

let psi_steer_far_left ?(threshold = 2.5) () =
  Risk.make ~name:(Printf.sprintf "steer-far-left(>=%g)" threshold)
    [ Risk.output_ge Affordance.waypoint_index threshold ]

let psi_steer_far_right ?(threshold = 2.5) () =
  Risk.make ~name:(Printf.sprintf "steer-far-right(<=%g)" (-.threshold))
    [ Risk.output_le Affordance.waypoint_index (-.threshold) ]

let psi_steer_straight ?(halfwidth = 0.5) () =
  Risk.make ~name:(Printf.sprintf "steer-straight(|w|<=%g)" halfwidth)
    (Risk.output_in_band Affordance.waypoint_index ~lo:(-.halfwidth)
       ~hi:halfwidth)

type strategy = Static of Propagate.domain | Data_box | Data_octagon

let strategy_name = function
  | Static d -> "static-" ^ Propagate.domain_name d
  | Data_box -> "data-box"
  | Data_octagon -> "data-octagon"

type case_report = {
  property_name : string;
  psi : Risk.t;
  strategy : strategy;
  characterizer : Characterizer.t;
  characterizer_report : Characterizer.train_report;
  characterizer_val_accuracy : float;
  result : Verify.result;
  table : Statistical.table;
  omitted_unsafe : int;
}

let image_box prepared =
  Box_domain.uniform ~dim:(image_dim prepared.setup) ~lo:0.0 ~hi:1.0

(* Characterizer data: balanced frames for the property, split 80/20 with
   the scene list kept aligned to the rows. *)
let characterizer_data prepared ~property =
  let rng =
    Rng.create (prepared.setup.seed + (7919 * Hashtbl.hash property.Property.name))
  in
  let dataset, _scenes =
    Generator.property_dataset prepared.setup.scenario rng
      ~n:prepared.setup.characterizer_samples ~property
  in
  let n = Dataset.size dataset in
  let n_train = Stdlib.max 1 (n * 4 / 5) in
  let images = dataset.Dataset.inputs in
  let labels = Array.map (fun t -> t.(0)) dataset.Dataset.targets in
  ( Array.sub images 0 n_train,
    Array.sub labels 0 n_train,
    Array.sub images n_train (n - n_train),
    Array.sub labels n_train (n - n_train),
    rng )

let train_characterizer ?config ?cut prepared ~property =
  let cut = Option.value cut ~default:prepared.setup.cut in
  let train_images, train_labels, val_images, val_labels, rng =
    characterizer_data prepared ~property
  in
  let characterizer, report =
    Characterizer.train ?config ~rng ~perception:prepared.perception ~cut
      ~property_name:property.Property.name ~images:train_images
      ~labels:train_labels ()
  in
  let val_accuracy =
    Characterizer.accuracy characterizer ~perception:prepared.perception
      ~images:val_images ~labels:val_labels
  in
  (characterizer, report, val_accuracy)

let bounds_spec_of prepared ~cut = function
  | Static domain -> Verify.Static_bounds (domain, image_box prepared)
  | Data_box -> Verify.Data_box (features_at prepared ~cut)
  | Data_octagon -> Verify.Data_octagon (features_at prepared ~cut)

let run_case ?characterizer_config ?milp_options ?cut ?absint ?bisect prepared
    ~property ~psi ~strategy =
  let cut = Option.value cut ~default:prepared.setup.cut in
  let train_images, train_labels, val_images, val_labels, rng =
    characterizer_data prepared ~property
  in
  let characterizer, characterizer_report =
    Characterizer.train ?config:characterizer_config ~rng
      ~perception:prepared.perception ~cut
      ~property_name:property.Property.name ~images:train_images
      ~labels:train_labels ()
  in
  let characterizer_val_accuracy =
    Characterizer.accuracy characterizer ~perception:prepared.perception
      ~images:val_images ~labels:val_labels
  in
  let bounds = bounds_spec_of prepared ~cut strategy in
  let result =
    Verify.verify ?milp_options ?absint ?bisect ~perception:prepared.perception
      ~characterizer ~psi ~bounds ()
  in
  let table =
    Statistical.estimate ~characterizer ~perception:prepared.perception
      ~images:val_images ~ground_truth:val_labels
  in
  let omitted_unsafe =
    Statistical.omitted_unsafe_count ~characterizer
      ~perception:prepared.perception ~psi ~images:val_images
      ~ground_truth:val_labels
  in
  {
    property_name = property.Property.name;
    psi;
    strategy;
    characterizer;
    characterizer_report;
    characterizer_val_accuracy;
    result;
    table;
    omitted_unsafe;
  }
