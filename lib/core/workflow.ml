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


type cache = { cache_dir : string; perception_key : string }

type prepared = {
  setup : setup;
  perception : Network.t;
  final_train_loss : float;
  val_mae : float array;
  bounds_features : Vec.t array;
  bounds_images : Vec.t array;
  cache : cache option;
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
  {
    setup;
    perception;
    final_train_loss;
    val_mae;
    bounds_features;
    bounds_images;
    cache = None;
  }

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
let write_atomically path contents =
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path)
      (Filename.basename path) ".tmp"
  in
  match
    Out_channel.with_open_bin tmp (fun oc -> output_string oc contents);
    Unix.chmod tmp 0o644
  with
  | () -> Sys.rename tmp path
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_fields path =
  In_channel.with_open_bin path (fun ic ->
      match In_channel.input_line ic with
      | Some line -> String.split_on_char ' ' line |> List.filter (( <> ) "")
      | None -> [])

let meta_line fields = String.concat " " fields ^ "\n"
let hex = Printf.sprintf "%h"

(* A model-cache entry is two files: [<name>.net], a network in the
   [Serialize] format, and [<name>.meta], one line of fields.  [decode]
   turns their contents into a value, or [None] when the entry does not
   fit the caller.  An entry that is missing, does not load whole or
   does not fit is a miss: [build] makes the value and the two texts
   that are written over the entry.  A cache that cannot be written
   (read-only, as a shared one may be, or full) costs only the rebuild:
   the value is returned all the same. *)
let load_or_build ~cache_dir ~name ~decode ~build =
  let net_path = Filename.concat cache_dir (name ^ ".net") in
  let meta_path = Filename.concat cache_dir (name ^ ".meta") in
  let hit =
    try decode ~net:(read_file net_path) ~meta:(read_fields meta_path)
    with Failure _ | Invalid_argument _ | End_of_file | Sys_error _ -> None
  in
  match hit with
  | Some value -> value
  | None ->
      let value, net, meta = build () in
      (try
         mkdir_p cache_dir;
         write_atomically net_path net;
         write_atomically meta_path meta
       with Sys_error _ | Unix.Unix_error _ -> ());
      value

(* The perception key is the digest of the entry's network text, which
   is what a characterizer trained on this pipeline depends on. *)
let prepare_cached ?(quiet = true) ~cache_dir setup =
  let with_cache net prepared =
    {
      prepared with
      cache =
        Some { cache_dir; perception_key = Digest.to_hex (Digest.string net) };
    }
  in
  (* A network that does not take this setup's images is a miss: the
     key omits the camera height. *)
  load_or_build ~cache_dir
    ~name:("perception-" ^ setup_digest setup)
    ~decode:(fun ~net ~meta ->
      let perception = Serialize.of_string net in
      match meta with
      | loss :: maes when Network.input_dim perception = image_dim setup ->
          Some
            (with_cache net
               (finish_preparation setup perception
                  ~final_train_loss:(float_of_string loss)
                  ~val_mae:(Array.of_list (List.map float_of_string maes))))
      | _ -> None)
    ~build:(fun () ->
      let prepared = prepare ~quiet setup in
      let net = Serialize.to_string prepared.perception in
      ( with_cache net prepared,
        net,
        meta_line
          (List.map hex
             (prepared.final_train_loss :: Array.to_list prepared.val_mae)) ))

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

(* Bump when a change to characterizer training moves the bits it
   produces (the golden digests in test/test_train.ml flag one), so
   that heads cached by older code miss. *)
let characterizer_format = 1

(* Everything training reads: the perception network, the scenario and
   the seed and sample count that draw the frames, the cut, the
   property and the resolved training config.  Marshal covers every
   field of the two configs, including fields added later. *)
let characterizer_key cache setup ~config ~cut ~property_name =
  Marshal.to_string
    ( characterizer_format,
      cache.perception_key,
      setup.scenario,
      setup.seed,
      setup.characterizer_samples,
      cut,
      property_name,
      (config : Characterizer.train_config) )
    [ Marshal.No_sharing ]
  |> Digest.string |> Digest.to_hex

let train_characterizer ?config ?cut prepared ~property =
  let cut = Option.value cut ~default:prepared.setup.cut in
  let property_name = property.Property.name in
  let train () =
    let train_images, train_labels, val_images, val_labels, rng =
      characterizer_data prepared ~property
    in
    let characterizer, report =
      Characterizer.train ?config ~rng ~perception:prepared.perception ~cut
        ~property_name ~images:train_images ~labels:train_labels ()
    in
    let val_accuracy =
      Characterizer.accuracy characterizer ~perception:prepared.perception
        ~images:val_images ~labels:val_labels
    in
    (characterizer, report, val_accuracy)
  in
  match prepared.cache with
  | None -> train ()
  | Some cache ->
      let config =
        Option.value config ~default:Characterizer.default_train_config
      in
      (* A head that does not read the perception's features at [cut], or
         that is not one logit, is a miss. *)
      load_or_build ~cache_dir:cache.cache_dir
        ~name:
          ("characterizer-"
          ^ characterizer_key cache prepared.setup ~config ~cut ~property_name)
        ~decode:(fun ~net ~meta ->
          let head = Serialize.of_string net in
          match meta with
          | [ train_accuracy; final_loss; epochs_run; perfect; val_accuracy ]
            when Network.input_dim head = (Network.dims prepared.perception).(cut)
                 && Network.output_dim head = 1 ->
              Some
                ( { Characterizer.head; cut; property_name },
                  {
                    Characterizer.train_accuracy = float_of_string train_accuracy;
                    final_loss = float_of_string final_loss;
                    epochs_run = int_of_string epochs_run;
                    perfect_on_train = bool_of_string perfect;
                  },
                  float_of_string val_accuracy )
          | _ -> None)
        ~build:(fun () ->
          let ((characterizer, report, val_accuracy) as trained) = train () in
          ( trained,
            Serialize.to_string characterizer.Characterizer.head,
            meta_line
              [
                hex report.Characterizer.train_accuracy;
                hex report.final_loss;
                string_of_int report.epochs_run;
                string_of_bool report.perfect_on_train;
                hex val_accuracy;
              ] ))

let bounds_spec_of prepared ~cut = function
  | Static domain -> Verify.Static_bounds (domain, image_box prepared)
  | Data_box -> Verify.Data_box (features_at prepared ~cut)
  | Data_octagon -> Verify.Data_octagon (features_at prepared ~cut)

let run_case ?characterizer_config ?milp_options ?cut ?absint ?bisect prepared
    ~property ~psi ~strategy =
  let cut = Option.value cut ~default:prepared.setup.cut in
  let characterizer, characterizer_report, characterizer_val_accuracy =
    train_characterizer ?config:characterizer_config ~cut prepared ~property
  in
  let _, _, val_images, val_labels, _ = characterizer_data prepared ~property in
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
