(* Global always-on registry.  Registration (the [counter]/[gauge]/
   [histogram] constructors) happens once per metric at module-init
   time under a mutex; the hot-path operations ([incr], [observe],
   [set_max]) are single atomic read-modify-writes on preallocated
   cells — no allocation, no locking, no formatting. *)

type counter = { c_name : string; c_cell : int Atomic.t }

(* Two gauge kinds share one cell layout but mean different things
   across processes: a high-water mark can be maxed when shard
   snapshots merge, while a sampled rate is only meaningful in the
   process that computed it — summing (or maxing) rates from
   sequentially-run shards fabricates throughput that never existed.
   The kind rides the snapshot and the JSON so downstream mergers can
   tell them apart. *)
type gauge_kind = High_water | Sampled

type gauge = { g_name : string; g_kind : gauge_kind; g_cell : int Atomic.t }

(* Log2 buckets over nanoseconds: bucket [i] counts observations v with
   2^(i-1) < v <= 2^i (bucket 0 catches <= 1 ns).  63 buckets cover the
   whole non-negative int range, so no observation is ever dropped. *)
let n_buckets = 63

type histogram = {
  h_name : string;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_buckets : int Atomic.t array;
}

let registry_lock = Mutex.create ()
let counters : counter list ref = ref []
let gauges : gauge list ref = ref []
let histograms : histogram list ref = ref []

let registered find add name =
  Mutex.protect registry_lock (fun () ->
      match find name with Some x -> x | None -> add name)

let counter name =
  registered
    (fun n -> List.find_opt (fun c -> c.c_name = n) !counters)
    (fun n ->
      let c = { c_name = n; c_cell = Atomic.make 0 } in
      counters := c :: !counters;
      c)
    name

let gauge_of_kind kind name =
  registered
    (fun n -> List.find_opt (fun g -> g.g_name = n) !gauges)
    (fun n ->
      let g = { g_name = n; g_kind = kind; g_cell = Atomic.make 0 } in
      gauges := g :: !gauges;
      g)
    name

let gauge name = gauge_of_kind High_water name
let sample name = gauge_of_kind Sampled name

let histogram name =
  registered
    (fun n -> List.find_opt (fun h -> h.h_name = n) !histograms)
    (fun n ->
      let h =
        {
          h_name = n;
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0;
          h_buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
        }
      in
      histograms := h :: !histograms;
      h)
    name

let incr c n = ignore (Atomic.fetch_and_add c.c_cell n)
let counter_value c = Atomic.get c.c_cell

(* Monotonic high-water mark: campaigns want "the deepest the queue
   ever got", not a last-writer-wins sample. *)
let set_max g v =
  let rec go () =
    let prev = Atomic.get g.g_cell in
    if v <= prev then ()
    else if Atomic.compare_and_set g.g_cell prev v then ()
    else go ()
  in
  go ()

let gauge_value g = Atomic.get g.g_cell

(* Last-writer-wins sample, for gauges fed by the background sampler
   (queue depth right now, jobs in system right now).  Stored in
   milli-units so every [snap_rates] value — point sample or windowed
   rate — shares one convention and renderers divide by 1000 once. *)
let set g v = Atomic.set g.g_cell (v * 1000)

(* ---------------- rolling-window rate gauges ---------------- *)

(* A rate gauge turns a cumulative series (a counter's value, GC minor
   words) into events-per-second over a rolling window.  [tick] is
   called off the hot path — by the sampler domain, on its own clock —
   so a plain mutex-guarded deque of (ts, cumulative) samples is fine.
   The published value is milli-events/second: integer gauges cannot
   carry fractions and per-second rates of slow counters would round
   to zero. *)
type rate = {
  r_gauge : gauge;
  r_window_ns : int;
  r_lock : Mutex.t;
  mutable r_samples : (int * int) list;  (* (now_ns, cumulative), newest first *)
}

let rate ?(window_s = 10.0) name =
  {
    r_gauge = sample name;
    r_window_ns = int_of_float (window_s *. 1e9);
    r_lock = Mutex.create ();
    r_samples = [];
  }

let rate_tick r ~now_ns cumulative =
  Mutex.protect r.r_lock (fun () ->
      (* Keep everything inside the window plus one older sample as the
         baseline, so a freshly-full window still spans ~window_s. *)
      let rec trim = function
        | a :: (b :: _ as rest) when now_ns - fst b > r.r_window_ns ->
            ignore a;
            trim rest
        | kept -> kept
      in
      r.r_samples <- (now_ns, cumulative) :: r.r_samples;
      r.r_samples <- List.rev (trim (List.rev r.r_samples));
      match (r.r_samples, List.rev r.r_samples) with
      | (t1, v1) :: _, (t0, v0) :: _ when t1 > t0 ->
          let per_s = float_of_int (v1 - v0) *. 1e9 /. float_of_int (t1 - t0) in
          Atomic.set r.r_gauge.g_cell
            (int_of_float (Float.max 0.0 (per_s *. 1000.0)))
      | _ -> ())

let rate_value r = Atomic.get r.r_gauge.g_cell

let bucket_index v =
  if v <= 1 then 0
  else begin
    (* Position of the highest set bit = ceil(log2) for powers of two,
       floor+1 otherwise — exactly the (2^(i-1), 2^i] bucket. *)
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    Stdlib.min (n_buckets - 1) (bits 0 (v - 1))
  end

let observe h v =
  let v = Stdlib.max 0 v in
  ignore (Atomic.fetch_and_add h.h_count 1);
  ignore (Atomic.fetch_and_add h.h_sum v);
  ignore (Atomic.fetch_and_add h.h_buckets.(bucket_index v) 1)

let bucket_upper i = if i >= 62 then max_int else 1 lsl i

(* ---------------- snapshots ---------------- *)

type hist_snapshot = {
  count : int;
  sum : int;
  buckets : (int * int) list;  (* (upper bound inclusive, count), nonzero *)
}

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * int) list;     (* high-water gauges only *)
  snap_rates : (string * int) list;      (* sampled gauges (milli-units) *)
  snap_histograms : (string * hist_snapshot) list;
}

let by_name (a, _) (b, _) = compare (a : string) b

let snapshot () =
  Mutex.protect registry_lock (fun () ->
      let of_kind k =
        List.filter_map
          (fun g ->
            if g.g_kind = k then Some (g.g_name, Atomic.get g.g_cell) else None)
          !gauges
      in
      {
        snap_counters =
          List.sort by_name
            (List.map (fun c -> (c.c_name, Atomic.get c.c_cell)) !counters);
        snap_gauges = List.sort by_name (of_kind High_water);
        snap_rates = List.sort by_name (of_kind Sampled);
        snap_histograms =
          List.sort by_name
            (List.map
               (fun h ->
                 let buckets = ref [] in
                 Array.iteri
                   (fun i b ->
                     let n = Atomic.get b in
                     if n > 0 then buckets := (bucket_upper i, n) :: !buckets)
                   h.h_buckets;
                 ( h.h_name,
                   {
                     count = Atomic.get h.h_count;
                     sum = Atomic.get h.h_sum;
                     buckets = List.rev !buckets;
                   } ))
               !histograms);
      })

(* What happened between two snapshots of the same process.  Counters
   and histogram totals subtract (a metric absent at [before] counts
   from zero); gauges are high-water marks (and rates are point
   samples), for which subtraction is meaningless, so the [after]
   value is reported for both. *)
let since ~before after =
  let base l name = Option.value (List.assoc_opt name l) ~default:0 in
  let sub_buckets before_b after_b =
    List.filter_map
      (fun (up, n) ->
        let d = n - Option.value (List.assoc_opt up before_b) ~default:0 in
        if d > 0 then Some (up, d) else None)
      after_b
  in
  {
    snap_counters =
      List.map
        (fun (name, v) -> (name, v - base before.snap_counters name))
        after.snap_counters;
    snap_gauges = after.snap_gauges;
    snap_rates = after.snap_rates;
    snap_histograms =
      List.map
        (fun (name, h) ->
          match List.assoc_opt name before.snap_histograms with
          | None -> (name, h)
          | Some hb ->
              ( name,
                {
                  count = h.count - hb.count;
                  sum = h.sum - hb.sum;
                  buckets = sub_buckets hb.buckets h.buckets;
                } ))
        after.snap_histograms;
  }

let empty_snapshot =
  { snap_counters = []; snap_gauges = []; snap_rates = []; snap_histograms = [] }

(* Combine snapshots from different processes — campaign shards whose
   journals are being merged into one report.  Counters and histogram
   totals add (the shards did disjoint work), gauges take the max (a
   high-water mark across processes is the highest any of them saw),
   and histogram buckets merge bucket-wise.  Both inputs keep their
   name-sorted invariant, so the result does too. *)
let merge a b =
  let rec merge_assoc combine xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | (xn, xv) :: xrest, (yn, yv) :: yrest ->
        let c = compare (xn : string) yn in
        if c < 0 then (xn, xv) :: merge_assoc combine xrest ys
        else if c > 0 then (yn, yv) :: merge_assoc combine xs yrest
        else (xn, combine xv yv) :: merge_assoc combine xrest yrest
  in
  let rec merge_buckets xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | (xu, xn) :: xrest, (yu, yn) :: yrest ->
        if xu < yu then (xu, xn) :: merge_buckets xrest ys
        else if xu > yu then (yu, yn) :: merge_buckets xs yrest
        else (xu, xn + yn) :: merge_buckets xrest yrest
  in
  {
    snap_counters = merge_assoc ( + ) a.snap_counters b.snap_counters;
    snap_gauges = merge_assoc Stdlib.max a.snap_gauges b.snap_gauges;
    (* Rates never sum: shards usually ran sequentially, so adding
       their throughputs would fabricate parallelism.  Max is the
       conservative "highest rate any shard sustained". *)
    snap_rates = merge_assoc Stdlib.max a.snap_rates b.snap_rates;
    snap_histograms =
      merge_assoc
        (fun x y ->
          {
            count = x.count + y.count;
            sum = x.sum + y.sum;
            buckets = merge_buckets x.buckets y.buckets;
          })
        a.snap_histograms b.snap_histograms;
  }

let counter_in snap name = List.assoc_opt name snap.snap_counters
let gauge_in snap name = List.assoc_opt name snap.snap_gauges
let rate_in snap name = List.assoc_opt name snap.snap_rates
let histogram_in snap name = List.assoc_opt name snap.snap_histograms

(* ---------------- quantile estimation ---------------- *)

(* A quantile estimated from the log2 buckets: find the bucket holding
   the target rank and interpolate linearly inside it.  The log2
   resolution bounds the error — the estimate lands in the same bucket
   as the true sample, i.e. within a factor of 2.  The rank convention
   matches {!Dpv_tensor.Stats.quantile} ([q * (count - 1)], linear in
   the rank) so the two agree exactly on the endpoints. *)
let quantile_of_hist h ~q =
  if q < 0.0 || q > 1.0 then
    invalid_arg "Metrics.quantile_of_hist: q must be in [0, 1]";
  if h.count = 0 then 0.0
  else begin
    let target = (q *. float_of_int (h.count - 1)) +. 1.0 in
    let rec walk cum = function
      | [] -> 0.0 (* unreachable for a consistent snapshot *)
      | (upper, n) :: rest ->
          if float_of_int (cum + n) < target then walk (cum + n) rest
          else begin
            let lo =
              if upper = max_int then float_of_int (1 lsl 62)
              else if upper <= 1 then 0.0
              else float_of_int (upper / 2)
            in
            if upper = max_int then lo
            else
              let hi = float_of_int upper in
              let frac = (target -. float_of_int cum) /. float_of_int n in
              lo +. (frac *. (hi -. lo))
          end
    in
    walk 0 h.buckets
  end

(* ---------------- dpv-metrics/1 JSON ---------------- *)

let buf_obj b ~indent entries emit =
  Buffer.add_char b '{';
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n%s    " indent;
      emit e)
    entries;
  if entries <> [] then Printf.bprintf b "\n%s  " indent;
  Buffer.add_char b '}'

let buf_snapshot ?(indent = "") b snap =
  Printf.bprintf b "{\n%s  \"schema\": \"dpv-metrics/1\",\n" indent;
  Printf.bprintf b "%s  \"counters\": " indent;
  buf_obj b ~indent snap.snap_counters (fun (name, v) ->
      Printf.bprintf b "%S: %d" name v);
  Printf.bprintf b ",\n%s  \"gauges\": " indent;
  buf_obj b ~indent snap.snap_gauges (fun (name, v) ->
      Printf.bprintf b "%S: %d" name v);
  (* Sampled rate gauges live under their own key so shard-merging
     consumers cannot mistake them for summable or maxable-as-depth
     values; histograms additionally carry derived percentiles. *)
  Printf.bprintf b ",\n%s  \"rates\": " indent;
  buf_obj b ~indent snap.snap_rates (fun (name, v) ->
      Printf.bprintf b "%S: %d" name v);
  Printf.bprintf b ",\n%s  \"histograms\": " indent;
  buf_obj b ~indent snap.snap_histograms (fun (name, h) ->
      Printf.bprintf b "%S: {\"count\": %d, \"sum_ns\": %d" name h.count h.sum;
      if h.count > 0 then
        Printf.bprintf b ", \"p50_ns\": %.0f, \"p90_ns\": %.0f, \"p99_ns\": %.0f"
          (quantile_of_hist h ~q:0.5)
          (quantile_of_hist h ~q:0.9)
          (quantile_of_hist h ~q:0.99);
      Buffer.add_string b ", \"buckets\": [";
      List.iteri
        (fun i (up, n) ->
          if i > 0 then Buffer.add_string b ", ";
          Printf.bprintf b "[%d, %d]" up n)
        h.buckets;
      Buffer.add_string b "]}");
  Printf.bprintf b "\n%s}" indent

let to_json ?indent snap =
  let b = Buffer.create 1024 in
  buf_snapshot ?indent b snap;
  Buffer.contents b

let save_json snap ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json snap);
      output_char oc '\n')
