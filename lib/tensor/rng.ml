(* SplitMix64.  State is a single 64-bit counter advanced by the golden
   gamma; output is finalized with the murmur-style mixer.  We keep one
   spare slot for a cached gaussian value (Box-Muller produces pairs). *)

type t = {
  mutable state : int64;
  mutable cached_gaussian : float option;
}

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let create seed = { state = mix64 (Int64.of_int seed); cached_gaussian = None }

let split t =
  let seed = next_int64 t in
  { state = mix64 seed; cached_gaussian = None }

(* Uniform float in [0,1) from the top 53 bits. *)
let unit_float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float t bound = unit_float t *. bound

let uniform t ~lo ~hi = lo +. (unit_float t *. (hi -. lo))

let int t bound =
  assert (bound > 0);
  (* Rejection-free for practical bounds: keep 62 bits so the value stays
     non-negative in OCaml's 63-bit native int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t ~p = unit_float t < p

let gaussian t =
  match t.cached_gaussian with
  | Some g ->
      t.cached_gaussian <- None;
      g
  | None ->
      (* Box-Muller; u1 is kept away from 0 to avoid log 0. *)
      let rec nonzero () =
        let u = unit_float t in
        if u > 1e-300 then u else nonzero ()
      in
      let u1 = nonzero () and u2 = unit_float t in
      let r = sqrt (-2.0 *. log u1) in
      let theta = 2.0 *. Float.pi *. u2 in
      t.cached_gaussian <- Some (r *. sin theta);
      r *. cos theta

let gaussian_scaled t ~mean ~std = mean +. (std *. gaussian t)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
