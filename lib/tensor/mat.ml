(* Row-major storage in a single flat array: element (i,j) lives at
   [i * cols + j]. *)

type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols x =
  assert (rows >= 0 && cols >= 0);
  { rows; cols; data = Array.make (rows * cols) x }

let zeros ~rows ~cols = create ~rows ~cols 0.0

let init ~rows ~cols f =
  {
    rows;
    cols;
    data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols));
  }

let identity n = init ~rows:n ~cols:n (fun i j -> if i = j then 1.0 else 0.0)

let of_rows rws =
  let rows = Array.length rws in
  if rows = 0 then invalid_arg "Mat.of_rows: no rows";
  let cols = Array.length rws.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> cols then invalid_arg "Mat.of_rows: ragged rows")
    rws;
  init ~rows ~cols (fun i j -> rws.(i).(j))

let rows m = m.rows
let cols m = m.cols

let get m i j =
  assert (i >= 0 && i < m.rows && j >= 0 && j < m.cols);
  m.data.((i * m.cols) + j)

let set m i j x =
  assert (i >= 0 && i < m.rows && j >= 0 && j < m.cols);
  m.data.((i * m.cols) + j) <- x

let row m i = Array.sub m.data (i * m.cols) m.cols
let to_rows m = Array.init m.rows (fun i -> row m i)

let transpose m = init ~rows:m.cols ~cols:m.rows (fun i j -> get m j i)

let check_same_shape a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Mat: shape mismatch"

let add a b =
  check_same_shape a b;
  { a with data = Array.map2 ( +. ) a.data b.data }

let matvec_into m x out =
  if Array.length x <> m.cols then
    invalid_arg
      (Printf.sprintf "Mat.matvec: %dx%d vs vector of %d" m.rows m.cols
         (Array.length x));
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let acc = ref 0.0 in
    for j = 0 to m.cols - 1 do
      acc := !acc +. (m.data.(base + j) *. x.(j))
    done;
    out.(i) <- !acc
  done

let matvec m x =
  let out = Array.make m.rows 0.0 in
  matvec_into m x out;
  out

let matvec_t_into m x out =
  if Array.length x <> m.rows then
    invalid_arg
      (Printf.sprintf "Mat.matvec_t: %dx%d vs vector of %d" m.rows m.cols
         (Array.length x));
  Array.fill out 0 m.cols 0.0;
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let xi = x.(i) in
    for j = 0 to m.cols - 1 do
      out.(j) <- out.(j) +. (m.data.(base + j) *. xi)
    done
  done

let matvec_t m x =
  let out = Array.make m.cols 0.0 in
  matvec_t_into m x out;
  out

let matmul a b =
  if a.cols <> b.rows then invalid_arg "Mat.matmul: inner dims differ";
  let out = zeros ~rows:a.rows ~cols:b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        let base_b = k * b.cols and base_o = i * b.cols in
        for j = 0 to b.cols - 1 do
          out.data.(base_o + j) <-
            out.data.(base_o + j) +. (aik *. b.data.(base_b + j))
        done
    done
  done;
  out

let outer x y =
  init ~rows:(Array.length x) ~cols:(Array.length y) (fun i j ->
      x.(i) *. y.(j))

let add_outer m x y =
  if Array.length x <> m.rows || Array.length y <> m.cols then
    invalid_arg "Mat.add_outer: shape mismatch";
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let xi = x.(i) in
    for j = 0 to m.cols - 1 do
      m.data.(base + j) <- m.data.(base + j) +. (xi *. y.(j))
    done
  done

let add_in_place a b =
  check_same_shape a b;
  for k = 0 to Array.length a.data - 1 do
    a.data.(k) <- a.data.(k) +. b.data.(k)
  done

let scale_in_place c m =
  for k = 0 to Array.length m.data - 1 do
    m.data.(k) <- c *. m.data.(k)
  done

let fill m x = Array.fill m.data 0 (Array.length m.data) x
let data m = m.data

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) a.data b.data
