(* Two-dimensional histograms (Section 5.1.1, [45,51]): the joint
   distribution of a column pair, capturing exactly the correlations the
   single-column independence assumption misses (experiment E10).

   Bucketization follows Muralikrishna/DeWitt's equi-depth approach: each
   dimension is cut at its equi-depth quantiles, and the grid cell counts
   record the joint frequency.  Estimation assumes uniform spread within a
   cell. *)

type t = {
  x_bounds : float array; (* kx+1 ascending cut points *)
  y_bounds : float array; (* ky+1 *)
  counts : float array array; (* kx x ky cell counts *)
  total : float;
}

(* Equi-depth cut points: k+1 bounds covering the sorted data. *)
let quantile_bounds ~k (values : float array) : float array =
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  Array.init (k + 1) (fun i ->
      if i = 0 then sorted.(0)
      else if i = k then sorted.(n - 1)
      else sorted.(i * n / k))

(* Cell index of [v] in [bounds] (clamped). *)
let cell_of bounds v =
  let k = Array.length bounds - 1 in
  let rec go i =
    if i >= k - 1 then k - 1
    else if v < bounds.(i + 1) then i
    else go (i + 1)
  in
  if v <= bounds.(0) then 0 else go 0

let build ?(buckets = 10) (xs : float array) (ys : float array) : t =
  if Array.length xs <> Array.length ys then
    invalid_arg "Histogram2d.build: length mismatch";
  if Array.length xs = 0 then
    { x_bounds = [| 0.; 0. |]; y_bounds = [| 0.; 0. |];
      counts = [| [| 0. |] |]; total = 0. }
  else begin
    let k = max 1 buckets in
    let x_bounds = quantile_bounds ~k xs in
    let y_bounds = quantile_bounds ~k ys in
    let counts = Array.make_matrix k k 0. in
    Array.iteri
      (fun i x ->
         let cx = cell_of x_bounds x and cy = cell_of y_bounds ys.(i) in
         counts.(cx).(cy) <- counts.(cx).(cy) +. 1.)
      xs;
    { x_bounds; y_bounds; counts; total = float_of_int (Array.length xs) }
  end

(* Fraction of cell [i] of [bounds] overlapping [lo, hi], by linear
   interpolation; a degenerate cell counts fully when inside the range. *)
let overlap bounds i ~lo ~hi =
  let clo = bounds.(i) and chi = bounds.(i + 1) in
  if chi < lo || clo > hi then 0.
  else if chi = clo then 1.
  else
    let from = Float.max lo clo and till = Float.min hi chi in
    Float.max 0. ((till -. from) /. (chi -. clo))

(* Selectivity of [xlo <= X <= xhi AND ylo <= Y <= yhi] (bounds optional). *)
let est_range t ?(xlo = neg_infinity) ?(xhi = infinity) ?(ylo = neg_infinity)
    ?(yhi = infinity) () : float =
  if t.total <= 0. then 0.
  else begin
    let kx = Array.length t.x_bounds - 1 in
    let ky = Array.length t.y_bounds - 1 in
    let acc = ref 0. in
    for i = 0 to kx - 1 do
      let fx = overlap t.x_bounds i ~lo:xlo ~hi:xhi in
      if fx > 0. then
        for j = 0 to ky - 1 do
          let fy = overlap t.y_bounds j ~lo:ylo ~hi:yhi in
          if fy > 0. then acc := !acc +. (t.counts.(i).(j) *. fx *. fy)
        done
    done;
    Float.min 1. (!acc /. t.total)
  end
