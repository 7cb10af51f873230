(* Column histograms over numeric data (Section 5.1.1).

   Three bucketizations from the paper:
   - equi-width: k ranges of equal value span;
   - equi-depth (equi-height): k ranges of (near-)equal row count;
   - compressed: frequent values in singleton buckets, equi-depth on the
     rest — effective for both high- and low-skew data ([52]).

   Within a bucket, values are assumed uniformly spread over the bucket's
   distinct values — the accuracy-relevant assumption discussed in 5.1.1. *)

type bucket = {
  lo : float; (* inclusive *)
  hi : float; (* inclusive *)
  count : float; (* rows with lo <= v <= hi *)
  distinct : float; (* distinct values inside *)
}

type t = {
  total : float; (* rows covered (non-null) *)
  singletons : (float * float) array; (* (value, frequency), sorted *)
  buckets : bucket array; (* disjoint, sorted by lo *)
}

let total t = t.total

let empty = { total = 0.; singletons = [||]; buckets = [||] }

(* Frequency table of a sorted array: (value, count) pairs. *)
let frequencies (sorted : float array) : (float * int) list =
  let n = Array.length sorted in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let v = sorted.(i) in
      let j = ref i in
      while !j < n && sorted.(!j) = v do incr j done;
      go !j ((v, !j - i) :: acc)
  in
  go 0 []

let bucket_of_freqs (fs : (float * int) list) : bucket option =
  match fs with
  | [] -> None
  | (v0, _) :: _ ->
    let hi, count, distinct =
      List.fold_left
        (fun (_, c, d) (v, k) -> (v, c + k, d + 1))
        (v0, 0, 0) fs
    in
    Some { lo = v0; hi; count = float_of_int count;
           distinct = float_of_int distinct }

let of_buckets buckets singletons =
  let total =
    Array.fold_left (fun acc b -> acc +. b.count) 0. buckets
    +. Array.fold_left (fun acc (_, c) -> acc +. c) 0. singletons
  in
  { total; singletons; buckets }

let build_equi_width ~buckets:k (values : float array) : t =
  if Array.length values = 0 then empty
  else begin
    let sorted = Array.copy values in
    Array.sort Float.compare sorted;
    let fs = frequencies sorted in
    let lo = sorted.(0) and hi = sorted.(Array.length sorted - 1) in
    let width = if hi > lo then (hi -. lo) /. float_of_int k else 1. in
    let bucket_index v =
      if width <= 0. then 0
      else min (k - 1) (int_of_float ((v -. lo) /. width))
    in
    let parts = Array.make k [] in
    List.iter (fun (v, c) -> let i = bucket_index v in parts.(i) <- (v, c) :: parts.(i)) fs;
    let bs =
      Array.to_list parts
      |> List.filter_map (fun part -> bucket_of_freqs (List.rev part))
      |> Array.of_list
    in
    of_buckets bs [||]
  end

let build_equi_depth ~buckets:k (values : float array) : t =
  if Array.length values = 0 then empty
  else begin
    let sorted = Array.copy values in
    Array.sort Float.compare sorted;
    let fs = frequencies sorted in
    let n = Array.length sorted in
    let target = max 1 (n / k) in
    (* greedy fill: close a bucket when it reaches the target depth; a single
       heavy value may overflow its bucket (values are never split) *)
    let rec fill cur cur_n acc = function
      | [] ->
        let acc = match bucket_of_freqs (List.rev cur) with
          | Some b -> b :: acc | None -> acc in
        List.rev acc
      | (v, c) :: rest ->
        if cur_n > 0 && cur_n + c > target then
          let acc = match bucket_of_freqs (List.rev cur) with
            | Some b -> b :: acc | None -> acc in
          fill [ (v, c) ] c acc rest
        else fill ((v, c) :: cur) (cur_n + c) acc rest
    in
    of_buckets (Array.of_list (fill [] 0 [] fs)) [||]
  end

let build_compressed ~buckets:k ~singletons:s (values : float array) : t =
  if Array.length values = 0 then empty
  else begin
    let sorted = Array.copy values in
    Array.sort Float.compare sorted;
    let fs = frequencies sorted in
    (* top-s most frequent values become singleton buckets *)
    let by_freq =
      List.sort (fun (_, a) (_, b) -> Stdlib.compare b a) fs
    in
    let rec take n = function
      | [] -> [] | x :: r -> if n = 0 then [] else x :: take (n - 1) r
    in
    let top = take s by_freq in
    let is_top v = List.exists (fun (w, _) -> w = v) top in
    let rest = List.filter (fun (v, _) -> not (is_top v)) fs in
    let rest_hist =
      build_equi_depth ~buckets:k
        (Array.of_list
           (List.concat_map (fun (v, c) -> List.init c (fun _ -> v)) rest))
    in
    let singles =
      List.map (fun (v, c) -> (v, float_of_int c)) top
      |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
      |> Array.of_list
    in
    of_buckets rest_hist.buckets singles
  end

(* ------------------------------------------------------------------ *)
(* Estimation *)

(* Fraction of the bucket's rows with value = v under uniform spread. *)
let bucket_eq_fraction b v =
  if v < b.lo || v > b.hi then 0.
  else if b.distinct <= 0. then 0.
  else b.count /. b.distinct

(* Rows with value in [lo_v, hi_v] inside bucket [b]: linear interpolation
   over the value span. *)
let bucket_range_rows b ~lo_v ~hi_v =
  let lo_v = max lo_v b.lo and hi_v = min hi_v b.hi in
  if hi_v < lo_v then 0.
  else if b.hi = b.lo then b.count
  else b.count *. ((hi_v -. lo_v) /. (b.hi -. b.lo))

(* Selectivity of [column = v]. *)
let est_eq t v =
  if t.total <= 0. then 0.
  else
    let s =
      match Array.find_opt (fun (w, _) -> w = v) t.singletons with
      | Some (_, c) -> c
      | None ->
        Array.fold_left (fun acc b -> acc +. bucket_eq_fraction b v) 0. t.buckets
    in
    s /. t.total

(* Selectivity of [lo <= column <= hi] (either side optional). *)
let est_range t ?lo ?hi () =
  if t.total <= 0. then 0.
  else
    let lo_v = Option.value lo ~default:neg_infinity in
    let hi_v = Option.value hi ~default:infinity in
    let from_buckets =
      Array.fold_left
        (fun acc b -> acc +. bucket_range_rows b ~lo_v ~hi_v)
        0. t.buckets
    in
    let from_singles =
      Array.fold_left
        (fun acc (v, c) -> if v >= lo_v && v <= hi_v then acc +. c else acc)
        0. t.singletons
    in
    min 1. ((from_buckets +. from_singles) /. t.total)

(* Histogram "join" (Section 5.1.3): align bucket boundaries of two
   histograms and estimate matching row pairs per aligned interval as
   (r1 * r2) / max(d1, d2) — the containment assumption.  Returns estimated
   join result rows (not selectivity).

   The merged boundary set is built once, by merging the two sides'
   sorted bounds ([merged_bounds]), and walked as a sweep: the
   intervals are [b_i, b_(i+1)) for consecutive bounds, each half-open
   (its top shrunk by a relative 1e-9) to halve double-counting at shared
   boundaries, plus a closing degenerate [b_last, b_last] — the only
   interval that keeps its top.  Per side, a monotone start pointer skips
   the range buckets and singletons that end below the current interval,
   and a scan stops at the first one starting above it, so each interval
   visits only the buckets that overlap it: linear in buckets plus bounds
   rather than their product.  Terms are added in the fixed order range
   buckets by index, then singletons by index, with row and distinct mass
   in separate accumulators, so the float sums do not depend on the sweep.
   The pointers need each side sorted by lower bound, which every
   constructor guarantees, and finite bounds; otherwise every bucket is
   scanned for every interval, with the same terms. *)

(* [Stdlib.max]/[Stdlib.min] at type float — the same comparison, so the
   same NaN and signed-zero behaviour — without the polymorphic compare. *)
let max_f (x : float) y = if x >= y then x else y
let min_f (x : float) y = if x <= y then x else y

(* Row and distinct mass of one side inside the current interval. *)
type mass = { mutable rows : float; mutable dist : float }

(* Add bucket [lo, hi]'s share of [lo_v, hi_v] to [m].  Like
   [bucket_range_rows], except a single-point overlap with a range bucket
   contributes that bucket's per-distinct mass rather than the
   measure-zero continuous answer.  Such overlaps arise exactly when the
   other histogram has a point bucket sitting on this bucket's edge —
   returning 0 there would estimate 0 join rows for a value the
   histograms both provably contain. *)
let[@inline] add_overlap m ~lo_v ~hi_v ~lo ~hi ~count ~distinct =
  let olo = Float.max lo_v lo and ohi = Float.min hi_v hi in
  if ohi < olo then ()
  else if hi = lo then m.rows <- m.rows +. count
  else if ohi = olo then m.rows <- m.rows +. (count /. Float.max 1. distinct)
  else m.rows <- m.rows +. (count *. ((ohi -. olo) /. (hi -. lo)));
  let overlap_lo = max_f lo_v lo and overlap_hi = min_f hi_v hi in
  if overlap_hi < overlap_lo then ()
  else if hi = lo then m.dist <- m.dist +. distinct
  else if overlap_hi = overlap_lo then m.dist <- m.dist +. 1.
  else
    m.dist <-
      m.dist +. (distinct *. ((overlap_hi -. overlap_lo) /. (hi -. lo)))

let sorted_by_lo t =
  let sorted lo a =
    let ok = ref true in
    for i = 1 to Array.length a - 1 do
      if not (lo a.(i - 1) <= lo a.(i)) then ok := false
    done;
    !ok
  in
  sorted (fun b -> b.lo) t.buckets && sorted fst t.singletons

(* One side's sweep state: the first range bucket and the first singleton
   that may still overlap an interval. *)
type cursor = { mutable b0 : int; mutable s0 : int }

(* Accumulate [t]'s mass inside [lo_v, hi_v] into [m] (reset first).
   Inlined: a call would box both bounds, twice per interval. *)
let[@inline] side_mass ~ordered t c m ~lo_v ~hi_v =
  m.rows <- 0.;
  m.dist <- 0.;
  let bs = t.buckets and ss = t.singletons in
  let nb = Array.length bs and ns = Array.length ss in
  if ordered then begin
    while c.b0 < nb && bs.(c.b0).hi < lo_v do c.b0 <- c.b0 + 1 done;
    while c.s0 < ns && fst ss.(c.s0) < lo_v do c.s0 <- c.s0 + 1 done
  end;
  let j = ref c.b0 in
  while !j < nb && ((not ordered) || bs.(!j).lo <= hi_v) do
    let bk = bs.(!j) in
    add_overlap m ~lo_v ~hi_v ~lo:bk.lo ~hi:bk.hi ~count:bk.count
      ~distinct:bk.distinct;
    incr j
  done;
  let j = ref c.s0 in
  while !j < ns && ((not ordered) || fst ss.(!j) <= hi_v) do
    let v, count = ss.(!j) in
    add_overlap m ~lo_v ~hi_v ~lo:v ~hi:v ~count ~distinct:1.;
    incr j
  done

(* The merged boundary set, sorted and deduplicated under [Float.compare]:
   a's buckets, a's singletons, then b's, in the order the bounds have
   always been sorted in, so [sort_uniq] keeps the same one of two equal
   bounds (0. and -0.). *)
let sorted_bounds a b =
  let bounds_of t acc =
    Array.fold_right
      (fun bk acc -> bk.lo :: bk.hi :: acc)
      t.buckets
      (Array.fold_right (fun (v, _) acc -> v :: v :: acc) t.singletons acc)
  in
  Array.of_list (List.sort_uniq Float.compare (bounds_of a (bounds_of b [])))

(* The same bounds, as the first [n] slots of the returned array, by
   merging four already-sorted sequences — each side's bucket bounds (lo,
   hi, lo, hi, ...) and its singleton values — with no list and no sort.
   Every constructor's histogram qualifies.  Raises [Exit] when a
   sequence is out of order (the merged output would step down), holds a
   NaN, or when two equal bounds differ in their bits (0. and -0.): which
   one [sort_uniq] keeps depends on its merge tree, so those inputs take
   [sorted_bounds]. *)
let merged_bounds a b =
  let ba = a.buckets and sa = a.singletons
  and bb = b.buckets and sb = b.singletons in
  let na = 2 * Array.length ba and nsa = Array.length sa
  and nb = 2 * Array.length bb and nsb = Array.length sb in
  let out = Array.create_float (na + nsa + nb + nsb) in
  let n = ref 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 and l = ref 0 in
  while !i < na || !j < nsa || !k < nb || !l < nsb do
    (* the least head; a tie goes to the earlier sequence, though an
       accepted tie has equal bits and so either would do *)
    let src = ref 0 and v = ref 0. in
    if !i < na then begin
      let bk = ba.(!i lsr 1) in
      src := 1;
      v := if !i land 1 = 0 then bk.lo else bk.hi
    end;
    if !j < nsa then begin
      let x = fst sa.(!j) in
      if !src = 0 || x < !v then begin
        src := 2;
        v := x
      end
    end;
    if !k < nb then begin
      let bk = bb.(!k lsr 1) in
      let x = if !k land 1 = 0 then bk.lo else bk.hi in
      if !src = 0 || x < !v then begin
        src := 3;
        v := x
      end
    end;
    if !l < nsb then begin
      let x = fst sb.(!l) in
      if !src = 0 || x < !v then begin
        src := 4;
        v := x
      end
    end;
    (match !src with
     | 1 -> incr i
     | 2 -> incr j
     | 3 -> incr k
     | _ -> incr l);
    let v = !v in
    (* with NaN ruled out, [<] and [=] order as [Float.compare] does *)
    if Float.is_nan v then raise Exit;
    if !n = 0 || out.(!n - 1) < v then begin
      out.(!n) <- v;
      incr n
    end
    else if out.(!n - 1) > v then raise Exit
    else if
      not
        (Int64.equal (Int64.bits_of_float out.(!n - 1)) (Int64.bits_of_float v))
    then raise Exit
  done;
  (out, !n)

let join_rows (a : t) (b : t) : float =
  let bounds, n =
    try merged_bounds a b
    with Exit ->
      let bounds = sorted_bounds a b in
      (bounds, Array.length bounds)
  in
  (* the pointers also need finite bounds: a shrunk +infinity is NaN,
     which no comparison can stop at ([Float.compare] sorts NaN first) *)
  let ordered =
    n > 0
    && Float.is_finite bounds.(0)
    && Float.is_finite bounds.(n - 1)
    && sorted_by_lo a && sorted_by_lo b
  in
  let ca = { b0 = 0; s0 = 0 } and cb = { b0 = 0; s0 = 0 } in
  let ma = { rows = 0.; dist = 0. } and mb = { rows = 0.; dist = 0. } in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let lo_v = bounds.(i) in
    let hi_v =
      if i = n - 1 then lo_v
      else
        let hi = bounds.(i + 1) in
        hi -. (1e-9 *. (1. +. Float.abs hi))
    in
    side_mass ~ordered a ca ma ~lo_v ~hi_v;
    side_mass ~ordered b cb mb ~lo_v ~hi_v;
    let d = max_f ma.dist mb.dist in
    if d > 0. then acc := !acc +. (ma.rows *. mb.rows /. d)
  done;
  !acc

(* Per-query memo of [join_rows], keyed on the physical identity of the
   two histograms.  Histograms are immutable and statistics propagation
   carries them through unchanged, so within one query each join edge's
   value is a constant; a query has few edges, so a list is the table. *)
type join_memo = {
  mutable pairs : (t * t * float) list;
  mutable hits : int;
}

let join_memo () = { pairs = []; hits = 0 }

let join_rows_memo m a b =
  let rec find = function
    | [] ->
      let r = join_rows a b in
      m.pairs <- (a, b, r) :: m.pairs;
      r
    | (a', b', r) :: rest ->
      if a' == a && b' == b then begin
        m.hits <- m.hits + 1;
        r
      end
      else find rest
  in
  find m.pairs

let join_memo_stats m = (m.hits, List.length m.pairs)

let bucket_count t = Array.length t.buckets + Array.length t.singletons

let pp ppf t =
  Fmt.pf ppf "@[<v>hist total=%.0f@,singletons: %a@,%a@]" t.total
    Fmt.(array ~sep:(any ", ") (fun ppf (v, c) -> Fmt.pf ppf "%g:%g" v c))
    t.singletons
    Fmt.(array ~sep:cut (fun ppf b ->
        Fmt.pf ppf "  [%g, %g] count=%g distinct=%g" b.lo b.hi b.count b.distinct))
    t.buckets
