(* Propagation of statistical summaries through operators (Section 5.1.3)
   and predicate selectivity estimation.

   A [rel_stats] is the statistical summary of one data stream: estimated
   cardinality plus per-column statistics keyed by (alias, column).  It is a
   *logical* property: every plan for the same expression shares it (5.2's
   logical-vs-physical distinction), which is why the optimizers attach it
   to memo groups, not to plans.

   A join's summary does not copy its inputs' columns: it links them
   ([Concat]), so deriving a subset costs the same however many columns
   its relations carry.  Nor does it rewrite their distinct counts: every
   summary holds a cap, and a lookup bounds a column's distinct count by
   the least cap on the path down to it.  That equals capping each column
   at every derivation, as [Float.min] is associative and commutative.
   Column order is the order of a concatenated schema (left input first);
   [find_col] returns the first match in it and [distinct] reads its first
   four columns.  Each summary carries its tuple width, so [pages] does
   not walk a schema.

   A column's statistics may be deferred (a view temporary's,
   [Table_stats.analyze_deferred]).  Lookups force only the column they
   return, and a selection keeps an unread column deferred: its
   histogram restriction and cap run when it is first read. *)

open Relalg

type col_key = string * string (* alias, column *)

type rel_stats = {
  card : float;
  ndv_cap : float; (* bound on the distinct count of every column below *)
  width : int; (* [Storage.Page.tuple_width] of the stream's schema *)
  cols : cols;
}

and cols =
  | Cols of Schema.t * (col_key * Table_stats.col_stats Lazy.t) list
  | Concat of rel_stats * rel_stats

(* Estimation assumptions, the knobs exercised by experiment E10. *)
type assumption = {
  conjunction : [ `Independence | `Most_selective ];
  use_histograms : bool;
}

let default_assumption = { conjunction = `Independence; use_histograms = true }

(* System-R's ad-hoc constants, used when no statistics apply ([55]). *)
let default_eq_sel = 0.1
let default_range_sel = 1. /. 3.
let default_sel = 1. /. 3.

let pages (r : rel_stats) : float =
  float_of_int
    (Storage.Page.pages_for_width
       ~rows:(int_of_float (Float.round r.card)) r.width)

let of_table (ts : Table_stats.t) ~alias ~(schema : Schema.t) : rel_stats =
  { card = ts.Table_stats.rows;
    ndv_cap = infinity;
    width = Storage.Page.tuple_width schema;
    cols =
      Cols
        ( schema,
          List.map
            (fun (name, cs) -> ((alias, name), cs))
            ts.Table_stats.cols ) }

let rec schema (r : rel_stats) : Schema.t =
  match r.cols with
  | Cols (s, _) -> s
  | Concat (l, rr) -> Schema.concat (schema l) (schema rr)

(* A column's statistics under a distinct-count cap; the record is shared
   when the cap does not bind. *)
let cap_col cap (cs : Table_stats.col_stats) =
  let nd = Float.min cs.Table_stats.n_distinct cap in
  if Float.equal nd cs.Table_stats.n_distinct then cs
  else { cs with Table_stats.n_distinct = nd }

(* [f cap c] of every column in order, [cap] the least on its path. *)
let map_columns f (r : rel_stats) =
  let rec go cap r acc =
    let cap = Float.min cap r.ndv_cap in
    match r.cols with
    | Cols (_, cs) ->
      List.fold_right (fun (k, c) acc -> (k, f cap c) :: acc) cs acc
    | Concat (l, rr) -> go cap l (go cap rr acc)
  in
  go infinity r []

let columns = map_columns (fun cap c -> cap_col cap (Lazy.force c))

(* Every column in order, each still deferred if it was, caps applied
   when it is forced; an infinite cap changes nothing. *)
let deferred_columns =
  map_columns (fun cap c ->
      if Float.equal cap infinity then c
      else Table_stats.map_deferred (cap_col cap) c)

(* The least cap on the path to a found column, gathered on the way back
   up; a float-only record, so updating it allocates nothing. *)
type path_cap = { mutable cap : float }

(* The join enumerator looks columns up for every subset it derives, so
   the walk allocates only the result: two string comparisons per
   column, no [List.assoc_opt] key and no boxed float argument. *)
let rec find_in pc rel col (r : rel_stats) =
  let found =
    match r.cols with
    | Cols (_, cs) -> scan rel col cs
    | Concat (l, rr) -> (
      match find_in pc rel col l with
      | None -> find_in pc rel col rr
      | found -> found)
  in
  (match found with
   | Some _ -> pc.cap <- Float.min pc.cap r.ndv_cap
   | None -> ());
  found

and scan rel col = function
  | [] -> None
  | ((a, n), cs) :: rest ->
    if String.equal n col && String.equal a rel then Some (Lazy.force cs)
    else scan rel col rest

let find_col (r : rel_stats) (c : Expr.col_ref) : Table_stats.col_stats option
  =
  let pc = { cap = infinity } in
  let found =
    match find_in pc c.Expr.rel c.Expr.col r with
    | Some _ as found -> found
    | None ->
      (* unqualified output columns of projections/aggregations *)
      find_in pc "" c.Expr.col r
  in
  match found with
  | Some cs ->
    let capped = cap_col pc.cap cs in
    if capped == cs then found else Some capped
  | None -> None

let const_float (e : Expr.t) : float option =
  match e with
  | Expr.Const v -> Value.to_float v
  | _ -> None

let ndv_of (r : rel_stats) c =
  match find_col r c with
  | Some cs -> max 1. cs.Table_stats.n_distinct
  | None -> max 1. r.card

(* Selectivity of a comparison between a column and a constant. *)
let cmp_col_const asm (r : rel_stats) op (c : Expr.col_ref) (v : float) =
  match find_col r c with
  | None -> (match op with Expr.Eq -> default_eq_sel | _ -> default_range_sel)
  | Some cs -> (
    let hist =
      if asm.use_histograms then cs.Table_stats.hist else None
    in
    match op, hist with
    | Expr.Eq, Some h -> Histogram.est_eq h v
    | Expr.Neq, Some h -> 1. -. Histogram.est_eq h v
    | Expr.Lt, Some h | Expr.Le, Some h -> Histogram.est_range h ~hi:v ()
    | Expr.Gt, Some h | Expr.Ge, Some h -> Histogram.est_range h ~lo:v ()
    | Expr.Eq, None -> 1. /. max 1. cs.Table_stats.n_distinct
    | Expr.Neq, None -> 1. -. (1. /. max 1. cs.Table_stats.n_distinct)
    | (Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), None -> (
      (* interpolate against robust bounds when available *)
      match cs.Table_stats.lo, cs.Table_stats.hi with
      | Some lo, Some hi when hi > lo ->
        let frac = (v -. lo) /. (hi -. lo) in
        let frac = Float.max 0. (Float.min 1. frac) in
        (match op with
         | Expr.Lt | Expr.Le -> frac
         | Expr.Gt | Expr.Ge -> 1. -. frac
         | Expr.Eq | Expr.Neq -> default_range_sel)
      | _ -> default_range_sel))

let clamp01 s = Float.max 0. (Float.min 1. s)

(* Selectivity of an arbitrary predicate against a single stream. *)
let rec selectivity ?(asm = default_assumption) ?join_memo (r : rel_stats)
    (e : Expr.t) : float =
  clamp01 (sel ?join_memo asm r e)

(* [join_memo], when given, serves equi-join histogram joins
   ([Histogram.join_rows_memo]); the estimate is the same either way. *)
and sel ?join_memo asm r (e : Expr.t) : float =
  match e with
  | Expr.Const (Value.Bool true) -> 1.
  | Expr.Const (Value.Bool false) -> 0.
  | Expr.And (a, b) -> (
    let sa = sel ?join_memo asm r a and sb = sel ?join_memo asm r b in
    match asm.conjunction with
    | `Independence -> sa *. sb
    | `Most_selective -> Float.min sa sb)
  | Expr.Or (a, b) ->
    let sa = sel ?join_memo asm r a and sb = sel ?join_memo asm r b in
    sa +. sb -. (sa *. sb)
  | Expr.Not (Expr.Is_null (Expr.Col c)) -> (
    match find_col r c with
    | Some cs -> 1. -. cs.Table_stats.null_frac
    | None -> 1. -. default_eq_sel)
  | Expr.Not a -> 1. -. sel ?join_memo asm r a
  | Expr.Is_null (Expr.Col c) -> (
    match find_col r c with
    | Some cs -> cs.Table_stats.null_frac
    | None -> default_eq_sel)
  | Expr.Is_null _ -> default_eq_sel
  | Expr.Cmp (op, Expr.Col a, Expr.Col b) when a.Expr.rel <> b.Expr.rel -> (
    (* join predicate: containment assumption *)
    match op with
    | Expr.Eq -> (
      (* Fast-AGMS sketches, when both columns carry compatible ones:
         estimated join size over the product of the sketched column
         counts.  A negative median (sketch noise) clamps to 0;
         [floor_one] downstream keeps nonempty inputs at >= 1 row. *)
      let join_sel_sketch =
        match find_col r a, find_col r b with
        | Some { Table_stats.sketch = Some sa; _ },
          Some { Table_stats.sketch = Some sb; _ }
          when Sketch.compatible sa sb ->
          let na = float_of_int (Sketch.items sa)
          and nb = float_of_int (Sketch.items sb) in
          if na > 0. && nb > 0. then
            Some (Float.max 0. (Sketch.join_estimate sa sb) /. (na *. nb))
          else None
        | _ -> None
      in
      let join_sel_hist =
        if asm.use_histograms then
          match find_col r a, find_col r b with
          | Some { Table_stats.hist = Some ha; _ },
            Some { Table_stats.hist = Some hb; _ } ->
            let na = Histogram.total ha and nb = Histogram.total hb in
            if na > 0. && nb > 0. then
              let rows =
                match join_memo with
                | None -> Histogram.join_rows ha hb
                | Some m -> Histogram.join_rows_memo m ha hb
              in
              Some (rows /. (na *. nb))
            else None
          | _ -> None
        else None
      in
      match join_sel_sketch, join_sel_hist with
      | Some s, _ -> s
      | None, Some s -> s
      | None, None -> 1. /. Float.max (ndv_of r a) (ndv_of r b))
    | Expr.Neq -> 1. -. (1. /. Float.max (ndv_of r a) (ndv_of r b))
    | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge -> default_range_sel)
  | Expr.Cmp (op, Expr.Col c, rhs) -> (
    match const_float rhs with
    | Some v -> cmp_col_const asm r op c v
    | None -> (
      match op with Expr.Eq -> default_eq_sel | _ -> default_range_sel))
  | Expr.Cmp (op, lhs, Expr.Col c) -> (
    match const_float lhs with
    | Some v ->
      let flipped =
        match op with
        | Expr.Lt -> Expr.Gt | Expr.Le -> Expr.Ge
        | Expr.Gt -> Expr.Lt | Expr.Ge -> Expr.Le
        | Expr.Eq -> Expr.Eq | Expr.Neq -> Expr.Neq
      in
      cmp_col_const asm r flipped c v
    | None -> (
      match op with Expr.Eq -> default_eq_sel | _ -> default_range_sel))
  | Expr.Udf (u, _) -> u.Expr.udf_selectivity
  | Expr.Cmp _ | Expr.Const _ | Expr.Col _ | Expr.Binop _ -> default_sel

(* ------------------------------------------------------------------ *)
(* Propagation through operators *)

(* Clamp a derived cardinality to at least one row when the input is
   nonempty; an estimate of exactly zero is reserved for provably empty
   inputs.  Complement selectivities (NOT, <>) and histogram range
   estimates saturate to exactly 0 when the base selectivity saturates
   to 1 or the histogram carries no mass in range — none of which proves
   emptiness (the q-error oracle treats est=0/act>0 as a contradiction). *)
let floor_one input_card est =
  if input_card > 0. then Float.max 1. est else Float.max 0. est

(* A predicate is provably false for estimation purposes only when a
   literal FALSE appears as a conjunct — the form the analysis layer's
   contradiction folding rewrites to. *)
let provably_false e =
  List.exists
    (function Expr.Const (Value.Bool false) -> true | _ -> false)
    (Pred.conjuncts e)

(* Selection: scale cardinality; if the predicate constrains a single column
   through a histogram, restrict that histogram too (the simplest propagation
   case of 5.1.3). *)
let apply_select ?(asm = default_assumption) (r : rel_stats) (e : Expr.t) :
  rel_stats =
  let s = selectivity ~asm r e in
  let card = Float.max 0. (r.card *. s) in
  let card = if provably_false e then card else floor_one r.card card in
  (* restrict histograms for conjuncts of shape col CMP const *)
  let conjuncts = Pred.conjuncts e in
  let restrict alias col cs =
    let applies op v =
      match cs.Table_stats.hist with
      | None -> None
      | Some h -> (
        match op with
        | Expr.Eq ->
          let selv = Histogram.est_eq h v in
          let open Histogram in
          Some
            { total = h.total *. selv;
              singletons = [| (v, h.total *. selv) |];
              buckets = [||] }
        | Expr.Lt | Expr.Le ->
          let open Histogram in
          let keep =
            Array.to_list h.buckets
            |> List.filter_map (fun b ->
                if b.lo > v then None
                else if b.hi <= v then Some b
                else
                  Some { b with hi = v;
                                count = Histogram.bucket_range_rows b ~lo_v:b.lo ~hi_v:v })
          in
          Some { buckets = Array.of_list keep;
                        total = List.fold_left (fun a b -> a +. b.count) 0. keep
                                +. Array.fold_left (fun a (w, c) -> if w <= v then a +. c else a) 0. h.singletons;
                        singletons = Array.of_list (List.filter (fun (w, _) -> w <= v) (Array.to_list h.singletons)) }
        | Expr.Gt | Expr.Ge ->
          let open Histogram in
          let keep =
            Array.to_list h.buckets
            |> List.filter_map (fun b ->
                if b.hi < v then None
                else if b.lo >= v then Some b
                else
                  Some { b with lo = v;
                                count = Histogram.bucket_range_rows b ~lo_v:v ~hi_v:b.hi })
          in
          Some { buckets = Array.of_list keep;
                        total = List.fold_left (fun a b -> a +. b.count) 0. keep
                                +. Array.fold_left (fun a (w, c) -> if w >= v then a +. c else a) 0. h.singletons;
                        singletons = Array.of_list (List.filter (fun (w, _) -> w >= v) (Array.to_list h.singletons)) }
        | Expr.Neq -> None)
    in
    let new_hist =
      List.fold_left
        (fun acc conj ->
           match conj with
           | Expr.Cmp (op, Expr.Col c, rhs)
             when c.Expr.rel = alias && c.Expr.col = col ->
             (match const_float rhs with
              | Some v -> (
                match applies op v with Some h -> Some h | None -> acc)
              | None -> acc)
           | _ -> acc)
        cs.Table_stats.hist conjuncts
    in
    { cs with Table_stats.hist = new_hist }
  in
  let cols =
    List.map
      (fun (((alias, col) as k), cs) ->
         (k, Table_stats.map_deferred (restrict alias col) cs))
      (deferred_columns r)
  in
  { card; ndv_cap = Float.max 1. card; width = r.width;
    cols = Cols (schema r, cols) }

let join ?(asm = default_assumption) ?join_memo (kind : Algebra.join_kind)
    (l : rel_stats) (rr : rel_stats) (pred : Expr.t) : rel_stats =
  let combined =
    { card = l.card *. rr.card;
      ndv_cap = infinity;
      width = l.width + rr.width - Storage.Page.tuple_header;
      cols = Concat (l, rr) }
  in
  let s = selectivity ~asm ?join_memo combined pred in
  let inner_card = Float.max 0. (l.card *. rr.card *. s) in
  let inner_card =
    (* same convention as Semi/Anti below: a complement selectivity
       saturating to 0 (e.g. <> when both sides are single-valued) does
       not prove the join output empty *)
    if provably_false pred then inner_card
    else floor_one combined.card inner_card
  in
  let capped r card =
    { r with card; ndv_cap = Float.min r.ndv_cap (Float.max 1. card) }
  in
  match kind with
  | Algebra.Inner -> capped combined inner_card
  | Algebra.Left_outer -> capped combined (Float.max inner_card l.card)
  | Algebra.Semi ->
    (* floor at one row: saturating to an exact zero would claim the
       output is provably empty, which the independence assumption
       cannot establish (the q-error oracle treats est=0/act>0 as a
       contradiction) *)
    capped l (floor_one l.card (Float.min l.card inner_card))
  | Algebra.Anti ->
    capped l (floor_one l.card (l.card -. Float.min l.card inner_card))

let group (r : rel_stats) ~(keys : (Expr.t * string) list)
    ~(aggs : (Expr.agg * string) list) : rel_stats =
  let key_ndv (e, _) =
    match e with
    | Expr.Col c -> ndv_of r c
    | _ -> Float.max 1. (r.card /. 10.)
  in
  let groups =
    if keys = [] then 1.
    else
      Float.min r.card (List.fold_left (fun acc k -> acc *. key_ndv k) 1. keys)
  in
  let schema = Algebra.output_columns (schema r) keys aggs in
  let cols =
    List.filter_map
      (fun (e, a) ->
         match e with
         | Expr.Col c ->
           Option.map (fun cs -> (("", a), Lazy.from_val cs)) (find_col r c)
         | _ -> None)
      keys
  in
  (* Keyed grouping of a provably empty input yields no groups; an exact
     zero is reserved for that case.  A scalar aggregate (no keys) always
     emits exactly one row, even over empty input. *)
  let card =
    if keys <> [] && r.card <= 0. then 0. else Float.max 1. groups
  in
  { card; ndv_cap = Float.max 1. groups;
    width = Storage.Page.tuple_width schema; cols = Cols (schema, cols) }

let project (r : rel_stats) (items : (Expr.t * string) list) : rel_stats =
  let schema = Algebra.output_columns (schema r) items [] in
  let cols =
    List.filter_map
      (fun (e, a) ->
         match e with
         | Expr.Col c ->
           Option.map (fun cs -> (("", a), Lazy.from_val cs)) (find_col r c)
         | _ -> None)
      items
  in
  (* the columns already carry [r]'s caps, and a second application of
     the same cap changes nothing *)
  { r with width = Storage.Page.tuple_width schema; cols = Cols (schema, cols) }

let distinct (r : rel_stats) : rel_stats =
  let ndv_all =
    List.fold_left
      (fun acc (_, cs) ->
         acc *. Float.max 1. (Lazy.force cs).Table_stats.n_distinct)
      1.
      (List.filteri (fun i _ -> i < 4) (deferred_columns r))
  in
  let card = Float.min r.card (Float.max 1. ndv_all) in
  { r with card; ndv_cap = Float.min r.ndv_cap (Float.max 1. card) }
