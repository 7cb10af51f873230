(* The abstract interpreter: a bottom-up pass over QGM blocks and
   physical plans computing, per operator output:

   - per-column abstract values (interval of possible non-NULL values,
     nullability, static type) keyed by (relation alias, column name);
   - unique column sets ("keys"): a [uniq] entry lists columns whose
     non-NULL values never repeat across rows, so an equality probe on
     all of them matches at most one row.  The empty set [[]] asserts
     the stream itself has at most one row;
   - a provable cardinality envelope [e_lo, e_hi].

   Soundness discipline: base facts come only from exact sources —
   catalog NOT NULL declarations, and Table_stats built by full scans
   (rows, null_frac, n_distinct and min_v/max_v are exact there).
   Predicate refinement uses SQL three-valued logic: a WHERE conjunct
   keeps a row only when it evaluates to TRUE, which in particular
   forces strictly-evaluated operands to be non-NULL.  Anything the
   analyzer cannot prove stays at top. *)

open Relalg
open Domain
module Qgm = Rewrite.Qgm

type key = string * string (* (relation alias, column name) *)

type state = {
  cols : (key * aval) list;
  uniq : key list list;
  env : envelope;
}

(* The one-row relation (SELECT without FROM / scalar aggregate). *)
let unit_state = { cols = []; uniq = [ [] ]; env = env_exact 1. }

let col_aval (st : state) name =
  match List.assoc_opt ("", name) st.cols with
  | Some a -> Some a
  | None -> (
    match List.filter (fun ((_, n), _) -> n = name) st.cols with
    | [ (_, a) ] -> Some a
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Column resolution *)

(* Resolve a reference against local columns first, then an enclosing
   (correlation) context.  An unqualified reference must be unambiguous
   to resolve. *)
let lookup ?(outer = []) (cols : (key * aval) list) (c : Expr.col_ref) :
  [ `Local of aval | `Outer of aval | `Unknown ] =
  let find cs =
    if c.Expr.rel <> "" then List.assoc_opt (c.Expr.rel, c.Expr.col) cs
    else
      match List.filter (fun ((_, n), _) -> n = c.Expr.col) cs with
      | [ (_, a) ] -> Some a
      | _ -> None
  in
  match find cols with
  | Some a -> `Local a
  | None -> (
    match find outer with Some a -> `Outer a | None -> `Unknown)

let local_key ?(outer = []) cols (c : Expr.col_ref) : key option =
  match lookup ~outer cols c with
  | `Local _ ->
    if c.Expr.rel <> "" then Some (c.Expr.rel, c.Expr.col)
    else (
      match List.filter (fun ((_, n), _) -> n = c.Expr.col) cols with
      | [ (k, _) ] -> Some k
      | _ -> None)
  | _ -> None

let update_col cols k f =
  List.map (fun (k', a) -> if k' = k then (k', f a) else (k', a)) cols

(* ------------------------------------------------------------------ *)
(* Predicate refinement: [assume st e] is the strongest state provable
   when [e] evaluates to TRUE on a row of [st]; [None] means [e] can
   never be TRUE (the conjunct is unsatisfiable). *)

(* Columns whose NULL forces the whole expression to NULL. *)
let rec strict_cols (e : Expr.t) : Expr.col_ref list =
  match e with
  | Expr.Col c -> [ c ]
  | Expr.Binop (_, a, b) -> strict_cols a @ strict_cols b
  | _ -> []

let interval_of_cmp op f =
  match op with
  | Expr.Eq -> Some (point f)
  | Expr.Lt -> Some (at_most ~strict:true f)
  | Expr.Le -> Some (at_most f)
  | Expr.Gt -> Some (at_least ~strict:true f)
  | Expr.Ge -> Some (at_least f)
  | Expr.Neq -> None

let flip = function
  | Expr.Eq -> Expr.Eq
  | Expr.Neq -> Expr.Neq
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le

let negate = function
  | Expr.Eq -> Expr.Neq
  | Expr.Neq -> Expr.Eq
  | Expr.Lt -> Expr.Ge
  | Expr.Le -> Expr.Gt
  | Expr.Gt -> Expr.Le
  | Expr.Ge -> Expr.Lt

(* Is the meet empty, taking int-typed columns into account?  The int
   tightening is used only to detect contradictions, never to produce
   tightened bounds. *)
let meet_for (a : aval) (i : interval) : interval option =
  match Domain.meet a.itv i with
  | None -> None
  | Some m ->
    if a.ty = Some Value.Tint && is_empty_int m then None else Some m

let refine_nonnull ~outer cols (c : Expr.col_ref) :
  (key * aval) list option =
  match lookup ~outer cols c with
  | `Local a | `Outer a -> (
    (* a column constrained to be non-NULL while provably always NULL
       cannot happen here: we never track "always NULL", so just refine
       the local entry when there is one *)
    ignore a;
    match local_key ~outer cols c with
    | Some k -> Some (update_col cols k (fun a -> { a with null = Non_null }))
    | None -> Some cols)
  | `Unknown -> Some cols

let refine_itv ~outer cols (c : Expr.col_ref) (i : interval) :
  (key * aval) list option =
  match local_key ~outer cols c with
  | None -> (
    (* outer or unknown: still usable for contradiction detection *)
    match lookup ~outer cols c with
    | `Outer a -> (
      match meet_for a i with None -> None | Some _ -> Some cols)
    | _ -> Some cols)
  | Some k -> (
    match List.assoc_opt k cols with
    | None -> Some cols
    | Some a -> (
      match meet_for a i with
      | None -> None
      | Some m -> Some (update_col cols k (fun a -> { a with itv = m }))))

let join_cols c1 c2 =
  List.map
    (fun (k, a1) ->
       match List.assoc_opt k c2 with
       | Some a2 -> (k, aval_join a1 a2)
       | None -> (k, a1))
    c1

let rec assume_cols ~outer (cols : (key * aval) list) (e : Expr.t) :
  (key * aval) list option =
  let nonnull_operands a b cols =
    List.fold_left
      (fun acc c ->
         Option.bind acc (fun cols -> refine_nonnull ~outer cols c))
      (Some cols)
      (strict_cols a @ strict_cols b)
  in
  match e with
  | Expr.Const (Value.Bool true) -> Some cols
  | Expr.Const (Value.Bool false) | Expr.Const Value.Null -> None
  | Expr.Const _ -> Some cols
  | Expr.And (a, b) ->
    Option.bind (assume_cols ~outer cols a) (fun cols ->
        assume_cols ~outer cols b)
  | Expr.Or (a, b) -> (
    match (assume_cols ~outer cols a, assume_cols ~outer cols b) with
    | None, None -> None
    | Some c, None | None, Some c -> Some c
    | Some c1, Some c2 -> Some (join_cols c1 c2))
  | Expr.Not a -> assume_not ~outer cols a
  | Expr.Is_null (Expr.Col c) -> (
    match lookup ~outer cols c with
    | `Local { null = Non_null; _ } | `Outer { null = Non_null; _ } -> None
    | _ -> Some cols)
  | Expr.Is_null _ -> Some cols
  | Expr.Col c -> refine_nonnull ~outer cols c
  | Expr.Cmp (op, a, b) -> (
    match (a, b) with
    | Expr.Const va, Expr.Const vb -> (
      match Value.sql_cmp va vb with
      | None -> None (* UNKNOWN is never TRUE *)
      | Some s -> if Expr.compare_op op s then Some cols else None)
    | Expr.Col c, Expr.Const v | Expr.Const v, Expr.Col c -> (
      let op = match a with Expr.Col _ -> op | _ -> flip op in
      if Value.is_null v then None
      else
        Option.bind (refine_nonnull ~outer cols c) @@ fun cols ->
        match Value.to_float v with
        | None ->
          (* non-numeric comparison: nullability info only *)
          Some cols
        | Some f -> (
          match interval_of_cmp op f with
          | Some i -> refine_itv ~outer cols c i
          | None -> (
            (* Neq: unsat when the column is pinned to exactly f *)
            match lookup ~outer cols c with
            | `Local { itv; _ } | `Outer { itv; _ }
              when itv.lo = f && itv.hi = f && not itv.lo_open
                   && not itv.hi_open ->
              None
            | _ -> Some cols)))
    | Expr.Col ca, Expr.Col cb -> (
      Option.bind (refine_nonnull ~outer cols ca) @@ fun cols ->
      Option.bind (refine_nonnull ~outer cols cb) @@ fun cols ->
      let aval_of c =
        match lookup ~outer cols c with
        | `Local a | `Outer a -> a
        | `Unknown -> aval_top
      in
      let ia = (aval_of ca).itv and ib = (aval_of cb).itv in
      match op with
      | Expr.Eq ->
        (* both sides live in the intersection *)
        Option.bind (refine_itv ~outer cols ca ib) @@ fun cols ->
        refine_itv ~outer cols cb ia
      | Expr.Lt | Expr.Le ->
        let strict = op = Expr.Lt in
        let upper =
          { lo = neg_infinity; lo_open = true; hi = ib.hi;
            hi_open = strict || ib.hi_open }
        and lower =
          { lo = ia.lo; lo_open = strict || ia.lo_open; hi = infinity;
            hi_open = true }
        in
        Option.bind (refine_itv ~outer cols ca upper) @@ fun cols ->
        refine_itv ~outer cols cb lower
      | Expr.Gt | Expr.Ge ->
        assume_cols ~outer cols (Expr.Cmp (flip op, Expr.Col cb, Expr.Col ca))
      | Expr.Neq -> Some cols)
    | _ ->
      (* general operands: TRUE still forces strictly-evaluated columns
         to be non-NULL *)
      nonnull_operands a b cols)
  | Expr.Binop _ -> Some cols
  | Expr.Udf _ -> Some cols

and assume_not ~outer cols (e : Expr.t) : (key * aval) list option =
  match e with
  | Expr.Const (Value.Bool false) -> Some cols
  | Expr.Const (Value.Bool true) | Expr.Const Value.Null -> None
  | Expr.Const _ -> Some cols
  | Expr.Not a -> assume_cols ~outer cols a
  | Expr.And (a, b) ->
    assume_cols ~outer cols (Expr.Or (Expr.Not a, Expr.Not b))
  | Expr.Or (a, b) ->
    assume_cols ~outer cols (Expr.And (Expr.Not a, Expr.Not b))
  | Expr.Cmp (op, a, b) ->
    (* NOT (a op b) is TRUE iff (a negate-op b) is TRUE *)
    assume_cols ~outer cols (Expr.Cmp (negate op, a, b))
  | Expr.Is_null (Expr.Col c) -> refine_nonnull ~outer cols c
  | _ -> Some cols

let assume ?(outer = []) (st : state) (e : Expr.t) : state option =
  match assume_cols ~outer st.cols e with
  | None -> None
  | Some cols -> Some { st with cols }

(* ------------------------------------------------------------------ *)
(* Abstract evaluation of scalar expressions (projection outputs) *)

let rec aval_of_expr ?(outer = []) (cols : (key * aval) list) (e : Expr.t) :
  aval =
  match e with
  | Expr.Col c -> (
    match lookup ~outer cols c with `Local a | `Outer a -> a | `Unknown -> aval_top)
  | Expr.Const Value.Null -> { itv = top; null = Maybe_null; ty = None }
  | Expr.Const v ->
    { itv = (match Value.to_float v with Some f -> point f | None -> top);
      null = Non_null;
      ty = Value.type_of v }
  | Expr.Binop (op, a, b) -> (
    let aa = aval_of_expr ~outer cols a and ab = aval_of_expr ~outer cols b in
    let null = null_join aa.null ab.null in
    match op with
    | Expr.Add -> { itv = Domain.add aa.itv ab.itv; null; ty = None }
    | Expr.Sub -> { itv = Domain.sub aa.itv ab.itv; null; ty = None }
    | Expr.Mul -> { itv = top; null; ty = None }
    | Expr.Div | Expr.Mod ->
      (* division by zero yields NULL *)
      { itv = top; null = Maybe_null; ty = None })
  | Expr.Cmp _ | Expr.And _ | Expr.Or _ | Expr.Not _ ->
    { itv = top; null = Maybe_null; ty = Some Value.Tbool }
  | Expr.Is_null _ -> { itv = top; null = Non_null; ty = Some Value.Tbool }
  | Expr.Udf _ -> aval_top

(* ------------------------------------------------------------------ *)
(* Base relations *)

(* Exact column facts from a full-scan ANALYZE: null_frac and n_distinct
   are exact, min_v/max_v are sound bounds (unlike the outlier-robust
   lo/hi used by the estimator). *)
let scan ?db ~table ~alias (schema : Schema.t) : state =
  let stats = Option.bind db (fun d -> Stats.Table_stats.find d table) in
  let cols =
    List.map
      (fun (c : Schema.column) ->
         let base =
           { itv = top;
             null = (if c.Schema.nullable then Maybe_null else Non_null);
             ty = Some c.Schema.ty }
         in
         let a =
           match Option.bind stats (fun t -> Stats.Table_stats.col t c.Schema.name) with
           | None -> base
           | Some cs ->
             let itv =
               match (cs.Stats.Table_stats.min_v, cs.Stats.Table_stats.max_v)
               with
               | Some lo, Some hi -> closed lo hi
               | _ -> top
             in
             let null =
               if cs.Stats.Table_stats.null_frac = 0. then Non_null
               else base.null
             in
             { base with itv; null }
         in
         ((alias, c.Schema.name), a))
      schema
  in
  match stats with
  | None -> { cols; uniq = []; env = env_top }
  | Some ts ->
    let rows = ts.Stats.Table_stats.rows in
    let uniq =
      (if rows <= 1. then [ [] ] else [])
      @ List.filter_map
          (fun (c : Schema.column) ->
             match Stats.Table_stats.col ts c.Schema.name with
             | Some cs
               when cs.Stats.Table_stats.n_distinct
                    >= (rows *. (1. -. cs.Stats.Table_stats.null_frac)) -. 0.5
                    && rows > 0. ->
               Some [ (alias, c.Schema.name) ]
             | _ -> None)
          schema
    in
    { cols; uniq; env = env_exact rows }

(* ------------------------------------------------------------------ *)
(* Cardinality combinators *)

let mul_card a b = if a = 0. || b = 0. then 0. else a *. b

(* Cross product of independent streams. *)
let cross (a : state) (b : state) : state =
  let uniq =
    List.concat_map (fun ua -> List.map (fun ub -> ua @ ub) b.uniq) a.uniq
    @ (if a.env.e_hi <= 1. then b.uniq else [])
    @ if b.env.e_hi <= 1. then a.uniq else []
  in
  { cols = a.cols @ b.cols;
    uniq;
    env =
      { e_lo = mul_card a.env.e_lo b.env.e_lo;
        e_hi = mul_card a.env.e_hi b.env.e_hi } }

(* Equality edges extracted from conjuncts: column = column and
   column = non-NULL constant. *)
type eq_partner = P_col of key | P_const

let eq_edges ~outer (cols : (key * aval) list) (conjuncts : Expr.t list) :
  (key * eq_partner) list =
  List.concat_map
    (fun c ->
       match c with
       | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) -> (
         match (local_key ~outer cols a, local_key ~outer cols b) with
         | Some ka, Some kb -> [ (ka, P_col kb); (kb, P_col ka) ]
         | Some ka, None -> [ (ka, P_const) ] (* bound by correlation *)
         | None, Some kb -> [ (kb, P_const) ]
         | None, None -> [])
       | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Const v)
       | Expr.Cmp (Expr.Eq, Expr.Const v, Expr.Col a)
         when not (Value.is_null v) -> (
         match local_key ~outer cols a with
         | Some ka -> [ (ka, P_const) ]
         | None -> [])
       | _ -> [])
    conjuncts

(* Key-join elimination: a source whose unique column set is fully bound
   by equalities to constants or to columns of *other remaining* sources
   contributes at most one row per combination of the rest, so its
   cardinality factor drops to 1.  Greedy, restarting after each
   elimination; an eliminated source can no longer justify another
   (which blocks the unsound circular case R.a = S.a eliminating
   both). *)
let eliminate_hi (srcs : state list) (edges : (key * eq_partner) list) :
  float =
  if List.exists (fun s -> s.env.e_hi <= 0.) srcs then 0.
  else begin
    let n = List.length srcs in
    let arr = Array.of_list srcs in
    let owner k =
      let rec go i =
        if i >= n then None
        else if List.mem_assoc k arr.(i).cols then Some i
        else go (i + 1)
      in
      go 0
    in
    let remaining = Array.make n true in
    let bound_elsewhere i k =
      List.exists
        (fun (k', p) ->
           k' = k
           &&
           match p with
           | P_const -> true
           | P_col pk -> (
             match owner pk with
             | Some j -> j <> i && remaining.(j)
             | None -> false))
        edges
    in
    let progress = ref true in
    while !progress do
      progress := false;
      for i = 0 to n - 1 do
        if
          remaining.(i)
          && List.exists
               (fun u -> List.for_all (bound_elsewhere i) u)
               arr.(i).uniq
        then begin
          remaining.(i) <- false;
          progress := true
        end
      done
    done;
    let hi = ref 1. in
    Array.iteri
      (fun i s -> if remaining.(i) then hi := mul_card !hi s.env.e_hi)
      arr;
    !hi
  end

(* ------------------------------------------------------------------ *)
(* Operator transfer functions *)

(* Selection under a conjunct list (already TRUE-filtered rows). *)
let select_conjuncts ?(outer = []) (st : state) (conjuncts : Expr.t list) :
  state =
  if conjuncts = [] then st
  else
    let refined =
      List.fold_left
        (fun acc c -> Option.bind acc (fun st -> assume ~outer st c))
        (Some st) conjuncts
    in
    match refined with
    | None -> { st with env = env_empty }
    | Some st' -> { st' with env = { e_lo = 0.; e_hi = st.env.e_hi } }

(* Inner join: cross product, predicate refinement, key-join bound. *)
let inner_join ?(outer = []) (l : state) (r : state) (pred : Expr.t) : state
  =
  let conjuncts = Pred.conjuncts pred in
  let crossed = cross l r in
  let st = select_conjuncts ~outer crossed conjuncts in
  if env_is_empty st.env then st
  else
    let hi =
      Float.min st.env.e_hi
        (eliminate_hi [ l; r ] (eq_edges ~outer crossed.cols conjuncts))
    in
    let lo = if conjuncts = [] then crossed.env.e_lo else 0. in
    { st with env = { e_lo = lo; e_hi = hi } }

(* Left outer join: left rows are preserved; right columns become
   nullable but keep their intervals (an output row's right side is
   either NULL-padded or comes from a match, which satisfied the
   predicate). *)
let left_outer_join ?(outer = []) (l : state) (r : state) (pred : Expr.t) :
  state =
  let conjuncts = Pred.conjuncts pred in
  let combined = cross l r in
  let refined =
    match
      List.fold_left
        (fun acc c -> Option.bind acc (fun st -> assume ~outer st c))
        (Some combined) conjuncts
    with
    | Some st -> st
    | None -> combined (* no match ever: all rows NULL-padded *)
  in
  let cols =
    List.map
      (fun (k, a) ->
         if List.mem_assoc k r.cols then
           (* refined interval applies to matched rows; unmatched rows
              are NULL there, which intervals do not constrain *)
           (k, { (List.assoc k refined.cols) with null = Maybe_null })
         else (k, a))
      combined.cols
  in
  let right_unique =
    eliminate_hi [ r ] (eq_edges ~outer combined.cols conjuncts) <= 1.
  in
  let e_hi =
    if right_unique then l.env.e_hi
    else mul_card l.env.e_hi (Float.max 1. r.env.e_hi)
  in
  let uniq =
    (if right_unique then l.uniq else [])
    @ List.concat_map
        (fun ua -> List.map (fun ub -> ua @ ub) r.uniq)
        l.uniq
  in
  { cols; uniq; env = { e_lo = l.env.e_lo; e_hi } }

(* Semi/anti join: output columns are the left's.  The semijoin
   predicate refines left columns (kept rows satisfied it); the
   antijoin refines nothing. *)
let semi_join ?(outer = []) ~anti (l : state) (r : state) (pred : Expr.t) :
  state =
  if anti then
    if env_is_empty r.env then l
    else { l with env = { e_lo = 0.; e_hi = l.env.e_hi } }
  else if env_is_empty r.env then { l with env = env_empty }
  else
    let combined = cross l r in
    let refined =
      List.fold_left
        (fun acc c -> Option.bind acc (fun st -> assume ~outer st c))
        (Some combined) (Pred.conjuncts pred)
    in
    match refined with
    | None -> { l with env = env_empty }
    | Some st ->
      let cols =
        List.map (fun (k, _) -> (k, List.assoc k st.cols)) l.cols
      in
      { l with cols; env = { e_lo = 0.; e_hi = l.env.e_hi } }

(* Grouping.  Keyed grouping of a nonempty input yields between 1 and
   |input| groups (each group is nonempty); of a provably empty input,
   exactly 0.  A scalar aggregate (no keys) always emits exactly one
   row, even over empty input. *)
let group ?(outer = []) (st : state) ~(keys : (Expr.t * string) list)
    ~(aggs : (Expr.agg * string) list) : state =
  let in_env = st.env in
  let key_cols =
    List.map
      (fun (e, alias) -> (("", alias), aval_of_expr ~outer st.cols e))
      keys
  in
  let keyed = keys <> [] in
  (* a keyed group is nonempty; a scalar aggregate's "group" is the
     whole input, possibly empty *)
  let group_nonempty = keyed || in_env.e_lo >= 1. in
  let agg_cols =
    List.map
      (fun ((g : Expr.agg), alias) ->
         let a =
           match g with
           | Expr.Count_star ->
             let itv =
               if keyed then
                 { lo = 1.; lo_open = false; hi = in_env.e_hi;
                   hi_open = in_env.e_hi = infinity }
               else
                 { lo = in_env.e_lo; lo_open = false; hi = in_env.e_hi;
                   hi_open = in_env.e_hi = infinity }
             in
             { itv; null = Non_null; ty = Some Value.Tint }
           | Expr.Count arg ->
             ignore arg;
             { itv =
                 { lo = 0.; lo_open = false; hi = in_env.e_hi;
                   hi_open = in_env.e_hi = infinity };
               null = Non_null;
               ty = Some Value.Tint }
           | Expr.Min arg | Expr.Max arg ->
             let av = aval_of_expr ~outer st.cols arg in
             { itv = av.itv;
               null =
                 (if group_nonempty && av.null = Non_null then Non_null
                  else Maybe_null);
               ty = av.ty }
           | Expr.Avg arg ->
             (* the mean of values in [lo, hi] stays in [lo, hi] *)
             let av = aval_of_expr ~outer st.cols arg in
             { itv = av.itv;
               null =
                 (if group_nonempty && av.null = Non_null then Non_null
                  else Maybe_null);
               ty = Some Value.Tfloat }
           | Expr.Sum arg ->
             let av = aval_of_expr ~outer st.cols arg in
             { itv = top;
               null =
                 (if group_nonempty && av.null = Non_null then Non_null
                  else Maybe_null);
               ty = None }
         in
         (("", alias), a))
      aggs
  in
  let env =
    if not keyed then env_exact 1.
    else if env_is_empty in_env then env_empty
    else { e_lo = Float.min 1. in_env.e_lo; e_hi = in_env.e_hi }
  in
  { cols = key_cols @ agg_cols;
    uniq = [ List.map fst key_cols ];
    env }

(* Projection: rename/derive output columns, keep unique sets whose
   members survive as plain column references. *)
let project ?(outer = []) (st : state) (items : (Expr.t * string) list) :
  state =
  let cols =
    List.map
      (fun (e, alias) -> (("", alias), aval_of_expr ~outer st.cols e))
      items
  in
  let renaming =
    List.filter_map
      (fun (e, alias) ->
         match e with
         | Expr.Col c -> (
           match local_key ~outer st.cols c with
           | Some k -> Some (k, ("", alias))
           | None -> None)
         | _ -> None)
      items
  in
  let uniq =
    List.filter_map
      (fun u ->
         let mapped = List.filter_map (fun k -> List.assoc_opt k renaming) u in
         if List.length mapped = List.length u then Some mapped else None)
      st.uniq
  in
  { cols; uniq; env = st.env }

(* DISTINCT: at least one row survives when the input is provably
   nonempty; the full output column set becomes a key. *)
let distinct (st : state) : state =
  let e_lo = if st.env.e_lo >= 1. then 1. else 0. in
  { st with
    env = { st.env with e_lo };
    uniq = List.map fst st.cols :: st.uniq }

(* UNION / UNION ALL of two streams with identical arity: positional
   join of column facts. *)
let union ~all (a : state) (b : state) : state =
  let cols =
    List.map2
      (fun (k, va) (_, vb) -> (k, aval_join va vb))
      a.cols b.cols
  in
  let env =
    if all then
      { e_lo = a.env.e_lo +. b.env.e_lo; e_hi = a.env.e_hi +. b.env.e_hi }
    else
      { e_lo = (if a.env.e_lo >= 1. || b.env.e_lo >= 1. then 1. else 0.);
        e_hi = a.env.e_hi +. b.env.e_hi }
  in
  { cols; uniq = []; env }

(* ------------------------------------------------------------------ *)
(* QGM blocks *)

let requalify_state (st : state) ~alias : state =
  let rename (_, n) = (alias, n) in
  { cols = List.map (fun (k, a) -> (rename k, a)) st.cols;
    uniq = List.map (List.map rename) st.uniq;
    env = st.env }

let rec of_block ?db ?(outer = []) (b : Qgm.block) : state =
  let src_states = List.map (source_state ?db ~outer) b.Qgm.from in
  let base =
    match src_states with
    | [] -> unit_state
    | s :: rest -> List.fold_left cross s rest
  in
  (* WHERE: plain conjuncts refine; subquery predicates can prove
     emptiness (e IN (empty) and scalar comparisons against an empty
     block are never TRUE; EXISTS over a provably empty block is FALSE,
     NOT EXISTS over one is TRUE). *)
  let plain = Qgm.plain_preds b.Qgm.where in
  let st = select_conjuncts ~outer base plain in
  let st =
    if env_is_empty st.env then st
    else
      let hi =
        Float.min st.env.e_hi
          (eliminate_hi src_states (eq_edges ~outer base.cols plain))
      in
      { st with env = { st.env with e_hi = hi } }
  in
  let sub_outer = st.cols @ outer in
  let st =
    List.fold_left
      (fun st p ->
         if env_is_empty st.env then st
         else
           match p with
           | Qgm.P _ -> st
           | Qgm.In_sub (e, blk) -> (
             let sub = of_block ?db ~outer:sub_outer blk in
             if env_is_empty sub.env then { st with env = env_empty }
             else
               let st =
                 match e with
                 | Expr.Col c -> (
                   (* e IN (S): TRUE requires e non-NULL and within S's
                      output value set *)
                   match
                     Option.bind
                       (refine_nonnull ~outer st.cols c)
                       (fun cols ->
                          match sub.cols with
                          | (_, a) :: _ when not (is_top a.itv) ->
                            refine_itv ~outer cols c a.itv
                          | _ -> Some cols)
                   with
                   | None -> { st with env = env_empty }
                   | Some cols -> { st with cols })
                 | _ -> st
               in
               if env_is_empty st.env then st
               else { st with env = { st.env with e_lo = 0. } })
           | Qgm.Exists_sub (positive, blk) ->
             let sub = of_block ?db ~outer:sub_outer blk in
             if env_is_empty sub.env then
               if positive then { st with env = env_empty } else st
             else { st with env = { st.env with e_lo = 0. } }
           | Qgm.Cmp_sub (op, e, blk) -> (
             let sub = of_block ?db ~outer:sub_outer blk in
             if env_is_empty sub.env then
               (* the scalar subquery yields NULL; the comparison is
                  UNKNOWN and never TRUE *)
               { st with env = env_empty }
             else
               let st =
                 match e with
                 | Expr.Col c -> (
                   match refine_nonnull ~outer st.cols c with
                   | None -> { st with env = env_empty }
                   | Some cols -> (
                     match sub.cols with
                     | (_, a) :: _ when not (is_top a.itv) -> (
                       let bound =
                         match op with
                         | Expr.Eq -> Some a.itv
                         | Expr.Lt | Expr.Le ->
                           Some
                             { lo = neg_infinity; lo_open = true;
                               hi = a.itv.hi;
                               hi_open = op = Expr.Lt || a.itv.hi_open }
                         | Expr.Gt | Expr.Ge ->
                           Some
                             { lo = a.itv.lo;
                               lo_open = op = Expr.Gt || a.itv.lo_open;
                               hi = infinity; hi_open = true }
                         | Expr.Neq -> None
                       in
                       match bound with
                       | None -> { st with cols }
                       | Some i -> (
                         match refine_itv ~outer cols c i with
                         | None -> { st with env = env_empty }
                         | Some cols -> { st with cols }))
                     | _ -> { st with cols }))
                 | _ -> st
               in
               if env_is_empty st.env then st
               else { st with env = { st.env with e_lo = 0. } })
      )
      st b.Qgm.where
  in
  (* semijoins, then outerjoins — the planner's attachment order *)
  let st =
    List.fold_left
      (fun st (sj : Qgm.semijoin) ->
         if env_is_empty st.env then st
         else
           let s = source_state ?db ~outer sj.Qgm.s_source in
           semi_join ~outer ~anti:sj.Qgm.s_anti st s sj.Qgm.s_pred)
      st b.Qgm.semijoins
  in
  let st =
    List.fold_left
      (fun st (oj : Qgm.outerjoin) ->
         let s = source_state ?db ~outer oj.Qgm.o_source in
         left_outer_join ~outer st s oj.Qgm.o_pred)
      st b.Qgm.outerjoins
  in
  (* grouping and HAVING *)
  let grouped = b.Qgm.group_by <> [] || b.Qgm.aggs <> [] in
  let st =
    if not grouped then st
    else group ~outer st ~keys:b.Qgm.group_by ~aggs:b.Qgm.aggs
  in
  let st =
    if b.Qgm.having = [] then st
    else begin
      (* HAVING sees the grouped schema; subquery predicates only lower
         the bound *)
      let plain = Qgm.plain_preds b.Qgm.having in
      let st = select_conjuncts ~outer st plain in
      if Qgm.sub_preds b.Qgm.having <> [] && not (env_is_empty st.env) then
        { st with env = { st.env with e_lo = 0. } }
      else st
    end
  in
  let st = project ~outer st b.Qgm.select in
  if b.Qgm.distinct then distinct st else st

and source_state ?db ~outer = function
  | Qgm.Base { table; alias; schema } -> scan ?db ~table ~alias schema
  | Qgm.Derived { block; alias } ->
    requalify_state (of_block ?db ~outer block) ~alias

let rec of_query ?db (q : Qgm.query) : state =
  match q with
  | Qgm.Q_block b -> of_block ?db b
  | Qgm.Q_union { all; left; right } ->
    union ~all (of_query ?db left) (of_query ?db right)

(* ------------------------------------------------------------------ *)
(* Physical plans *)

let plan_node ?db (cat : Storage.Catalog.t) (p : Exec.Plan.t)
    (kids : state list) : state =
  let module P = Exec.Plan in
  let scan_of table alias =
    scan ?db ~table ~alias
      (Schema.requalify
         (Storage.Catalog.table cat table).Storage.Table.schema ~rel:alias)
  in
  let join kind l r =
    let pred = P.join_pred p in
    match (kind : Algebra.join_kind) with
    | Algebra.Inner -> inner_join l r pred
    | Algebra.Left_outer -> left_outer_join l r pred
    | Algebra.Semi -> semi_join ~anti:false l r pred
    | Algebra.Anti -> semi_join ~anti:true l r pred
  in
  match (p, kids) with
  | P.Seq_scan { table; alias; filter }, [] -> (
    let st = scan_of table alias in
    match filter with
    | None -> st
    | Some f -> select_conjuncts st (Pred.conjuncts f))
  | P.Index_scan { table; alias; filter; _ }, [] ->
    let st = scan_of table alias in
    let conjuncts =
      Pred.conjuncts (P.range_pred p)
      @ match filter with None -> [] | Some f -> Pred.conjuncts f
    in
    let st' = select_conjuncts st conjuncts in
    if env_is_empty st'.env then st'
    else
      (* constant equality on a unique column pins the stream to <= 1 *)
      let hi_card =
        Float.min st'.env.e_hi
          (eliminate_hi [ st ] (eq_edges ~outer:[] st.cols conjuncts))
      in
      { st' with env = { st'.env with e_hi = hi_card } }
  | P.Filter (f, _), [ i ] -> select_conjuncts i (Pred.conjuncts f)
  | P.Project (items, _), [ i ] -> project i items
  | (P.Sort _ | P.Materialize _), [ i ] -> i
  | ( ( P.Nested_loop { kind; _ } | P.Merge_join { kind; _ }
      | P.Hash_join { kind; _ } ),
      [ l; r ] ) ->
    join kind l r
  | P.Index_nl { kind; table; alias; _ }, [ l ] ->
    join kind l (scan_of table alias)
  | (P.Hash_agg { keys; aggs; _ } | P.Stream_agg { keys; aggs; _ }), [ i ] ->
    group i ~keys ~aggs
  | P.Hash_distinct _, [ i ] -> distinct i
  | _ -> invalid_arg "Absint.plan_node: child count does not match the node"

let annotate_plan ?db (cat : Storage.Catalog.t) (p : Exec.Plan.t) :
  state array =
  Exec.Plan.bottom_up (plan_node ?db cat) p
