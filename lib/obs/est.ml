(* Post-hoc cardinality annotation of physical plans.

   The enumerator costs logical subsets, not physical nodes, so the
   per-node estimates EXPLAIN ANALYZE compares against are re-derived
   here: one bottom-up pass over the final plan through the same
   [Stats.Derive] propagation the optimizer used.  The pass is pure —
   it returns a lookup by physical node identity — and must run while
   the catalog/stats still contain any temporary tables the plan scans
   (materialized views are dropped after execution). *)

open Relalg

type t = (Exec.Plan.t * Stats.Derive.rel_stats) list

let conj a b =
  match (a, b) with
  | Expr.Const (Value.Bool true), e | e, Expr.Const (Value.Bool true) -> e
  | a, b -> Expr.And (a, b)

let bound_pred alias column lo hi =
  let c = Expr.col ~rel:alias ~col:column in
  let one op v = Expr.Cmp (op, c, Expr.Const v) in
  let lo_p =
    match lo with
    | Storage.Btree.Unbounded -> Expr.ftrue
    | Storage.Btree.Incl v -> one Expr.Ge v
    | Storage.Btree.Excl v -> one Expr.Gt v
  in
  let hi_p =
    match hi with
    | Storage.Btree.Unbounded -> Expr.ftrue
    | Storage.Btree.Incl v -> one Expr.Le v
    | Storage.Btree.Excl v -> one Expr.Lt v
  in
  conj lo_p hi_p

let pairs_pred pairs residual =
  List.fold_left
    (fun acc ((a : Expr.col_ref), (b : Expr.col_ref)) ->
       conj acc (Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b)))
    residual pairs

(* Base-table summary under an alias; tables unknown to the stats
   registry (possible for fabricated temps) fall back to the physical
   row count with no column statistics. *)
let table_stats cat (db : Stats.Table_stats.db) table alias =
  let t = Storage.Catalog.table cat table in
  let schema = Schema.requalify t.Storage.Table.schema ~rel:alias in
  let ts =
    match Stats.Table_stats.find db table with
    | Some ts -> ts
    | None ->
      { Stats.Table_stats.table;
        rows = float_of_int (Storage.Table.row_count t);
        pages = Storage.Table.page_count t;
        cols = [] }
  in
  Stats.Derive.of_table ts ~alias ~schema

(* ------------------------------------------------------------------ *)
(* Feedback-cache keys of physical subtrees.

   Mirrors [Systemr.Join_order.feedback_key]: an SPJ subtree is keyed by
   its (alias, table) pairs plus the canonicalized conjuncts applied
   anywhere within it, independent of join order and selection placement
   — so the key a join operator records under here is the key the
   optimizer looks up for the corresponding subset mask.  Cardinality-
   changing non-SPJ operators (semi/anti/outer joins, grouping, distinct)
   get a shape-marked key and continue upward as an opaque pseudo-
   relation named by their own digest, which keeps keys deterministic
   across runs without claiming position-independence. *)

let is_temp_table t = String.length t >= 5 && String.sub t 0 5 = "__mat"

type sub = {
  srels : (string * string) list; (* (alias, table) incl. pseudo-relations *)
  spreds : string list; (* canonicalized conjuncts *)
  stables : string list; (* real base tables, for freshness fingerprints *)
}

let canon_conjuncts (e : Expr.t) : string list =
  List.filter_map
    (fun c ->
       match c with
       | Expr.Const (Value.Bool true) -> None
       | c -> Some (Stats.Feedback.canon_pred c))
    (Pred.conjuncts e)

let feedback_keys (plan : Exec.Plan.t) :
  (Exec.Plan.t * (Stats.Feedback.key * string list)) list =
  let module P = Exec.Plan in
  let acc = ref [] in
  let spj_key sub =
    Stats.Feedback.key ~shape:"spj" ~rels:sub.srels ~preds:sub.spreds
  in
  (* collapse a non-SPJ operator into a pseudo-relation keyed by its own
     digest so enclosing SPJ composition stays well defined *)
  let opaque key sub = { sub with srels = [ ("", "#" ^ key) ]; spreds = [] } in
  let shaped shape sub =
    let key = Stats.Feedback.key ~shape ~rels:sub.srels ~preds:sub.spreds in
    (key, opaque key sub)
  in
  let join_shape kind ~outer_aliases =
    let tag =
      match (kind : Algebra.join_kind) with
      | Algebra.Inner -> None
      | Algebra.Semi -> Some "semi"
      | Algebra.Anti -> Some "anti"
      | Algebra.Left_outer -> Some "outer"
    in
    Option.map
      (fun t -> t ^ "[" ^ String.concat "," (List.sort compare outer_aliases) ^ "]")
      tag
  in
  let merge a b = { srels = a.srels @ b.srels;
                    spreds = a.spreds @ b.spreds;
                    stables = a.stables @ b.stables }
  in
  let rec go (p : P.t) : sub option =
    let record_spj sub =
      acc := (p, (spj_key sub, sub.stables)) :: !acc;
      Some sub
    in
    let record_shaped shape sub =
      let key, sub' = shaped shape sub in
      acc := (p, (key, sub.stables)) :: !acc;
      Some sub'
    in
    let join_sub kind ~outer ~inner ~preds =
      match (outer, inner) with
      | Some o, Some i ->
        let sub = { (merge o i) with spreds = o.spreds @ i.spreds @ preds } in
        (match join_shape kind ~outer_aliases:(List.map fst o.srels) with
         | None -> record_spj sub
         | Some shape -> record_shaped shape sub)
      | _ -> None
    in
    match p with
    | P.Seq_scan { table; alias; filter } ->
      if is_temp_table table then None
      else
        record_spj
          { srels = [ (alias, table) ];
            spreds =
              (match filter with None -> [] | Some f -> canon_conjuncts f);
            stables = [ table ] }
    | P.Index_scan { table; alias; column; lo; hi; filter } ->
      if is_temp_table table then None
      else
        record_spj
          { srels = [ (alias, table) ];
            spreds =
              canon_conjuncts (bound_pred alias column lo hi)
              @ (match filter with None -> [] | Some f -> canon_conjuncts f);
            stables = [ table ] }
    | P.Filter (f, i) ->
      Option.bind (go i) (fun sub ->
          record_spj { sub with spreds = sub.spreds @ canon_conjuncts f })
    | P.Project (_, i) | P.Sort (_, i) | P.Materialize i ->
      (* cardinality-transparent: share the child's key *)
      Option.bind (go i) record_spj
    | P.Hash_distinct i ->
      Option.bind (go i) (record_shaped "distinct")
    | P.Nested_loop { kind; pred; outer; inner } ->
      join_sub kind ~outer:(go outer) ~inner:(go inner)
        ~preds:(canon_conjuncts pred)
    | P.Index_nl { kind; outer; table; alias; columns; outer_keys; residual; _ }
      ->
      if is_temp_table table then (ignore (go outer); None)
      else
        let inner =
          Some { srels = [ (alias, table) ]; spreds = []; stables = [ table ] }
        in
        let eqs =
          List.map2
            (fun k c ->
               Stats.Feedback.canon_pred
                 (Expr.Cmp (Expr.Eq, k, Expr.col ~rel:alias ~col:c)))
            outer_keys columns
        in
        join_sub kind ~outer:(go outer) ~inner
          ~preds:(eqs @ canon_conjuncts residual)
    | P.Merge_join { kind; pairs; residual; left; right }
    | P.Hash_join { kind; pairs; residual; left; right } ->
      join_sub kind ~outer:(go left) ~inner:(go right)
        ~preds:(canon_conjuncts (pairs_pred pairs residual))
    | P.Hash_agg { keys; aggs = _; input } | P.Stream_agg { keys; aggs = _; input }
      ->
      let shape =
        "group["
        ^ String.concat ","
            (List.sort compare (List.map (fun (e, _) -> Expr.to_string e) keys))
        ^ "]"
      in
      Option.bind (go input) (record_shaped shape)
  in
  ignore (go plan);
  !acc

let annotate ?asm ?feedback (cat : Storage.Catalog.t)
    (db : Stats.Table_stats.db) (plan : Exec.Plan.t) : t =
  let module P = Exec.Plan in
  let keys =
    match feedback with None -> [] | Some _ -> feedback_keys plan
  in
  let override (p : P.t) (s : Stats.Derive.rel_stats) =
    match feedback with
    | None -> s
    | Some fb -> (
      match List.assq_opt p keys with
      | None -> s
      | Some (k, _) -> (
        match Stats.Feedback.lookup fb ~db k with
        | Stats.Feedback.Hit act -> { s with Stats.Derive.card = act }
        | Stats.Feedback.Stale | Stats.Feedback.Miss -> s))
  in
  let acc : t ref = ref [] in
  let rec go (p : P.t) : Stats.Derive.rel_stats =
    let s =
      match p with
      | P.Seq_scan { table; alias; filter } ->
        let base = table_stats cat db table alias in
        (match filter with
         | None -> base
         | Some f -> Stats.Derive.apply_select ?asm base f)
      | P.Index_scan { table; alias; column; lo; hi; filter } ->
        let base = table_stats cat db table alias in
        let ranged =
          match bound_pred alias column lo hi with
          | Expr.Const (Value.Bool true) -> base
          | pred -> Stats.Derive.apply_select ?asm base pred
        in
        (match filter with
         | None -> ranged
         | Some f -> Stats.Derive.apply_select ?asm ranged f)
      | P.Filter (f, i) -> Stats.Derive.apply_select ?asm (go i) f
      | P.Project (items, i) -> Stats.Derive.project (go i) items
      | P.Sort (_, i) | P.Materialize i -> go i
      | P.Hash_distinct i -> Stats.Derive.distinct (go i)
      | P.Nested_loop { kind; pred; outer; inner } ->
        let so = go outer in
        let si = go inner in
        Stats.Derive.join ?asm kind so si pred
      | P.Index_nl { kind; outer; table; alias; columns; outer_keys; residual; _ }
        ->
        let so = go outer in
        let si = table_stats cat db table alias in
        let pred =
          List.fold_left2
            (fun acc k c ->
               conj acc
                 (Expr.Cmp (Expr.Eq, k, Expr.col ~rel:alias ~col:c)))
            residual outer_keys columns
        in
        Stats.Derive.join ?asm kind so si pred
      | P.Merge_join { kind; pairs; residual; left; right }
      | P.Hash_join { kind; pairs; residual; left; right } ->
        let sl = go left in
        let sr = go right in
        Stats.Derive.join ?asm kind sl sr (pairs_pred pairs residual)
      | P.Hash_agg { keys; aggs; input } | P.Stream_agg { keys; aggs; input }
        ->
        Stats.Derive.group (go input) ~keys ~aggs
    in
    let s = override p s in
    acc := (p, s) :: !acc;
    s
  in
  ignore (go plan);
  !acc

let card (t : t) (p : Exec.Plan.t) : float option =
  let rec find = function
    | [] -> None
    | (q, s) :: rest ->
      if q == p then Some s.Stats.Derive.card else find rest
  in
  find t

(* Push estimates onto an instrument recorder's operators. *)
let attach (t : t) (r : Exec.Instrument.t) : unit =
  List.iter
    (fun (o : Exec.Instrument.op) ->
       o.Exec.Instrument.est_rows <- card t o.Exec.Instrument.node)
    (Exec.Instrument.ops r)
