(* Post-hoc cardinality annotation of physical plans.

   The enumerator costs logical subsets, not physical nodes, so the
   per-node estimates that EXPLAIN ANALYZE compares against and the
   parallel scheduler sizes segments from are re-derived here: one
   bottom-up pass over the final plan through the same [Stats.Derive]
   propagation the optimizer used.  This is the only module that runs
   [Stats.Derive] over physical plan nodes.  The pass is pure —
   it returns a lookup by physical node identity — and must run while
   the catalog/stats still contain any temporary tables the plan scans
   (materialized views are dropped after execution). *)

open Relalg

type t = (Exec.Plan.t * Stats.Derive.rel_stats) list

(* Base-table summary under an alias. *)
let table_stats cat (db : Stats.Table_stats.db) table alias =
  let t = Storage.Catalog.table cat table in
  let schema = Schema.requalify t.Storage.Table.schema ~rel:alias in
  Stats.Derive.of_table (Stats.Table_stats.for_table db t) ~alias ~schema

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
    let join_sub kind ~outer ~inner =
      match (outer, inner) with
      | Some o, Some i ->
        let preds = canon_conjuncts (P.join_pred p) in
        let sub = { (merge o i) with spreds = o.spreds @ i.spreds @ preds } in
        (match join_shape kind ~outer_aliases:(List.map fst o.srels) with
         | None -> record_spj sub
         | Some shape -> record_shaped shape sub)
      | _ -> None
    in
    match p with
    | P.Seq_scan { table; alias; filter } ->
      if Storage.Catalog.is_temp_table table then None
      else
        record_spj
          { srels = [ (alias, table) ];
            spreds =
              (match filter with None -> [] | Some f -> canon_conjuncts f);
            stables = [ table ] }
    | P.Index_scan { table; alias; filter; _ } ->
      if Storage.Catalog.is_temp_table table then None
      else
        record_spj
          { srels = [ (alias, table) ];
            spreds =
              canon_conjuncts (P.range_pred p)
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
    | P.Nested_loop { kind; outer; inner; _ }
    | P.Merge_join { kind; left = outer; right = inner; _ }
    | P.Hash_join { kind; left = outer; right = inner; _ } ->
      join_sub kind ~outer:(go outer) ~inner:(go inner)
    | P.Index_nl { kind; outer; table; alias; _ } ->
      if Storage.Catalog.is_temp_table table then (ignore (go outer); None)
      else
        let inner =
          Some { srels = [ (alias, table) ]; spreds = []; stables = [ table ] }
        in
        join_sub kind ~outer:(go outer) ~inner
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
      | P.Index_scan { table; alias; filter; _ } ->
        let base = table_stats cat db table alias in
        let ranged =
          match P.range_pred p with
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
      | P.Nested_loop { kind; outer; inner; _ }
      | P.Merge_join { kind; left = outer; right = inner; _ }
      | P.Hash_join { kind; left = outer; right = inner; _ } ->
        let so = go outer in
        let si = go inner in
        Stats.Derive.join ?asm kind so si (P.join_pred p)
      | P.Index_nl { kind; outer; table; alias; _ } ->
        let so = go outer in
        Stats.Derive.join ?asm kind so (table_stats cat db table alias)
          (P.join_pred p)
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
  Option.map (fun s -> s.Stats.Derive.card) (List.assq_opt p t)

let pages (t : t) (p : Exec.Plan.t) : float option =
  Option.map Stats.Derive.pages (List.assq_opt p t)

(* Push estimates onto an instrument recorder's operators. *)
let attach (t : t) (r : Exec.Instrument.t) : unit =
  List.iter
    (fun (o : Exec.Instrument.op) ->
       o.Exec.Instrument.est_rows <- card t o.Exec.Instrument.node)
    (Exec.Instrument.ops r)
