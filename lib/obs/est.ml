(* Post-hoc cardinality annotation of physical plans.

   The enumerator costs logical subsets, not physical nodes, so the
   per-node estimates that EXPLAIN ANALYZE compares against, the plan
   lint checks and the parallel scheduler sizes segments from are
   re-derived here: one bottom-up pass over the final plan through the
   same [Stats.Derive] propagation the optimizer used.  This is the only
   module that runs [Stats.Derive] over physical plan nodes.  The pass is
   pure apart from feedback-cache lookups, and must run while the
   catalog/stats still contain any temporary tables the plan scans
   (materialized views are dropped after execution). *)

open Relalg

(* Per node in preorder, so index = operator id: the estimate and, when
   annotated against a feedback cache, the node's feedback key. *)
type t = {
  nodes : Exec.Plan.t array;
  stats : Stats.Derive.rel_stats array;
  keys : (Stats.Feedback.key * string list) option array;
}

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

(* One node's key step: the subtree's composition ([None] once it
   touches a temporary) and the key the node records under, if any. *)
let key_step (p : Exec.Plan.t) (kids : sub option list) :
  sub option * (Stats.Feedback.key * string list) option =
  let module P = Exec.Plan in
  let spj sub =
    ( Some sub,
      Some (Stats.Feedback.key ~shape:"spj" ~rels:sub.srels ~preds:sub.spreds,
            sub.stables) )
  in
  (* collapse a non-SPJ operator into a pseudo-relation keyed by its own
     digest so enclosing SPJ composition stays well defined *)
  let shaped shape sub =
    let key = Stats.Feedback.key ~shape ~rels:sub.srels ~preds:sub.spreds in
    (Some { sub with srels = [ ("", "#" ^ key) ]; spreds = [] },
     Some (key, sub.stables))
  in
  let on kid f = match kid with None -> (None, None) | Some sub -> f sub in
  let join_sub kind outer inner =
    match (outer, inner) with
    | Some o, Some i ->
      let sub =
        { srels = o.srels @ i.srels;
          spreds = o.spreds @ i.spreds @ canon_conjuncts (P.join_pred p);
          stables = o.stables @ i.stables }
      in
      let outer_aliases = List.sort compare (List.map fst o.srels) in
      let tag =
        match (kind : Algebra.join_kind) with
        | Algebra.Inner -> None
        | Algebra.Semi -> Some "semi"
        | Algebra.Anti -> Some "anti"
        | Algebra.Left_outer -> Some "outer"
      in
      (match tag with
       | None -> spj sub
       | Some t ->
         shaped (t ^ "[" ^ String.concat "," outer_aliases ^ "]") sub)
    | _ -> (None, None)
  in
  let filter_preds = function None -> [] | Some f -> canon_conjuncts f in
  match (p, kids) with
  | P.Seq_scan { table; alias; filter }, [] ->
    if Storage.Catalog.is_temp_table table then (None, None)
    else
      spj { srels = [ (alias, table) ]; spreds = filter_preds filter;
            stables = [ table ] }
  | P.Index_scan { table; alias; filter; _ }, [] ->
    if Storage.Catalog.is_temp_table table then (None, None)
    else
      spj { srels = [ (alias, table) ];
            spreds = canon_conjuncts (P.range_pred p) @ filter_preds filter;
            stables = [ table ] }
  | P.Filter (f, _), [ i ] ->
    on i (fun sub -> spj { sub with spreds = sub.spreds @ canon_conjuncts f })
  | (P.Project _ | P.Sort _ | P.Materialize _), [ i ] ->
    (* cardinality-transparent: share the child's key *)
    on i spj
  | P.Hash_distinct _, [ i ] -> on i (shaped "distinct")
  | ( ( P.Nested_loop { kind; _ } | P.Merge_join { kind; _ }
      | P.Hash_join { kind; _ } ),
      [ outer; inner ] ) ->
    join_sub kind outer inner
  | P.Index_nl { kind; table; alias; _ }, [ outer ] ->
    if Storage.Catalog.is_temp_table table then (None, None)
    else
      join_sub kind outer
        (Some { srels = [ (alias, table) ]; spreds = []; stables = [ table ] })
  | (P.Hash_agg { keys; _ } | P.Stream_agg { keys; _ }), [ i ] ->
    let shape =
      "group["
      ^ String.concat ","
          (List.sort compare (List.map (fun (e, _) -> Expr.to_string e) keys))
      ^ "]"
    in
    on i (shaped shape)
  | _ -> invalid_arg "Obs.Est: child count does not match the node"

let feedback_keys (plan : Exec.Plan.t) :
  (Exec.Plan.t * (Stats.Feedback.key * string list)) list =
  let keys =
    Exec.Plan.bottom_up (fun p kids -> key_step p (List.map fst kids)) plan
  in
  List.concat
    (List.mapi
       (fun id node ->
          match snd keys.(id) with None -> [] | Some k -> [ (node, k) ])
       (Exec.Plan.preorder plan))

(* One node's estimate from its children's. *)
let derive_step ?asm cat db (p : Exec.Plan.t)
    (kids : Stats.Derive.rel_stats list) : Stats.Derive.rel_stats =
  let module P = Exec.Plan in
  let filtered ?filter s =
    match filter with None -> s | Some f -> Stats.Derive.apply_select ?asm s f
  in
  match (p, kids) with
  | P.Seq_scan { table; alias; filter }, [] ->
    filtered ?filter (table_stats cat db table alias)
  | P.Index_scan { table; alias; filter; _ }, [] ->
    let base = table_stats cat db table alias in
    let ranged =
      match P.range_pred p with
      | Expr.Const (Value.Bool true) -> base
      | pred -> Stats.Derive.apply_select ?asm base pred
    in
    filtered ?filter ranged
  | P.Filter (f, _), [ i ] -> Stats.Derive.apply_select ?asm i f
  | P.Project (items, _), [ i ] -> Stats.Derive.project i items
  | (P.Sort _ | P.Materialize _), [ i ] -> i
  | P.Hash_distinct _, [ i ] -> Stats.Derive.distinct i
  | ( ( P.Nested_loop { kind; _ } | P.Merge_join { kind; _ }
      | P.Hash_join { kind; _ } ),
      [ outer; inner ] ) ->
    Stats.Derive.join ?asm kind outer inner (P.join_pred p)
  | P.Index_nl { kind; table; alias; _ }, [ outer ] ->
    Stats.Derive.join ?asm kind outer (table_stats cat db table alias)
      (P.join_pred p)
  | (P.Hash_agg { keys; aggs; _ } | P.Stream_agg { keys; aggs; _ }), [ i ] ->
    Stats.Derive.group i ~keys ~aggs
  | _ -> invalid_arg "Obs.Est: child count does not match the node"

let annotate ?asm ?feedback (cat : Storage.Catalog.t)
    (db : Stats.Table_stats.db) (plan : Exec.Plan.t) : t =
  (* feedback keys are only worked out when there is a cache to consult;
     a fresh observed cardinality overrides the derived one and
     propagates upward, exactly as in the optimizer *)
  let step p kids =
    let stats =
      derive_step ?asm cat db p (List.map (fun (_, s, _) -> s) kids)
    in
    match feedback with
    | None -> (None, stats, None)
    | Some fb ->
      let sub, key = key_step p (List.map (fun (sub, _, _) -> sub) kids) in
      let stats =
        match key with
        | None -> stats
        | Some (k, _) -> (
          match Stats.Feedback.lookup fb ~db k with
          | Stats.Feedback.Hit act -> { stats with Stats.Derive.card = act }
          | Stats.Feedback.Stale | Stats.Feedback.Miss -> stats)
      in
      (sub, stats, key)
  in
  let per_node = Exec.Plan.bottom_up step plan in
  { nodes = Array.of_list (Exec.Plan.preorder plan);
    stats = Array.map (fun (_, s, _) -> s) per_node;
    keys = Array.map (fun (_, _, k) -> k) per_node }

let find (t : t) (p : Exec.Plan.t) : Stats.Derive.rel_stats option =
  Option.map (Array.get t.stats) (Exec.Plan.find_id t.nodes p)

let card (t : t) (p : Exec.Plan.t) : float option =
  Option.map (fun s -> s.Stats.Derive.card) (find t p)

let pages (t : t) (p : Exec.Plan.t) : float option =
  Option.map Stats.Derive.pages (find t p)

let feedback_key (t : t) (id : int) :
  (Stats.Feedback.key * string list) option =
  t.keys.(id)

(* Push estimates onto an instrument recorder's operators, by op id; a
   recorder over another plan gets none. *)
let attach (t : t) (r : Exec.Instrument.t) : unit =
  List.iter
    (fun (o : Exec.Instrument.op) ->
       let id = o.Exec.Instrument.id in
       o.Exec.Instrument.est_rows <-
         (if id < Array.length t.nodes
             && t.nodes.(id) == o.Exec.Instrument.node
          then Some t.stats.(id).Stats.Derive.card
          else None))
    (Exec.Instrument.ops r)
