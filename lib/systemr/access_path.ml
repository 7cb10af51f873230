(* Access-path selection for a single relation (Section 3): sequential scan
   versus index scans, with sargable conjuncts turned into index bounds and
   the remainder applied as residual filters. *)

open Relalg

(* Bounds extracted from conjuncts of shape [col CMP const]. *)
type bounds = { lo : Exec.Plan.bound; hi : Exec.Plan.bound; used : Expr.t list }

let no_bounds = { lo = Exec.Plan.Unbounded; hi = Exec.Plan.Unbounded; used = [] }

let tighten_lo cur v incl =
  match cur with
  | Exec.Plan.Unbounded -> if incl then Exec.Plan.Incl v else Exec.Plan.Excl v
  | Exec.Plan.Incl w | Exec.Plan.Excl w ->
    if Value.compare v w > 0 then
      if incl then Exec.Plan.Incl v else Exec.Plan.Excl v
    else cur

let tighten_hi cur v incl =
  match cur with
  | Exec.Plan.Unbounded -> if incl then Exec.Plan.Incl v else Exec.Plan.Excl v
  | Exec.Plan.Incl w | Exec.Plan.Excl w ->
    if Value.compare v w < 0 then
      if incl then Exec.Plan.Incl v else Exec.Plan.Excl v
    else cur

(* Collect bounds on [alias.column] from local conjuncts. *)
let sargable ~alias ~column (preds : Expr.t list) : bounds =
  List.fold_left
    (fun b p ->
       match p with
       | Expr.Cmp (op, Expr.Col c, Expr.Const v)
         when c.Expr.rel = alias && c.Expr.col = column
              && not (Value.is_null v) -> (
         match op with
         | Expr.Eq ->
           { lo = tighten_lo b.lo v true; hi = tighten_hi b.hi v true;
             used = p :: b.used }
         | Expr.Lt -> { b with hi = tighten_hi b.hi v false; used = p :: b.used }
         | Expr.Le -> { b with hi = tighten_hi b.hi v true; used = p :: b.used }
         | Expr.Gt -> { b with lo = tighten_lo b.lo v false; used = p :: b.used }
         | Expr.Ge -> { b with lo = tighten_lo b.lo v true; used = p :: b.used }
         | Expr.Neq -> b)
       | _ -> b)
    no_bounds preds

(* Candidate access paths and the (logical) post-filter statistics of the
   relation. *)
let candidates (params : Cost.Cost_model.params) (asm : Stats.Derive.assumption)
    (cat : Storage.Catalog.t) (db : Stats.Table_stats.db)
    (rel : Spj.relation) (local_preds : Expr.t list) :
  Candidate.t list * Stats.Derive.rel_stats =
  let table = Storage.Catalog.table cat rel.Spj.table in
  let base_stats =
    Stats.Derive.of_table (Stats.Table_stats.for_table db table)
      ~alias:rel.Spj.alias ~schema:rel.Spj.schema
  in
  let filtered_stats =
    match local_preds with
    | [] -> base_stats
    | ps -> Stats.Derive.apply_select ~asm base_stats (Pred.of_conjuncts ps)
  in
  let rows = base_stats.Stats.Derive.card in
  let pages = float_of_int (Storage.Table.page_count table) in
  let filter_of = function [] -> None | ps -> Some (Pred.of_conjuncts ps) in
  (* sequential scan *)
  let seq =
    { Candidate.plan =
        Exec.Plan.Seq_scan
          { table = rel.Spj.table; alias = rel.Spj.alias;
            filter = filter_of local_preds };
      cost = Cost.Cost_model.seq_scan params ~pages ~rows;
      order = [] }
  in
  (* one candidate per index: bounded scan if sargable, else full ordered
     scan (valuable for interesting orders) *)
  let index_cands =
    List.map
      (fun (idx : Storage.Btree.t) ->
         let column = Storage.Btree.column idx in
         let b = sargable ~alias:rel.Spj.alias ~column local_preds in
         let residual =
           List.filter (fun p -> not (List.memq p b.used)) local_preds
         in
         let matches =
           match b.used with
           | [] -> rows
           | ps ->
             rows
             *. Stats.Derive.selectivity ~asm base_stats (Pred.of_conjuncts ps)
         in
         let cost =
           Cost.Cost_model.index_scan params
             ~clustered:idx.Storage.Btree.clustered ~pages ~rows ~matches
         in
         { Candidate.plan =
             Exec.Plan.Index_scan
               { table = rel.Spj.table; alias = rel.Spj.alias; column;
                 lo = b.lo; hi = b.hi; filter = filter_of residual };
           cost;
           order =
             [ ({ Expr.rel = rel.Spj.alias; col = column }, Algebra.Asc) ] })
      (Storage.Catalog.indexes cat rel.Spj.table)
  in
  let f = Candidate.frontier [] in
  List.iter (Candidate.insert ~interesting_orders:true f) (seq :: index_cands);
  (f.Candidate.cands, filtered_stats)
