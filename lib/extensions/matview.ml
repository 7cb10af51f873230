(* Materialized views (Section 7.3, after [15,9]): given stored results of
   SPJ view definitions, rewrite a query to read a view instead of its base
   relations when the view subsumes that part of the query, and choose
   between the original and rewritten forms cost-based.

   Matching is the classical syntactic containment test for conjunctive
   views:
   - the view's relations are a subset of the query's (matched by table
     name with a consistent alias mapping);
   - every view predicate appears among the query's predicates (after
     alias mapping);
   - every query column over the view's relations that the rest of the
     query needs is in the view's projection. *)

open Relalg

type view = {
  name : string;
  definition : Systemr.Spj.t;
  table : string; (* materialized storage *)
}

(* Execute an SPJ definition and store it as a table named [name]. *)
let materialize (cat : Storage.Catalog.t) (db : Stats.Table_stats.db)
    ~name (definition : Systemr.Spj.t) : view =
  let res = Systemr.Join_order.optimize cat db definition in
  let out =
    Exec.Executor.run cat res.Systemr.Join_order.best.Systemr.Candidate.plan
  in
  let columns =
    List.map
      (fun (c : Schema.column) ->
         ( (if c.Schema.rel = "" then c.Schema.name
            else Printf.sprintf "%s_%s" c.Schema.rel c.Schema.name),
           c.Schema.ty ))
      out.Exec.Executor.schema
  in
  let table = Storage.Catalog.create_table cat ~name ~columns in
  Array.iter (Storage.Table.insert table) out.Exec.Executor.rows;
  Hashtbl.replace db name (Stats.Table_stats.analyze table);
  { name; definition; table = name }

(* Column name in the materialized table for a view-output column. *)
let stored_column (v : view) (c : Expr.col_ref) : string option =
  match v.definition.Systemr.Spj.projections with
  | Some items ->
    List.find_map
      (fun (e, alias) ->
         match e with
         | Expr.Col c' when c' = c -> Some alias
         | _ -> None)
      items
  | None ->
    (* SELECT *: stored as rel_col *)
    if
      List.exists
        (fun (r : Systemr.Spj.relation) -> r.Systemr.Spj.alias = c.Expr.rel)
        v.definition.Systemr.Spj.relations
    then Some (Printf.sprintf "%s_%s" c.Expr.rel c.Expr.col)
    else None

let expr_equal (a : Expr.t) (b : Expr.t) = a = b

(* Try to rewrite [q] to use [v].  Aliases must match the view definition's
   aliases (the common case when both come from the same view text). *)
let rewrite (v : view) (q : Systemr.Spj.t) : Systemr.Spj.t option =
  let vd = v.definition in
  let v_aliases = Systemr.Spj.relation_aliases vd in
  (* 1. the view's relations appear in the query with identical aliases and
     tables *)
  let covers =
    List.for_all
      (fun (vr : Systemr.Spj.relation) ->
         List.exists
           (fun (qr : Systemr.Spj.relation) ->
              qr.Systemr.Spj.alias = vr.Systemr.Spj.alias
              && qr.Systemr.Spj.table = vr.Systemr.Spj.table)
           q.Systemr.Spj.relations)
      vd.Systemr.Spj.relations
  in
  if not covers then None
  else begin
    (* 2. every view predicate is among the query's predicates *)
    let v_preds_present =
      List.for_all
        (fun vp -> List.exists (expr_equal vp) q.Systemr.Spj.predicates)
        vd.Systemr.Spj.predicates
    in
    if not v_preds_present then None
    else begin
      (* 3. remaining query pieces over view relations must be answerable
         from the view's projection *)
      let residual_preds =
        List.filter
          (fun qp -> not (List.exists (expr_equal qp) vd.Systemr.Spj.predicates))
          q.Systemr.Spj.predicates
      in
      let needed_cols =
        List.concat_map Expr.columns
          (residual_preds
           @ (match q.Systemr.Spj.projections with
              | Some items -> List.map fst items
              | None ->
                List.concat_map
                  (fun (r : Systemr.Spj.relation) ->
                     if List.mem r.Systemr.Spj.alias v_aliases then
                       List.map
                         (fun (c : Schema.column) ->
                            Expr.Col { Expr.rel = r.Systemr.Spj.alias;
                                       col = c.Schema.name })
                         r.Systemr.Spj.schema
                     else [])
                  q.Systemr.Spj.relations))
        |> List.filter (fun (c : Expr.col_ref) -> List.mem c.Expr.rel v_aliases)
        |> List.sort_uniq compare
      in
      let mapping =
        List.map (fun c -> (c, stored_column v c)) needed_cols
      in
      if List.exists (fun (_, m) -> m = None) mapping then None
      else begin
        let map =
          List.map
            (fun (c, m) ->
               (c, Expr.col ~rel:v.name ~col:(Option.get m)))
            mapping
        in
        let subst =
          Expr.map (function
            | Expr.Col c as e -> Option.value (List.assoc_opt c map) ~default:e
            | e -> e)
        in
        let view_rel_schema =
          (* schema of the stored table, qualified by the view name *)
          []
        in
        ignore view_rel_schema;
        let remaining_relations =
          List.filter
            (fun (r : Systemr.Spj.relation) ->
               not (List.mem r.Systemr.Spj.alias v_aliases))
            q.Systemr.Spj.relations
        in
        Some
          { Systemr.Spj.relations =
              remaining_relations
              @ [ { Systemr.Spj.alias = v.name; table = v.table;
                    schema = [] (* filled by the caller via catalog *) } ];
            predicates = List.map subst residual_preds;
            projections =
              Option.map
                (List.map (fun (e, a) -> (subst e, a)))
                q.Systemr.Spj.projections;
            order_by =
              List.map
                (fun (c, d) ->
                   match List.find_opt (fun (c', _) -> c' = c) map with
                   | Some (_, Expr.Col c2) -> (c2, d)
                   | _ -> (c, d))
                q.Systemr.Spj.order_by }
      end
    end
  end

(* Fill in catalog schemas for rewritten relations. *)
let resolve_schemas cat (q : Systemr.Spj.t) : Systemr.Spj.t =
  { q with
    Systemr.Spj.relations =
      List.map
        (fun (r : Systemr.Spj.relation) ->
           if r.Systemr.Spj.schema = [] then
             { r with
               Systemr.Spj.schema =
                 Schema.requalify
                   (Storage.Catalog.table cat r.Systemr.Spj.table).Storage.Table.schema
                   ~rel:r.Systemr.Spj.alias }
           else r)
        q.Systemr.Spj.relations }

type choice = {
  plan : Exec.Plan.t;
  cost : float;
  used_view : string option;
}

(* Cost-based selection between the original query and each view rewrite. *)
let optimize_with_views ?(config = Systemr.Join_order.default_config) cat db
    (views : view list) (q : Systemr.Spj.t) : choice =
  let base = Systemr.Join_order.optimize ~config cat db q in
  let best =
    ref
      { plan = base.Systemr.Join_order.best.Systemr.Candidate.plan;
        cost = base.Systemr.Join_order.best.Systemr.Candidate.cost;
        used_view = None }
  in
  List.iter
    (fun v ->
       match rewrite v q with
       | None -> ()
       | Some q' ->
         let q' = resolve_schemas cat q' in
         let r = Systemr.Join_order.optimize ~config cat db q' in
         if r.Systemr.Join_order.best.Systemr.Candidate.cost < !best.cost then
           best :=
             { plan = r.Systemr.Join_order.best.Systemr.Candidate.plan;
               cost = r.Systemr.Join_order.best.Systemr.Candidate.cost;
               used_view = Some v.name })
    views;
  !best
