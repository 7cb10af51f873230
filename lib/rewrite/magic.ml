(* Magic / semijoin-like decorrelation for multi-block queries
   (Section 4.3, after [42,56]): when a query joins an aggregating view on
   the view's group-by key, compute the rest of the query first
   (PartialResult), project its distinct join keys (Filter), and restrict
   the view's computation to those keys (LimitedView).

   This reproduces the paper's DepAvgSal example:

     CREATE VIEW DepAvgSal AS
       (SELECT E.did, AVG(E.sal) AS avgsal FROM Emp E GROUP BY E.did)
     SELECT E.eid, E.sal FROM Emp E, Dept D, DepAvgSal V
     WHERE E.did = D.did AND E.did = V.did
       AND E.age < 30 AND D.budget > 100k AND E.sal > V.avgsal
   ==>
     PartialResult = joins/filters among {E, D};
     Filter        = SELECT DISTINCT did FROM PartialResult;
     LimitedV      = view with Filter joined in on its group key;
     final         = PartialResult x LimitedV on the key. *)

open Relalg

(* The magic (filter) set: the distinct values [keys] take over [from]
   restricted by [where] — the only values a restricted computation needs
   to cover. *)
let filter_set ~from ?(where = []) keys =
  { (Qgm.simple ~select:keys ~from ~where ()) with Qgm.distinct = true }

let apply (b : Qgm.block) : Qgm.block option =
  if b.Qgm.group_by <> [] || b.Qgm.aggs <> [] then None
  else if b.Qgm.semijoins <> [] || b.Qgm.outerjoins <> [] then None
  else if not (List.for_all (function Qgm.P _ -> true | _ -> false) b.Qgm.where)
  then None
  else begin
    (* find an aggregating derived source V grouped by a single key, joined
       to the rest on that key *)
    let preds = Qgm.plain_preds b.Qgm.where in
    let find_view () =
      List.find_map
        (fun src ->
           match src with
           | Qgm.Derived { block = view; alias }
             when view.Qgm.aggs <> []
                  && List.length view.Qgm.group_by = 1
                  && (not (Qgm.is_correlated view))
                  && List.for_all
                       (function Qgm.Base _ -> true | Qgm.Derived _ -> false)
                       view.Qgm.from
                     (* all-Base sources: also prevents re-application to an
                        already-limited view *)
                  && Qgm.is_simple_spj
                       { view with Qgm.aggs = []; group_by = [];
                         select = view.Qgm.select } ->
             (* output name of the group key *)
             let key_alias = snd (List.hd view.Qgm.group_by) in
             let key_out =
               List.find_map
                 (fun (e, out) ->
                    match e with
                    | Expr.Col { Expr.rel = ""; col } when col = key_alias ->
                      Some out
                    | _ -> None)
                 view.Qgm.select
             in
             (match key_out with
              | None -> None
              | Some key_out ->
                (* a join predicate V.key_out = <other>.c *)
                List.find_map
                  (fun p ->
                     match p with
                     | Expr.Cmp (Expr.Eq, Expr.Col x, Expr.Col y)
                       when x.Expr.rel = alias && x.Expr.col = key_out
                            && y.Expr.rel <> alias ->
                       Some (src, view, alias, key_out, p, y)
                     | Expr.Cmp (Expr.Eq, Expr.Col y, Expr.Col x)
                       when x.Expr.rel = alias && x.Expr.col = key_out
                            && y.Expr.rel <> alias ->
                       Some (src, view, alias, key_out, p, y)
                     | _ -> None)
                  preds)
           | Qgm.Derived _ | Qgm.Base _ -> None)
        b.Qgm.from
    in
    match find_view () with
    | None -> None
    | Some (v_src, view, v_alias, key_out, link_pred, outer_key_col) ->
      let others = List.filter (fun s -> s != v_src) b.Qgm.from in
      if others = [] then None
      else begin
        let other_aliases = List.map Qgm.alias_of_source others in
        (* predicates among the other sources only *)
        let among_others, rest =
          List.partition
            (fun p ->
               p != link_pred
               && Expr.relations p <> []
               && List.for_all (fun r -> List.mem r other_aliases)
                    (Expr.relations p))
            (List.filter (fun p -> p != link_pred) preds)
        in
        (* PartialResult: the others joined and filtered, exporting every
           column the rest of the query needs *)
        let pr_alias = Qgm.fresh_alias "partial" in
        let needed_cols =
          List.concat_map Expr.columns
            (List.map fst b.Qgm.select @ rest
             @ [ Expr.Col outer_key_col ]
             @ List.map fst b.Qgm.order_by)
          |> List.filter (fun (c : Expr.col_ref) ->
              List.mem c.Expr.rel other_aliases)
          |> List.sort_uniq compare
        in
        let export_name (c : Expr.col_ref) =
          Printf.sprintf "%s_%s" c.Expr.rel c.Expr.col
        in
        let partial =
          Qgm.simple
            ~select:
              (List.map
                 (fun (c : Expr.col_ref) -> (Expr.Col c, export_name c))
                 needed_cols)
            ~from:others ~where:among_others ()
        in
        (* Filter: distinct join keys of PartialResult *)
        let f_alias = Qgm.fresh_alias "filter" in
        let filter_block =
          filter_set
            ~from:[ Qgm.Derived { block = partial; alias = pr_alias } ]
            [ (Expr.col ~rel:pr_alias ~col:(export_name outer_key_col), "key") ]
        in
        (* LimitedView: the view restricted by the Filter on its group key *)
        let key_expr = fst (List.hd view.Qgm.group_by) in
        let limited =
          { view with
            Qgm.from =
              view.Qgm.from
              @ [ Qgm.Derived { block = filter_block; alias = f_alias } ];
            where =
              view.Qgm.where
              @ [ Qgm.P (Expr.Cmp (Expr.Eq, key_expr,
                                   Expr.col ~rel:f_alias ~col:"key")) ] }
        in
        (* final block over PartialResult and LimitedView *)
        let map =
          List.map
            (fun (c : Expr.col_ref) ->
               (c, Expr.col ~rel:pr_alias ~col:(export_name c)))
            needed_cols
        in
        let s e = Qgm.subst_expr map e in
        Some
          { b with
            Qgm.from =
              [ Qgm.Derived { block = partial; alias = pr_alias };
                Qgm.Derived { block = limited; alias = v_alias } ];
            where =
              Qgm.P
                (Expr.Cmp (Expr.Eq,
                           Expr.col ~rel:pr_alias ~col:(export_name outer_key_col),
                           Expr.col ~rel:v_alias ~col:key_out))
              :: List.map (fun e -> Qgm.P (s e)) rest;
            select = List.map (fun (e, a) -> (s e, a)) b.Qgm.select;
            order_by = List.map (fun (e, d) -> (s e, d)) b.Qgm.order_by }
      end
  end

let rule : Rules.t = { name = "magic_decorrelation"; apply }
