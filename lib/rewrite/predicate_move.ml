(* Predicate pushdown and move-around (Section 4.3's degenerate case,
   generalized in [36]):
   - push a conjunct that only references one derived source's columns into
     that source's WHERE (through the select-list renaming);
   - propagate constants through equality classes: from R.a = S.b and
     R.a = 5 derive S.b = 5. *)

open Relalg

(* Push outer conjuncts into a derived FROM source when every referenced
   column belongs to that source and maps to a plain column or expression.
   Grouped views accept only predicates on their group-by output columns;
   no view accepts one on a column defined over its outerjoin sources. *)
let pushdown (b : Qgm.block) : Qgm.block option =
  let derived =
    List.filter_map
      (function Qgm.Derived { block; alias } -> Some (alias, block) | Qgm.Base _ -> None)
      b.Qgm.from
  in
  if derived = [] then None
  else begin
    let try_push (alias, (view : Qgm.block)) =
      (* output column -> defining expression, but only columns that are
         safe to filter early: any column for SPJ views, group-by key
         columns for aggregating views *)
      let oj_aliases =
        List.map
          (fun (oj : Qgm.outerjoin) -> Qgm.alias_of_source oj.Qgm.o_source)
          view.Qgm.outerjoins
      in
      (* the view's WHERE runs before its outerjoins attach: a column over
         an outer-joined source is not yet padded there *)
      let before_outerjoins e =
        not (List.exists (fun r -> List.mem r oj_aliases) (Expr.relations e))
      in
      let safe_outputs =
        if view.Qgm.aggs = [] && view.Qgm.group_by = [] then
          List.filter (fun (e, _) -> before_outerjoins e) view.Qgm.select
        else
          (* only predicates on group-by keys may cross an aggregation *)
          List.filter
            (fun (e, _) ->
               match e with
               | Expr.Col { Expr.rel = ""; col } ->
                 List.exists
                   (fun (ke, k) -> k = col && before_outerjoins ke)
                   view.Qgm.group_by
               | _ -> false)
            view.Qgm.select
      in
      let resolvable (c : Expr.col_ref) =
        c.Expr.rel = alias && List.exists (fun (_, a) -> a = c.Expr.col) safe_outputs
      in
      let pushable, kept =
        List.partition
          (function
            | Qgm.P e ->
              let cols = Expr.columns e in
              cols <> [] && List.for_all resolvable cols
            | Qgm.In_sub _ | Qgm.Exists_sub _ | Qgm.Cmp_sub _ -> false)
          b.Qgm.where
      in
      if pushable = [] then None
      else begin
        (* rewrite pushed predicates into the view's namespace *)
        let inner_of (c : Expr.col_ref) =
          let e, _ = List.find (fun (_, a) -> a = c.Expr.col) view.Qgm.select in
          (* for grouped views the select references grouped output; pushing
             below the grouping needs the key's defining expression *)
          match e with
          | Expr.Col { Expr.rel = ""; col } when view.Qgm.group_by <> [] -> (
            match List.find_opt (fun (_, k) -> k = col) view.Qgm.group_by with
            | Some (ke, _) -> ke
            | None -> e)
          | _ -> e
        in
        let subst e =
          let map =
            Expr.columns e |> List.map (fun c -> (c, inner_of c))
          in
          Qgm.subst_expr map e
        in
        let pushed_exprs =
          List.map
            (function Qgm.P e -> subst e | _ -> assert false)
            pushable
        in
        let view' =
          { view with
            Qgm.where =
              view.Qgm.where @ List.map (fun e -> Qgm.P e) pushed_exprs }
        in
        let from' =
          List.map
            (function
              | Qgm.Derived { alias = a; _ } when a = alias ->
                Qgm.Derived { block = view'; alias }
              | s -> s)
            b.Qgm.from
        in
        Some { b with Qgm.from = from'; where = kept }
      end
    in
    List.find_map try_push derived
  end

let pushdown_rule : Rules.t = { name = "predicate_pushdown"; apply = pushdown }

(* Transitive constant propagation across equality conjuncts. *)
let move_constants (b : Qgm.block) : Qgm.block option =
  let plain = Qgm.plain_preds b.Qgm.where in
  let eqs =
    List.filter_map
      (function
        | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col c) -> Some (a, c)
        | _ -> None)
      plain
  in
  let consts =
    List.filter_map
      (function
        | Expr.Cmp (Expr.Eq, Expr.Col a, (Expr.Const _ as v)) -> Some (a, v)
        | Expr.Cmp (Expr.Eq, (Expr.Const _ as v), Expr.Col a) -> Some (a, v)
        | _ -> None)
      plain
  in
  (* one-step closure: a = c and a = const  ==>  c = const *)
  let new_preds =
    List.concat_map
      (fun (a, c) ->
         let derive src dst =
           List.filter_map
             (fun (col, v) ->
                if col = src then
                  let p = Expr.Cmp (Expr.Eq, Expr.Col dst, v) in
                  if List.exists (fun q -> q = p) plain then None else Some p
                else None)
             consts
         in
         derive a c @ derive c a)
      eqs
    |> List.sort_uniq compare
  in
  if new_preds = [] then None
  else
    Some
      { b with
        Qgm.where = b.Qgm.where @ List.map (fun e -> Qgm.P e) new_preds }

let constants_rule : Rules.t =
  { name = "constant_propagation"; apply = move_constants }
