(* Plan Lint facade: physical plan linting re-exported, plus the
   QGM-level checks used as the rewrite oracle. *)

open Relalg
module Qgm = Rewrite.Qgm

module Diag = Diag
module Physical = Physical

let physical = Physical.check

(* ------------------------------------------------------------------ *)
(* Non-raising QGM schemas *)

(* What select, having and order-by see, given the block's sources: the
   grouped schema when grouping, else the sources. *)
let safe_scope inner (b : Qgm.block) : Schema.t =
  if b.Qgm.aggs = [] && b.Qgm.group_by = [] then inner
  else fst (Physical.columns inner b.Qgm.group_by b.Qgm.aggs)

(* A block's output columns, given what its select list sees. *)
let output_schema scope (b : Qgm.block) : Schema.t =
  fst (Physical.columns scope b.Qgm.select [])

let rec safe_block_schema (b : Qgm.block) : Schema.t =
  output_schema (safe_scope (safe_inner_schema b) b) b

and safe_inner_schema (b : Qgm.block) : Schema.t =
  List.concat_map safe_source_schema b.Qgm.from
  @ List.concat_map
      (fun (oj : Qgm.outerjoin) -> safe_source_schema oj.Qgm.o_source)
      b.Qgm.outerjoins

and safe_source_schema = function
  | Qgm.Base { schema; _ } -> schema
  | Qgm.Derived { block; alias } ->
    Schema.requalify (safe_block_schema block) ~rel:alias

(* ------------------------------------------------------------------ *)
(* QGM block well-formedness *)

(* An output column's type and typing errors.  One whose type cannot be
   determined (e.g. a bare NULL literal) silently falls back to int in
   [safe_block_schema]; surface that instead of hiding it.  Only fires
   when typing reported no error — a column that fails to resolve is
   already reported. *)
let output show env ((e, a) : Expr.t * string) : Value.ty option * Diag.t list
  =
  match Typing.check ~show env e with
  | None, [] ->
    ( None,
      [ Diag.warning ~code:"unknown-column-type"
          (Fmt.str
             "output column %S has an undeterminable type; the schema falls \
              back to int"
             a) ] )
  | ty, errors -> (ty, Diag.of_typing errors)

(* A grouped block's keys and aggregates are named in messages by their
   SQL text ([COUNT( * )]), not by their output aliases ([agg0]). *)
let display (b : Qgm.block) : Expr.t -> string =
  if b.Qgm.group_by = [] && b.Qgm.aggs = [] then Expr.to_string
  else fun e ->
    let text =
      List.map (fun (e, a) -> (a, Expr.to_string e)) b.Qgm.group_by
      @ List.map (fun (g, a) -> (a, Fmt.str "%a" Expr.pp_agg g)) b.Qgm.aggs
    in
    Expr.to_string
      (Expr.map
         (function
           | Expr.Col { Expr.rel = ""; col } as e -> (
             match List.assoc_opt col text with
             | Some t -> Expr.col ~rel:"" ~col:t
             | None -> e)
           | e -> e)
         e)

(* A block's output has one column per select item. *)
let subquery_arity n (blk : Qgm.block) =
  let arity = List.length blk.Qgm.select in
  if arity = n then []
  else
    [ Diag.error ~code:"subquery-arity"
        (Fmt.str "subquery produces %d columns, expected %d" arity n) ]

(* One pass over a block and everything nested in it, each schema built
   once: the block's diagnostics, the scope its select list sees (without
   [outer]) and its output columns' types in that scope plus [outer].  A
   subquery's type is its one output's; a derived source's schema is
   built from its scope. *)
let rec check ~outer (b : Qgm.block) :
  Diag.t list * Schema.t * Value.ty option list =
  let show = display b in
  let typing env e = Diag.of_typing (snd (Typing.check ~show env e)) in
  let predicate env e = Diag.of_typing (Typing.check_predicate ~show env e) in
  let from = List.map (source ~outer) b.Qgm.from in
  let semis =
    List.map (fun (sj : Qgm.semijoin) -> source ~outer sj.Qgm.s_source)
      b.Qgm.semijoins
  in
  let outers =
    List.map (fun (oj : Qgm.outerjoin) -> source ~outer oj.Qgm.o_source)
      b.Qgm.outerjoins
  in
  let from_schema = List.concat_map snd from in
  let inner = from_schema @ List.concat_map snd outers in
  (* WHERE runs before semijoins/outerjoins attach, so its
     conjuncts see only the FROM sources plus correlation columns. *)
  let where_env = Schema.concat from_schema outer in
  let check_pred env label (p : Qgm.predicate) =
    match p with
    | Qgm.P e -> Diag.within label (predicate env e)
    | Qgm.In_sub (e, blk) | Qgm.Cmp_sub (_, e, blk) ->
      let ty, errors = Typing.check ~show env e in
      let diags, _, tys = check ~outer:env blk in
      let sub_ty = match tys with [ ty ] -> ty | _ -> None in
      Diag.within label
        (Diag.of_typing
           (errors @ Typing.check_comparison ~show e ty sub_ty)
         @ subquery_arity 1 blk
         @ diags)
    | Qgm.Exists_sub (_, blk) ->
      let diags, _, _ = check ~outer:env blk in
      Diag.within label diags
  in
  let source_diags = List.concat_map fst (from @ semis @ outers) in
  let alias_diags =
    Diag.duplicates ~code:"duplicate-relation-alias" ~what:"relation alias"
      (Qgm.bound_aliases b)
  in
  let where_diags = List.concat_map (check_pred where_env "where") b.Qgm.where in
  (* each semijoin predicate sees the FROM sources plus its own source *)
  let semi_diags =
    List.concat
      (List.map2
         (fun (sj : Qgm.semijoin) (_, schema) ->
            let env = Schema.concat (Schema.concat from_schema schema) outer in
            Diag.within "semijoin" (predicate env sj.Qgm.s_pred))
         b.Qgm.semijoins semis)
  in
  (* outerjoins attach left to right: the nth predicate sees the FROM
     sources and outerjoin sources 0..n *)
  let _, outer_diags =
    List.fold_left2
      (fun (env, acc) (oj : Qgm.outerjoin) (_, schema) ->
         let env = Schema.concat env schema in
         ( env,
           acc
           @ Diag.within "outerjoin"
               (predicate (Schema.concat env outer) oj.Qgm.o_pred) ))
      (from_schema, []) b.Qgm.outerjoins outers
  in
  let group_env = Schema.concat inner outer in
  let group_diags =
    Diag.within "group-by"
      (List.concat_map (fun (e, _) -> typing group_env e) b.Qgm.group_by
       @ List.concat_map
           (fun (g, _) ->
              Diag.of_typing (snd (Typing.check_agg group_env g)))
           b.Qgm.aggs
       @ Diag.duplicates ~code:"duplicate-alias" ~what:"group-by output alias"
           (List.map snd b.Qgm.group_by @ List.map snd b.Qgm.aggs))
  in
  (* select / having / order-by see the grouped schema when grouping *)
  let scope = safe_scope inner b in
  let top_env = Schema.concat scope outer in
  let outputs = List.map (output show top_env) b.Qgm.select in
  let select_diags = Diag.within "select" (List.concat_map snd outputs) in
  let having_diags =
    List.concat_map (check_pred top_env "having") b.Qgm.having
  in
  let order_diags =
    Diag.within "order-by"
      (List.concat_map (fun (e, _) -> typing top_env e) b.Qgm.order_by)
  in
  ( source_diags @ alias_diags @ where_diags @ semi_diags @ outer_diags
    @ group_diags @ select_diags @ having_diags @ order_diags,
    scope,
    List.map fst outputs )

(* A source's diagnostics and its schema. *)
and source ~outer = function
  | Qgm.Base { schema; _ } -> ([], schema)
  | Qgm.Derived { block = blk; alias } ->
    let diags, scope, _ = check ~outer blk in
    (* a view's outputs are referenced by name ([V.x]); a block's own
       outputs are not, so only a view's must be unique *)
    ( Diag.within ("view " ^ alias)
        (diags
         @ Diag.within "select"
             (Diag.duplicates ~code:"duplicate-alias" ~what:"select alias"
                (List.map snd blk.Qgm.select))),
      Schema.requalify (output_schema scope blk) ~rel:alias )

let block ?(outer = []) b =
  let diags, _, _ = check ~outer b in
  diags

(* ------------------------------------------------------------------ *)
(* Semantics preservation *)

let preserves_schema ~(before : Qgm.block) ~(after : Qgm.block) : Diag.t list =
  let sb = safe_block_schema before in
  let sa = safe_block_schema after in
  if Schema.arity sb <> Schema.arity sa then
    [ Diag.error ~code:"schema-change"
        (Fmt.str "output arity changed from %d %a to %d %a" (Schema.arity sb)
           Schema.pp sb (Schema.arity sa) Schema.pp sa) ]
  else
    List.concat
      (List.map2
         (fun (cb : Schema.column) (ca : Schema.column) ->
            if cb.Schema.ty = ca.Schema.ty then []
            else
              [ Diag.error ~code:"schema-change"
                  (Fmt.str "output column %s changed type from %s to %s"
                     ca.Schema.name (Value.ty_name cb.Schema.ty)
                     (Value.ty_name ca.Schema.ty)) ])
         sb sa)

(* The count-bug shape (Section 4.2.2): a rewrite that unnests an
   aggregate subquery inner-joins the aggregate's input into the outer
   block, so outer tuples with no match disappear instead of seeing
   0/NULL — the view must be attached with an outerjoin.  Two shapes are
   flagged, both over a source the rewrite newly inner-joined into FROM:
   (a) a new top-level aggregate whose argument ranges over it (join,
   then group by the outer rows); (b) a new grouped view whose COUNT
   output a WHERE conjunct compares (aggregate, then join). *)
let count_bug ~(before : Qgm.block) ~(after : Qgm.block) : Diag.t list =
  let old_aliases = List.map Qgm.alias_of_source before.Qgm.from in
  let fresh =
    List.filter
      (fun src -> not (List.mem (Qgm.alias_of_source src) old_aliases))
      after.Qgm.from
  in
  let new_aliases = List.map Qgm.alias_of_source fresh in
  let join_first =
    if before.Qgm.aggs <> [] then []
    else
      List.concat_map
        (fun (g, out) ->
           match Expr.agg_arg g with
           | None -> []
           | Some arg -> (
             match
               List.filter (fun r -> List.mem r new_aliases) (Expr.relations arg)
             with
             | [] -> []
             | r :: _ ->
               [ Diag.error ~code:"count-bug"
                   (Fmt.str
                      "aggregate %S ranges over inner-joined view %S: \
                       zero-match outer tuples are lost (use an outerjoin)"
                      out r) ]))
        after.Qgm.aggs
  in
  let where_cols = List.concat_map Expr.columns (Qgm.plain_preds after.Qgm.where) in
  let aggregate_first =
    List.concat_map
      (function
        | Qgm.Base _ -> []
        | Qgm.Derived { block = v; _ } when v.Qgm.group_by = [] ->
          (* one row whatever its input: no outer tuple goes unmatched *)
          []
        | Qgm.Derived { block = v; alias } ->
          let counts =
            List.filter_map
              (function
                | (Expr.Count _ | Expr.Count_star), a -> Some a
                | _ -> None)
              v.Qgm.aggs
          in
          List.filter_map
            (fun (e, out) ->
               if
                 List.exists
                   (fun (c : Expr.col_ref) ->
                      c.Expr.rel = "" && List.mem c.Expr.col counts)
                   (Expr.columns e)
                 && List.mem { Expr.rel = alias; col = out } where_cols
               then
                 Some
                   (Diag.error ~code:"count-bug"
                      (Fmt.str
                         "COUNT %S of inner-joined view %S is compared in \
                          WHERE: zero-match outer tuples are lost (use an \
                          outerjoin)"
                         out alias))
               else None)
            v.Qgm.select)
      fresh
  in
  join_first @ aggregate_first

let check_rewrite ~rule ~before ~after : Diag.t list =
  Diag.within ("rule " ^ rule)
    (preserves_schema ~before ~after @ count_bug ~before ~after @ block after)
