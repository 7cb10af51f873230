(* QGM-lite: a multi-block query representation in the spirit of Starburst's
   Query Graph Model (Section 6.1).

   A block is one SELECT: sources joined by inner join, a conjunctive WHERE
   whose conjuncts may embed subquery predicates (IN / EXISTS / scalar
   comparison), optional grouping/aggregation with HAVING, DISTINCT, and a
   select list.  Semi/anti-join sources and left-outerjoin sources extend the
   FROM so that unnesting rewrites have a target shape; the normal form
   "inner joins first, then outerjoins" is exactly the associativity
   identity of Section 4.1.2. *)

open Relalg

type source =
  | Base of { table : string; alias : string; schema : Schema.t }
  | Derived of { block : block; alias : string }

and block = {
  distinct : bool;
  select : (Expr.t * string) list;
  from : source list; (* inner-joined, possibly correlated subquery-free *)
  where : predicate list; (* conjuncts *)
  group_by : (Expr.t * string) list;
  aggs : (Expr.agg * string) list;
  having : predicate list;
  semijoins : semijoin list; (* applied after the inner joins *)
  outerjoins : outerjoin list; (* applied after semijoins *)
  order_by : (Expr.t * Algebra.dir) list;
}

and semijoin = { s_source : source; s_pred : Expr.t; s_anti : bool }

and outerjoin = { o_source : source; o_pred : Expr.t }

and predicate =
  | P of Expr.t
  | In_sub of Expr.t * block (* e IN (block with 1 output column) *)
  | Exists_sub of bool * block (* EXISTS (true) / NOT EXISTS (false) *)
  | Cmp_sub of Expr.cmpop * Expr.t * block (* e op (scalar block) *)

let alias_of_source = function
  | Base { alias; _ } | Derived { alias; _ } -> alias

(* Output schema of a block: unqualified columns named by select aliases.
   Nullability flows through: plain projected columns inherit their
   source's flag, outer-joined sources are nullable (NULL padding), COUNT
   aggregates are non-null.  Select sees the keys and aggregates in place
   of the sources when the block groups. *)
let rec block_schema (b : block) : Schema.t =
  let inner = inner_schema b in
  let top =
    if b.aggs = [] && b.group_by = [] then inner
    else Algebra.output_columns inner b.group_by b.aggs
  in
  Algebra.output_columns top b.select []

(* Schema visible inside the block: all source columns (inner, semi sources
   excluded from output but visible in predicates; treat them as visible
   only within their own predicate — callers handle that).  Outer-joined
   source columns are nullable in every clause that can see them (WHERE
   cannot; it runs before the outerjoins attach). *)
and inner_schema (b : block) : Schema.t =
  List.concat_map source_schema b.from
  @ List.concat_map
      (fun oj ->
         List.map
           (fun c -> { c with Schema.nullable = true })
           (source_schema oj.o_source))
      b.outerjoins

and source_schema = function
  | Base { schema; _ } -> schema
  | Derived { block; alias } -> Schema.requalify (block_schema block) ~rel:alias

(* Aliases bound by the block's own sources (not correlation targets). *)
let bound_aliases (b : block) : string list =
  List.map alias_of_source b.from
  @ List.map (fun s -> alias_of_source s.s_source) b.semijoins
  @ List.map (fun o -> alias_of_source o.o_source) b.outerjoins

(* Free (correlated) column references of a block, in clause order:
   those used anywhere inside whose qualifier none of the block's own
   sources binds. *)
let rec free_columns (b : block) : Expr.col_ref list =
  let bound = bound_aliases b in
  let of_expr e =
    List.filter
      (fun (c : Expr.col_ref) ->
         c.Expr.rel <> "" && not (List.mem c.Expr.rel bound))
      (Expr.columns e)
  in
  let of_pred = function
    | P e -> of_expr e
    | In_sub (e, blk) -> of_expr e @ nested_free bound blk
    | Exists_sub (_, blk) -> nested_free bound blk
    | Cmp_sub (_, e, blk) -> of_expr e @ nested_free bound blk
  in
  let from_sources =
    List.concat_map
      (function
        | Base _ -> []
        | Derived { block; _ } -> nested_free bound block)
      (b.from
       @ List.map (fun s -> s.s_source) b.semijoins
       @ List.map (fun o -> o.o_source) b.outerjoins)
  in
  List.concat
    [ List.concat_map (fun (e, _) -> of_expr e) b.select;
      List.concat_map of_pred b.where;
      List.concat_map (fun (e, _) -> of_expr e) b.group_by;
      List.concat_map
        (fun (g, _) ->
           match Expr.agg_arg g with Some e -> of_expr e | None -> [])
        b.aggs;
      List.concat_map of_pred b.having;
      List.concat_map (fun s -> of_expr s.s_pred) b.semijoins;
      List.concat_map (fun o -> of_expr o.o_pred) b.outerjoins;
      from_sources ]

and nested_free outer_bound blk =
  List.filter
    (fun (c : Expr.col_ref) -> not (List.mem c.Expr.rel outer_bound))
    (free_columns blk)

(* Free (correlated) relation aliases: the qualifiers of [free_columns]. *)
let free_aliases (b : block) : string list =
  List.sort_uniq String.compare
    (List.map (fun (c : Expr.col_ref) -> c.Expr.rel) (free_columns b))

let is_correlated b = free_aliases b <> []

(* A block is a "simple SPJ" when it can be merged into its parent without
   changing duplicates or semantics (Section 4.2.1). *)
let is_simple_spj (b : block) =
  (not b.distinct) && b.group_by = [] && b.aggs = [] && b.having = []
  && b.semijoins = [] && b.outerjoins = [] && b.order_by = []
  && List.for_all (function P _ -> true | In_sub _ | Exists_sub _ | Cmp_sub _ -> false) b.where

(* Plain conjuncts / subquery conjuncts split. *)
let plain_preds ps =
  List.filter_map (function P e -> Some e | In_sub _ | Exists_sub _ | Cmp_sub _ -> None) ps

let sub_preds ps =
  List.filter (function P _ -> false | In_sub _ | Exists_sub _ | Cmp_sub _ -> true) ps

(* Substitute column references according to [map] (rel, col) -> expr. *)
let subst_expr (map : (Expr.col_ref * Expr.t) list) : Expr.t -> Expr.t =
  Expr.map (function
    | Expr.Col c as e -> Option.value (List.assoc_opt c map) ~default:e
    | e -> e)

let subst_agg map (g : Expr.agg) : Expr.agg =
  match g with
  | Expr.Count_star -> Expr.Count_star
  | Expr.Count e -> Expr.Count (subst_expr map e)
  | Expr.Sum e -> Expr.Sum (subst_expr map e)
  | Expr.Min e -> Expr.Min (subst_expr map e)
  | Expr.Max e -> Expr.Max (subst_expr map e)
  | Expr.Avg e -> Expr.Avg (subst_expr map e)

(* Deep, capture-aware substitution: free column references are replaced
   throughout the block, including inside nested subquery-predicate blocks
   and derived sources; a nested block that rebinds one of the mapped
   aliases shadows it, so only genuinely free occurrences change. *)
let rec subst_block (map : (Expr.col_ref * Expr.t) list) (b : block) : block =
  let bound = bound_aliases b in
  let map =
    List.filter
      (fun ((c : Expr.col_ref), _) -> not (List.mem c.Expr.rel bound))
      map
  in
  if map = [] then b
  else begin
    let se = subst_expr map in
    let sub_source = function
      | Base _ as s -> s
      | Derived { block; alias } -> Derived { block = subst_block map block; alias }
    in
    let sp = function
      | P e -> P (se e)
      | In_sub (e, blk) -> In_sub (se e, subst_block map blk)
      | Exists_sub (pos, blk) -> Exists_sub (pos, subst_block map blk)
      | Cmp_sub (op, e, blk) -> Cmp_sub (op, se e, subst_block map blk)
    in
    { b with
      from = List.map sub_source b.from;
      select = List.map (fun (e, a) -> (se e, a)) b.select;
      where = List.map sp b.where;
      group_by = List.map (fun (e, a) -> (se e, a)) b.group_by;
      aggs = List.map (fun (g, a) -> (subst_agg map g, a)) b.aggs;
      having = List.map sp b.having;
      semijoins =
        List.map
          (fun sj ->
             { sj with
               s_source = sub_source sj.s_source; s_pred = se sj.s_pred })
          b.semijoins;
      outerjoins =
        List.map
          (fun oj ->
             { o_source = sub_source oj.o_source; o_pred = se oj.o_pred })
          b.outerjoins;
      order_by = List.map (fun (e, d) -> (se e, d)) b.order_by }
  end

(* Fresh alias generation for rewrite-introduced views. *)
let fresh_counter = ref 0

let fresh_alias prefix =
  incr fresh_counter;
  Printf.sprintf "__%s%d" prefix !fresh_counter

(* Smart constructor for plain single-block queries. *)
let simple ?(distinct = false) ?(where = []) ?(group_by = []) ?(aggs = [])
    ?(having = []) ?(order_by = []) ~select ~from () =
  { distinct; select; from; where = List.map (fun e -> P e) where;
    group_by; aggs; having = List.map (fun e -> P e) having;
    semijoins = []; outerjoins = []; order_by }

let rec pp_block ppf (b : block) =
  let pp_sel ppf (e, a) =
    if Expr.to_string e = a then Expr.pp ppf e
    else Fmt.pf ppf "%a AS %s" Expr.pp e a
  in
  Fmt.pf ppf "@[<v 2>SELECT%s %a@,FROM %a"
    (if b.distinct then " DISTINCT" else "")
    Fmt.(list ~sep:(any ", ") pp_sel) b.select
    Fmt.(list ~sep:(any ", ") pp_source) b.from;
  List.iter
    (fun s ->
       Fmt.pf ppf "@,%s %a ON %a"
         (if s.s_anti then "ANTIJOIN" else "SEMIJOIN")
         pp_source s.s_source Expr.pp s.s_pred)
    b.semijoins;
  List.iter
    (fun o ->
       Fmt.pf ppf "@,LEFT OUTER JOIN %a ON %a" pp_source o.o_source Expr.pp o.o_pred)
    b.outerjoins;
  if b.where <> [] then
    Fmt.pf ppf "@,WHERE %a" Fmt.(list ~sep:(any " AND ") pp_pred) b.where;
  if b.group_by <> [] || b.aggs <> [] then
    Fmt.pf ppf "@,GROUP BY %a | %a"
      Fmt.(list ~sep:(any ", ") pp_sel) b.group_by
      Fmt.(list ~sep:(any ", ")
             (fun ppf (g, a) -> Fmt.pf ppf "%a AS %s" Expr.pp_agg g a))
      b.aggs;
  if b.having <> [] then
    Fmt.pf ppf "@,HAVING %a" Fmt.(list ~sep:(any " AND ") pp_pred) b.having;
  if b.order_by <> [] then
    Fmt.pf ppf "@,ORDER BY %a"
      Fmt.(list ~sep:(any ", ") (fun ppf (e, _) -> Expr.pp ppf e))
      b.order_by;
  Fmt.pf ppf "@]"

and pp_source ppf = function
  | Base { table; alias; _ } ->
    if table = alias then Fmt.string ppf table
    else Fmt.pf ppf "%s AS %s" table alias
  | Derived { block; alias } -> Fmt.pf ppf "(%a) AS %s" pp_block block alias

and pp_pred ppf = function
  | P e -> Expr.pp ppf e
  | In_sub (e, b) -> Fmt.pf ppf "%a IN (%a)" Expr.pp e pp_block b
  | Exists_sub (pos, b) ->
    Fmt.pf ppf "%sEXISTS (%a)" (if pos then "" else "NOT ") pp_block b
  | Cmp_sub (op, e, b) ->
    Fmt.pf ppf "%a %s (%a)" Expr.pp e (Expr.cmp_name op) pp_block b

let block_to_string b = Fmt.str "%a" pp_block b

(* ------------------------------------------------------------------ *)
(* Full queries: UNION [ALL] combinations of blocks (top level only).
   The paper notes that predicate graphs cannot represent union
   (Section 4); here unions sit above the block layer, so every block
   still rewrites and plans independently. *)

type query =
  | Q_block of block
  | Q_union of { all : bool; left : query; right : query }

let rec query_schema = function
  | Q_block b -> block_schema b
  | Q_union { left; _ } -> query_schema left

let rec pp_query ppf = function
  | Q_block b -> pp_block ppf b
  | Q_union { all; left; right } ->
    Fmt.pf ppf "@[<v>%a@,UNION%s@,%a@]" pp_query left
      (if all then " ALL" else "")
      pp_query right
