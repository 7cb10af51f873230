(* Logical operator trees ("query trees" in the paper, Figure 2).

   Scan nodes carry their schema so that schema inference needs no catalog.
   Join kinds cover the operators Sections 4.1.2 and 4.2.2 reason about:
   inner and one-sided outer joins, plus semi/anti joins produced by
   subquery unnesting. *)

type join_kind =
  | Inner
  | Left_outer
  | Semi  (* left tuples with at least one match; left attributes only *)
  | Anti  (* left tuples with no match; left attributes only *)

type dir = Asc | Desc

type sort_key = Expr.t * dir

type t =
  | Scan of { table : string; alias : string; schema : Schema.t }
  | Select of Expr.t * t
  | Project of (Expr.t * string) list * t
  | Join of join_kind * Expr.t * t * t
  | Group_by of group_by
  | Distinct of t
  | Order_by of sort_key list * t

and group_by = {
  keys : (Expr.t * string) list;
  aggs : (Expr.agg * string) list;
  input : t;
}

let join_kind_name = function
  | Inner -> "JOIN"
  | Left_outer -> "LEFT OUTER JOIN"
  | Semi -> "SEMIJOIN"
  | Anti -> "ANTIJOIN"

(* Nullability of an expression's result given the input schema: plain
   column references and NULL-free constants inherit; everything else is
   conservatively nullable.  (Deeper reasoning lives in the [analysis]
   library; the schema just carries the cheap, always-sound core so that
   catalog NOT NULL declarations survive projections.) *)
let expr_nullable (s : Schema.t) (e : Expr.t) : bool =
  match e with
  | Expr.Col c -> (
    match Schema.find s ~rel:c.Expr.rel ~name:c.Expr.col with
    | col -> col.Schema.nullable
    | exception (Not_found | Failure _) -> true)
  | Expr.Const v -> Value.is_null v
  | _ -> true

let agg_nullable (s : Schema.t) (a : Expr.agg) : bool =
  match a with
  | Expr.Count_star | Expr.Count _ -> false (* COUNT is never NULL *)
  | Expr.Sum _ | Expr.Min _ | Expr.Max _ | Expr.Avg _ ->
    ignore s;
    true (* NULL over an empty/all-NULL group *)

(* The output columns of a projection ([aggs = []]) or a grouping: one
   unqualified column per item, named by its alias. *)
let output_columns (s : Schema.t) items aggs : Schema.t =
  List.map
    (fun (e, alias) ->
       Schema.with_nullable (expr_nullable s e)
         (Schema.column ~rel:"" ~name:alias ~ty:(Typing.infer s e)))
    items
  @ List.map
      (fun (g, alias) ->
         Schema.with_nullable (agg_nullable s g)
           (Schema.column ~rel:"" ~name:alias ~ty:(Typing.infer_agg s g)))
      aggs

(* Output schema.  Projection and grouping introduce unqualified columns
   named by their aliases; [requalify] can re-introduce a qualifier when an
   operator result is used as a named view. *)
let rec schema (t : t) : Schema.t =
  match t with
  | Scan { schema = s; _ } -> s
  | Select (_, input) -> schema input
  | Join ((Semi | Anti), _, l, _) -> schema l
  | Join (Left_outer, _, l, r) ->
    (* unmatched left tuples pad the right side with NULLs *)
    Schema.concat (schema l)
      (List.map (fun c -> { c with Schema.nullable = true }) (schema r))
  | Join (Inner, _, l, r) -> Schema.concat (schema l) (schema r)
  | Project (items, input) -> output_columns (schema input) items []
  | Group_by { keys; aggs; input } -> output_columns (schema input) keys aggs
  | Distinct input -> schema input
  | Order_by (_, input) -> schema input

(* Relation aliases contributing base tuples to this subtree. *)
let rec base_aliases (t : t) : string list =
  match t with
  | Scan { alias; _ } -> [ alias ]
  | Select (_, i) | Project (_, i) | Distinct i | Order_by (_, i) ->
    base_aliases i
  | Join ((Semi | Anti), _, l, _) -> base_aliases l
  | Join (_, _, l, r) -> base_aliases l @ base_aliases r
  | Group_by { input; _ } -> base_aliases input

let rec pp ppf (t : t) =
  let kid ppf t = Fmt.pf ppf "@,@[<v 2>  %a@]" pp t in
  match t with
  | Scan { table; alias; _ } ->
    if table = alias then Fmt.pf ppf "Scan %s" table
    else Fmt.pf ppf "Scan %s AS %s" table alias
  | Select (p, i) -> Fmt.pf ppf "@[<v>Select %a%a@]" Expr.pp p kid i
  | Project (items, i) ->
    Fmt.pf ppf "@[<v>Project %a%a@]"
      Fmt.(list ~sep:(any ", ")
             (fun ppf (e, a) -> Fmt.pf ppf "%a AS %s" Expr.pp e a))
      items kid i
  | Join (k, p, l, r) ->
    Fmt.pf ppf "@[<v>%s ON %a%a%a@]" (join_kind_name k) Expr.pp p kid l kid r
  | Group_by { keys; aggs; input } ->
    Fmt.pf ppf "@[<v>GroupBy [%a] aggs [%a]%a@]"
      Fmt.(list ~sep:(any ", ") (fun ppf (e, a) -> Fmt.pf ppf "%a AS %s" Expr.pp e a))
      keys
      Fmt.(list ~sep:(any ", ")
             (fun ppf (g, a) -> Fmt.pf ppf "%a AS %s" Expr.pp_agg g a))
      aggs kid input
  | Distinct i -> Fmt.pf ppf "@[<v>Distinct%a@]" kid i
  | Order_by (keys, i) ->
    Fmt.pf ppf "@[<v>OrderBy [%a]%a@]"
      Fmt.(list ~sep:(any ", ")
             (fun ppf (e, d) ->
                Fmt.pf ppf "%a %s" Expr.pp e
                  (match d with Asc -> "ASC" | Desc -> "DESC")))
      keys kid i

let to_string t = Fmt.str "%a" pp t

(* Count of operator nodes, used by enumeration-effort experiments. *)
let rec size = function
  | Scan _ -> 1
  | Select (_, i) | Project (_, i) | Distinct i | Order_by (_, i) -> 1 + size i
  | Join (_, _, l, r) -> 1 + size l + size r
  | Group_by { input; _ } -> 1 + size input
