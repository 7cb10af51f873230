(* Physical operator trees — the "execution plans" of Figure 1.

   Conventions:
   - [Nested_loop] re-executes its inner (right) child once per outer tuple,
     exactly like the classical iterator; optimizers wrap expensive inners in
     [Materialize].
   - [Index_nl] is the index nested-loop join: for each outer tuple it probes
     an index on the inner base table with the value of [outer_key].
   - [Merge_join] and [Stream_agg] require their inputs to be sorted on the
     join/grouping columns; optimizers must insert [Sort] enforcers (this is
     the "physical property" machinery of Section 3).
   - [Hash_join] builds on the right child, probes with the left. *)

open Relalg

type join_kind = Algebra.join_kind

type bound = Storage.Btree.bound = Unbounded | Incl of Value.t | Excl of Value.t

type sort_key = { key : Expr.t; descending : bool }

type t =
  | Seq_scan of { table : string; alias : string; filter : Expr.t option }
  | Index_scan of {
      table : string;
      alias : string;
      column : string; (* indexed column *)
      lo : bound;
      hi : bound;
      filter : Expr.t option; (* residual predicate *)
    }
  | Filter of Expr.t * t
  | Project of (Expr.t * string) list * t
  | Sort of sort_key list * t
  | Materialize of t
  | Nested_loop of { kind : join_kind; pred : Expr.t; outer : t; inner : t }
  | Index_nl of {
      kind : join_kind;
      outer : t;
      table : string;
      alias : string;
      index : string; (* index name in the catalog *)
      columns : string list; (* probed key prefix, in index order *)
      outer_keys : Expr.t list; (* evaluated against the outer tuple *)
      residual : Expr.t;
    }
  | Merge_join of {
      kind : join_kind;
      pairs : (Expr.col_ref * Expr.col_ref) list; (* (left, right) columns *)
      residual : Expr.t;
      left : t;
      right : t;
    }
  | Hash_join of {
      kind : join_kind;
      pairs : (Expr.col_ref * Expr.col_ref) list;
      residual : Expr.t;
      left : t; (* probe *)
      right : t; (* build *)
    }
  | Hash_agg of agg
  | Stream_agg of agg (* input sorted on keys *)
  | Hash_distinct of t

and agg = {
  keys : (Expr.t * string) list;
  aggs : (Expr.agg * string) list;
  input : t;
}

(* Unmatched outer tuples pad the inner side with NULLs. *)
let outer_side kind (s : Schema.t) : Schema.t =
  match kind with
  | Algebra.Left_outer ->
    List.map (fun c -> { c with Schema.nullable = true }) s
  | Algebra.Inner | Algebra.Semi | Algebra.Anti -> s

(* Output schema.  Scans need the catalog to resolve table schemas. *)
let rec schema (cat : Storage.Catalog.t) (p : t) : Schema.t =
  match p with
  | Seq_scan { table; alias; _ } | Index_scan { table; alias; _ } ->
    Schema.requalify (Storage.Catalog.table cat table).Storage.Table.schema
      ~rel:alias
  | Filter (_, i) | Sort (_, i) | Materialize i | Hash_distinct i ->
    schema cat i
  | Project (items, i) -> Algebra.output_columns (schema cat i) items []
  | Nested_loop { kind; outer; inner; _ } -> (
    match kind with
    | Algebra.Semi | Algebra.Anti -> schema cat outer
    | Algebra.Inner | Algebra.Left_outer ->
      Schema.concat (schema cat outer)
        (outer_side kind (schema cat inner)))
  | Index_nl { kind; outer; table; alias; _ } -> (
    let inner =
      Schema.requalify (Storage.Catalog.table cat table).Storage.Table.schema
        ~rel:alias
    in
    match kind with
    | Algebra.Semi | Algebra.Anti -> schema cat outer
    | Algebra.Inner | Algebra.Left_outer ->
      Schema.concat (schema cat outer) (outer_side kind inner))
  | Merge_join { kind; left; right; _ } | Hash_join { kind; left; right; _ }
    -> (
    match kind with
    | Algebra.Semi | Algebra.Anti -> schema cat left
    | Algebra.Inner | Algebra.Left_outer ->
      Schema.concat (schema cat left)
        (outer_side kind (schema cat right)))
  | Hash_agg { keys; aggs; input } | Stream_agg { keys; aggs; input } ->
    Algebra.output_columns (schema cat input) keys aggs

let pp_sort_key ppf { key; descending } =
  Fmt.pf ppf "%a%s" Expr.pp key (if descending then " DESC" else "")

let pp_pairs ppf pairs =
  Fmt.(list ~sep:(any " AND ")
         (fun ppf ((a : Expr.col_ref), (b : Expr.col_ref)) ->
            Fmt.pf ppf "%s.%s = %s.%s" a.Expr.rel a.Expr.col b.Expr.rel
              b.Expr.col))
    ppf pairs

let kind_prefix = function
  | Algebra.Inner -> ""
  | Algebra.Left_outer -> "Outer "
  | Algebra.Semi -> "Semi "
  | Algebra.Anti -> "Anti "

let rec pp ppf (p : t) =
  let kid ppf c = Fmt.pf ppf "@,@[<v 2>  %a@]" pp c in
  let opt_filter ppf = function
    | None -> ()
    | Some f -> Fmt.pf ppf " [%a]" Expr.pp f
  in
  match p with
  | Seq_scan { table; alias; filter } ->
    Fmt.pf ppf "Table Scan %s%s%a" table
      (if alias = table then "" else " AS " ^ alias)
      opt_filter filter
  | Index_scan { table; alias; column; lo; hi; filter } ->
    let pp_bound side ppf = function
      | Unbounded -> ()
      | Incl v -> Fmt.pf ppf " %s%s %a" column side Value.pp v
      | Excl v ->
        Fmt.pf ppf " %s%s %a" column
          (match side with ">=" -> ">" | "<=" -> "<" | s -> s)
          Value.pp v
    in
    Fmt.pf ppf "Index Scan %s(%s)%s%a%a%a" table column
      (if alias = table then "" else " AS " ^ alias)
      (pp_bound ">=") lo (pp_bound "<=") hi opt_filter filter
  | Filter (e, i) -> Fmt.pf ppf "@[<v>Filter %a%a@]" Expr.pp e kid i
  | Project (items, i) ->
    Fmt.pf ppf "@[<v>Project %a%a@]"
      Fmt.(list ~sep:(any ", ")
             (fun ppf (e, a) ->
                if Expr.to_string e = a then Expr.pp ppf e
                else Fmt.pf ppf "%a AS %s" Expr.pp e a))
      items kid i
  | Sort (keys, i) ->
    Fmt.pf ppf "@[<v>Sort [%a]%a@]"
      Fmt.(list ~sep:(any ", ") pp_sort_key) keys kid i
  | Materialize i -> Fmt.pf ppf "@[<v>Materialize%a@]" kid i
  | Nested_loop { kind; pred; outer; inner } ->
    Fmt.pf ppf "@[<v>%sNested Loop (%a)%a%a@]" (kind_prefix kind) Expr.pp pred
      kid outer kid inner
  | Index_nl { kind; outer; table; alias; index; columns; outer_keys; residual }
    ->
    Fmt.pf ppf "@[<v>%sIndex Nested Loop (%a)%s%a@,@[<v 2>  Index Scan %s%s via %s@]@]"
      (kind_prefix kind)
      Fmt.(list ~sep:(any " AND ")
             (fun ppf (k, c) -> Fmt.pf ppf "%a = %s.%s" Expr.pp k alias c))
      (List.combine outer_keys columns)
      (match residual with
       | Expr.Const (Value.Bool true) -> ""
       | r -> Fmt.str " [%a]" Expr.pp r)
      kid outer table
      (if alias = table then "" else " AS " ^ alias)
      index
  | Merge_join { kind; pairs; left; right; _ } ->
    Fmt.pf ppf "@[<v>%sMerge Join (%a)%a%a@]" (kind_prefix kind) pp_pairs pairs
      kid left kid right
  | Hash_join { kind; pairs; left; right; _ } ->
    Fmt.pf ppf "@[<v>%sHash Join (%a)%a%a@]" (kind_prefix kind) pp_pairs pairs
      kid left kid right
  | Hash_agg { keys; aggs; input } ->
    Fmt.pf ppf "@[<v>Hash Aggregate [%a | %a]%a@]"
      Fmt.(list ~sep:(any ", ") (fun ppf (e, _) -> Expr.pp ppf e)) keys
      Fmt.(list ~sep:(any ", ") (fun ppf (g, a) -> Fmt.pf ppf "%a AS %s" Expr.pp_agg g a))
      aggs kid input
  | Stream_agg { keys; aggs; input } ->
    Fmt.pf ppf "@[<v>Stream Aggregate [%a | %a]%a@]"
      Fmt.(list ~sep:(any ", ") (fun ppf (e, _) -> Expr.pp ppf e)) keys
      Fmt.(list ~sep:(any ", ") (fun ppf (g, a) -> Fmt.pf ppf "%a AS %s" Expr.pp_agg g a))
      aggs kid input
  | Hash_distinct i -> Fmt.pf ppf "@[<v>Hash Distinct%a@]" kid i

let to_string p = Fmt.str "%a" pp p

(* One-line operator description — the head of [pp] without children.
   EXPLAIN ANALYZE renders the tree itself so it can annotate each line
   with runtime metrics. *)
let describe (p : t) : string =
  let opt_filter ppf = function
    | None -> ()
    | Some f -> Fmt.pf ppf " [%a]" Expr.pp f
  in
  match p with
  | Seq_scan { table; alias; filter } ->
    Fmt.str "Table Scan %s%s%a" table
      (if alias = table then "" else " AS " ^ alias)
      opt_filter filter
  | Index_scan { table; alias; column; lo; hi; filter } ->
    let pp_bound side ppf = function
      | Unbounded -> ()
      | Incl v -> Fmt.pf ppf " %s%s %a" column side Value.pp v
      | Excl v ->
        Fmt.pf ppf " %s%s %a" column
          (match side with ">=" -> ">" | "<=" -> "<" | s -> s)
          Value.pp v
    in
    Fmt.str "Index Scan %s(%s)%s%a%a%a" table column
      (if alias = table then "" else " AS " ^ alias)
      (pp_bound ">=") lo (pp_bound "<=") hi opt_filter filter
  | Filter (e, _) -> Fmt.str "Filter %a" Expr.pp e
  | Project (items, _) ->
    Fmt.str "Project %a"
      Fmt.(list ~sep:(any ", ")
             (fun ppf (e, a) ->
                if Expr.to_string e = a then Expr.pp ppf e
                else Fmt.pf ppf "%a AS %s" Expr.pp e a))
      items
  | Sort (keys, _) ->
    Fmt.str "Sort [%a]" Fmt.(list ~sep:(any ", ") pp_sort_key) keys
  | Materialize _ -> "Materialize"
  | Nested_loop { kind; pred; _ } ->
    Fmt.str "%sNested Loop (%a)" (kind_prefix kind) Expr.pp pred
  | Index_nl { kind; table; alias; index; columns; outer_keys; residual; _ } ->
    Fmt.str "%sIndex Nested Loop %s%s via %s (%a)%s" (kind_prefix kind) table
      (if alias = table then "" else " AS " ^ alias)
      index
      Fmt.(list ~sep:(any " AND ")
             (fun ppf (k, c) -> Fmt.pf ppf "%a = %s.%s" Expr.pp k alias c))
      (List.combine outer_keys columns)
      (match residual with
       | Expr.Const (Value.Bool true) -> ""
       | r -> Fmt.str " [%a]" Expr.pp r)
  | Merge_join { kind; pairs; _ } ->
    Fmt.str "%sMerge Join (%a)" (kind_prefix kind) pp_pairs pairs
  | Hash_join { kind; pairs; _ } ->
    Fmt.str "%sHash Join (%a)" (kind_prefix kind) pp_pairs pairs
  | Hash_agg { keys; aggs; _ } ->
    Fmt.str "Hash Aggregate [%a | %a]"
      Fmt.(list ~sep:(any ", ") (fun ppf (e, _) -> Expr.pp ppf e)) keys
      Fmt.(list ~sep:(any ", ")
             (fun ppf (g, a) -> Fmt.pf ppf "%a AS %s" Expr.pp_agg g a))
      aggs
  | Stream_agg { keys; aggs; _ } ->
    Fmt.str "Stream Aggregate [%a | %a]"
      Fmt.(list ~sep:(any ", ") (fun ppf (e, _) -> Expr.pp ppf e)) keys
      Fmt.(list ~sep:(any ", ")
             (fun ppf (g, a) -> Fmt.pf ppf "%a AS %s" Expr.pp_agg g a))
      aggs
  | Hash_distinct _ -> "Hash Distinct"

(* Direct children in execution-tree order (outer/left first). *)
let children = function
  | Seq_scan _ | Index_scan _ -> []
  | Filter (_, i) | Project (_, i) | Sort (_, i) | Materialize i
  | Hash_distinct i -> [ i ]
  | Nested_loop { outer; inner; _ } -> [ outer; inner ]
  | Index_nl { outer; _ } -> [ outer ]
  | Merge_join { left; right; _ } | Hash_join { left; right; _ } ->
    [ left; right ]
  | Hash_agg { input; _ } | Stream_agg { input; _ } -> [ input ]

(* Pre-order node list; the index of a node is its stable operator id.
   Both engines execute the same physical tree, so ids line up across
   interpreter and batch runs. *)
let preorder (p : t) : t list =
  let rec go acc p = List.fold_left go (p :: acc) (children p) in
  List.rev (go [] p)

(* Physical identity: structural equality would conflate repeated
   sub-plans, and plans are small enough for a linear scan. *)
let find_id (nodes : t array) (p : t) : int option =
  let n = Array.length nodes in
  let rec go i =
    if i = n then None else if nodes.(i) == p then Some i else go (i + 1)
  in
  go 0

(* Ids are handed out on entry, children visited in [children] order —
   exactly [preorder]'s numbering — while [f] runs on the way back up. *)
let bottom_up (f : t -> 'a list -> 'a) (plan : t) : 'a array =
  let out = Array.make (List.length (preorder plan)) None in
  let next = ref 0 in
  let rec go p =
    let id = !next in
    incr next;
    let kids =
      List.rev (List.fold_left (fun acc c -> go c :: acc) [] (children p))
    in
    let v = f p kids in
    out.(id) <- Some v;
    v
  in
  ignore (go plan);
  Array.map Option.get out

(* Logical readings of physical nodes.  The estimator and the analyzer
   both read a node's predicates from here, so each is written once. *)

let conj a b =
  match (a, b) with
  | Expr.Const (Value.Bool true), e | e, Expr.Const (Value.Bool true) -> e
  | a, b -> Expr.And (a, b)

let range_pred = function
  | Index_scan { alias; column; lo; hi; _ } ->
    let side op v =
      Expr.Cmp (op, Expr.col ~rel:alias ~col:column, Expr.Const v)
    in
    let lo_p =
      match lo with
      | Unbounded -> Expr.ftrue
      | Incl v -> side Expr.Ge v
      | Excl v -> side Expr.Gt v
    in
    let hi_p =
      match hi with
      | Unbounded -> Expr.ftrue
      | Incl v -> side Expr.Le v
      | Excl v -> side Expr.Lt v
    in
    conj lo_p hi_p
  | _ -> Expr.ftrue

let join_pred = function
  | Nested_loop { pred; _ } -> pred
  | Index_nl { alias; columns; outer_keys; residual; _ } ->
    List.fold_left2
      (fun acc k c ->
         conj acc (Expr.Cmp (Expr.Eq, k, Expr.col ~rel:alias ~col:c)))
      residual outer_keys columns
  | Merge_join { pairs; residual; _ } | Hash_join { pairs; residual; _ } ->
    List.fold_left
      (fun acc ((a : Expr.col_ref), (b : Expr.col_ref)) ->
         conj acc (Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b)))
      residual pairs
  | _ -> Expr.ftrue

let rec size = function
  | Seq_scan _ | Index_scan _ -> 1
  | Filter (_, i) | Project (_, i) | Sort (_, i) | Materialize i
  | Hash_distinct i -> 1 + size i
  | Nested_loop { outer; inner; _ } -> 1 + size outer + size inner
  | Index_nl { outer; _ } -> 2 + size outer
  | Merge_join { left; right; _ } | Hash_join { left; right; _ } ->
    1 + size left + size right
  | Hash_agg { input; _ } | Stream_agg { input; _ } -> 1 + size input
