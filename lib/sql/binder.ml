(* Name resolution and lowering of parsed SQL to QGM blocks.

   Scopes are searched innermost-first: a name that resolves in an enclosing
   scope makes the subquery correlated (Section 4.2.2's terminology).
   Aggregate queries are normalized to the QGM convention: grouped
   output columns are unqualified names (key aliases and aggregate
   aliases), and select/having/order expressions are rewritten onto them.
   Binding resolves names only; the bound block, its subqueries and its
   derived sources are then checked by the plan lint's {!Verify.block},
   whose first error is raised. *)

open Relalg
module Q = Rewrite.Qgm

exception Error of string

let err fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type env = {
  cat : Storage.Catalog.t;
  views : (string * Ast.select) list; (* CREATE VIEW definitions *)
}

type scope = (string * string list) list (* alias -> its column names *)

let scope_of (src : Q.source) : string * string list =
  match src with
  | Q.Base { alias; schema; _ } ->
    (alias, List.map (fun (c : Schema.column) -> c.Schema.name) schema)
  | Q.Derived { block; alias } -> (alias, List.map snd block.Q.select)

(* A derived source's outputs are referenced by name ([V.x]), so a
   repeated name gets a suffix ([did], [did_2]); a deterministic one, so
   binding the same text twice gives equal blocks. *)
let unique_outputs (b : Q.block) : Q.block =
  let rec fresh used name k =
    let n = Printf.sprintf "%s_%d" name k in
    if List.mem n used then fresh used name (k + 1) else n
  in
  let _, select =
    List.fold_left
      (fun (used, select) (e, name) ->
         let name = if List.mem name used then fresh used name 2 else name in
         (name :: used, (e, name) :: select))
      ([], []) b.Q.select
  in
  { b with Q.select = List.rev select }

(* ------------------------------------------------------------------ *)
(* Sources *)

let rec bind_from_item env (outer : scope list) (item : Ast.from_item) :
  Q.source =
  match item with
  | Ast.Table (name, alias_opt) -> (
    let alias = Option.value alias_opt ~default:name in
    match List.assoc_opt name env.views with
    | Some vdef ->
      Q.Derived { block = unique_outputs (bind_select env outer vdef); alias }
    | None -> (
      match Storage.Catalog.find_opt env.cat name with
      | Some e ->
        Q.Base
          { table = name; alias;
            schema =
              Schema.requalify e.Storage.Catalog.table.Storage.Table.schema
                ~rel:alias }
      | None -> err "unknown table or view: %s" name))
  | Ast.Subquery (s, alias) ->
    Q.Derived { block = unique_outputs (bind_select env outer s); alias }

(* ------------------------------------------------------------------ *)
(* Expressions *)

and resolve_column (scopes : scope list) (qual : string option) (name : string)
  : Expr.col_ref =
  let try_scope (sc : scope) : Expr.col_ref option =
    match qual with
    | Some q ->
      if List.exists (fun (alias, names) -> alias = q && List.mem name names) sc
      then Some { Expr.rel = q; col = name }
      else None
    | None -> (
      match List.filter (fun (_, names) -> List.mem name names) sc with
      | [ (alias, _) ] -> Some { Expr.rel = alias; col = name }
      | [] -> None
      | _ :: _ :: _ -> err "ambiguous column: %s" name)
  in
  let rec search = function
    | [] -> (
      match qual with
      | Some q -> err "unknown column %s.%s" q name
      | None -> err "unknown column %s" name)
    | sc :: rest -> (
      match try_scope sc with Some c -> c | None -> search rest)
  in
  search scopes

and bind_expr env (scopes : scope list) (e : Ast.expr) : Expr.t =
  match e with
  | Ast.Lit_int i -> Expr.int i
  | Ast.Lit_float f -> Expr.Const (Value.Float f)
  | Ast.Lit_string s -> Expr.str s
  | Ast.Lit_bool b -> Expr.bool b
  | Ast.Lit_null -> Expr.Const Value.Null
  | Ast.Column (q, n) -> Expr.Col (resolve_column scopes q n)
  | Ast.Binop (op, a, b) ->
    Expr.Binop (op, bind_expr env scopes a, bind_expr env scopes b)
  | Ast.Cmp (op, a, b) ->
    Expr.Cmp (op, bind_expr env scopes a, bind_expr env scopes b)
  | Ast.And (a, b) -> Expr.And (bind_expr env scopes a, bind_expr env scopes b)
  | Ast.Or (a, b) -> Expr.Or (bind_expr env scopes a, bind_expr env scopes b)
  | Ast.Not a -> Expr.Not (bind_expr env scopes a)
  | Ast.Is_null (a, positive) ->
    let inner = Expr.Is_null (bind_expr env scopes a) in
    if positive then inner else Expr.Not inner
  | Ast.Agg _ -> err "aggregate not allowed in this context"
  | Ast.In_query _ | Ast.Exists _ | Ast.Cmp_query _ ->
    err "subquery only allowed as a top-level WHERE/HAVING conjunct"

(* Split a WHERE/HAVING tree into QGM predicates; subqueries must be
   top-level conjuncts. *)
and bind_predicates env (scopes : scope list) (e : Ast.expr) : Q.predicate list
  =
  match e with
  | Ast.And (a, b) ->
    bind_predicates env scopes a @ bind_predicates env scopes b
  | Ast.In_query (x, sub) ->
    [ Q.In_sub (bind_expr env scopes x, bind_select env scopes sub) ]
  | Ast.Exists (positive, sub) ->
    [ Q.Exists_sub (positive, bind_select env scopes sub) ]
  | Ast.Cmp_query (op, x, sub) ->
    [ Q.Cmp_sub (op, bind_expr env scopes x, bind_select env scopes sub) ]
  | Ast.Not (Ast.In_query _) ->
    err "NOT IN is not supported; rewrite as NOT EXISTS"
  | e -> [ Q.P (bind_expr env scopes e) ]

(* ------------------------------------------------------------------ *)
(* Aggregation normalization *)

and contains_agg = function
  | Ast.Agg _ -> true
  | Ast.Binop (_, a, b) | Ast.Cmp (_, a, b) | Ast.And (a, b) | Ast.Or (a, b)
    -> contains_agg a || contains_agg b
  | Ast.Not a | Ast.Is_null (a, _) -> contains_agg a
  | Ast.Lit_int _ | Ast.Lit_float _ | Ast.Lit_string _ | Ast.Lit_bool _
  | Ast.Lit_null | Ast.Column _ -> false
  | Ast.In_query (a, _) | Ast.Cmp_query (_, a, _) -> contains_agg a
  | Ast.Exists _ -> false

and bind_agg env scopes (fn : Ast.agg_fn) (arg : Ast.expr option) : Expr.agg =
  match fn, arg with
  | Ast.Fn_count, None -> Expr.Count_star
  | Ast.Fn_count, Some e -> Expr.Count (bind_expr env scopes e)
  | Ast.Fn_sum, Some e -> Expr.Sum (bind_expr env scopes e)
  | Ast.Fn_min, Some e -> Expr.Min (bind_expr env scopes e)
  | Ast.Fn_max, Some e -> Expr.Max (bind_expr env scopes e)
  | Ast.Fn_avg, Some e -> Expr.Avg (bind_expr env scopes e)
  | (Ast.Fn_sum | Ast.Fn_min | Ast.Fn_max | Ast.Fn_avg), None ->
    err "aggregate function requires an argument"

(* ------------------------------------------------------------------ *)
(* SELECT *)

and bind_select env (outer : scope list) (s : Ast.select) : Q.block =
  (* 1. FROM: split joined items into inner sources and outerjoins *)
  let sources = ref [] in
  let outerjoin_specs = ref [] in
  let rec flatten (j : Ast.joined) =
    match j with
    | Ast.Plain item -> sources := !sources @ [ bind_from_item env outer item ]
    | Ast.Left_outer_join (l, item, pred) ->
      flatten l;
      outerjoin_specs := !outerjoin_specs @ [ (bind_from_item env outer item, pred) ]
  in
  List.iter flatten s.Ast.from;
  let from_scope : scope = List.map scope_of !sources in
  (* outerjoins attach left to right: the nth ON predicate sees the FROM
     sources and outerjoin sources 0..n *)
  let scope, outerjoins =
    List.fold_left_map
      (fun (scope : scope) (src, pred) ->
         let scope = scope @ [ scope_of src ] in
         ( scope,
           { Q.o_source = src; o_pred = bind_expr env (scope :: outer) pred } ))
      from_scope !outerjoin_specs
  in
  let scopes = scope :: outer in
  (* 2. WHERE.  Outer-joined relations are NOT in scope here: the whole
     pipeline (QGM evaluation, lowering, the verifier) applies WHERE
     before outerjoins attach, so a reference to one would either crash
     or silently change meaning.  Such columns are visible after the
     join — in SELECT, GROUP BY, HAVING and ORDER BY. *)
  let where_scopes = from_scope :: outer in
  let where =
    match s.Ast.where with
    | None -> []
    | Some e -> (
      try bind_predicates env where_scopes e
      with Error _ as exn ->
        (* resolves once outerjoin aliases are added? then say so *)
        (match bind_predicates env scopes e with
         | _ ->
           err
             "WHERE references a column of a LEFT OUTER JOIN relation; it \
              is only visible after the join (in SELECT, GROUP BY, HAVING \
              or ORDER BY)"
         | exception Error _ -> raise exn))
  in
  (* 3. aggregation *)
  let is_agg_query =
    s.Ast.group_by <> []
    || List.exists
         (function Ast.Item (e, _) -> contains_agg e | Ast.Star -> false)
         s.Ast.items
    || (match s.Ast.having with Some e -> contains_agg e | None -> false)
  in
  if not is_agg_query then begin
    (* plain block *)
    let select =
      List.concat_map
        (fun item ->
           match item with
           | Ast.Star ->
             List.concat_map
               (fun (alias, names) ->
                  List.map (fun n -> (Expr.col ~rel:alias ~col:n, n)) names)
               from_scope
           | Ast.Item (e, alias) ->
             let bound = bind_expr env scopes e in
             let name =
               match alias, bound with
               | Some a, _ -> a
               | None, Expr.Col c -> c.Expr.col
               | None, _ -> Q.fresh_alias "col"
             in
             [ (bound, name) ])
        s.Ast.items
    in
    let having =
      match s.Ast.having with
      | None -> []
      | Some e -> bind_predicates env scopes e
    in
    { Q.distinct = s.Ast.distinct; select; from = !sources; where;
      group_by = []; aggs = []; having; semijoins = []; outerjoins;
      order_by =
        List.map (fun (e, d) -> (bind_expr env scopes e, d)) s.Ast.order_by }
  end
  else begin
    (* grouped query: normalize onto key/agg aliases; a column key is
       named after its column unless an earlier key took that name
       (E.did and D.did) *)
    let keys =
      List.rev
        (List.fold_left
           (fun keys ge ->
              let bound = bind_expr env scopes ge in
              let name =
                match bound with
                | Expr.Col c
                  when not (List.exists (fun (_, a) -> a = c.Expr.col) keys)
                  ->
                  c.Expr.col
                | _ -> Q.fresh_alias "key"
              in
              (bound, name) :: keys)
           [] s.Ast.group_by)
    in
    let aggs = ref [] in
    let agg_ref fn arg =
      let bound = bind_agg env scopes fn arg in
      match List.find_opt (fun (g, _) -> g = bound) !aggs with
      | Some (_, alias) -> Expr.col ~rel:"" ~col:alias
      | None ->
        let alias = Printf.sprintf "agg%d" (List.length !aggs) in
        aggs := !aggs @ [ (bound, alias) ];
        Expr.col ~rel:"" ~col:alias
    in
    (* rewrite an AST expression into the grouped output namespace *)
    let rec grouped_expr (e : Ast.expr) : Expr.t =
      match key_match e with
      | Some key_alias -> Expr.col ~rel:"" ~col:key_alias
      | None -> (
        match e with
        | Ast.Agg (fn, arg) -> agg_ref fn arg
        | Ast.Binop (op, a, b) -> Expr.Binop (op, grouped_expr a, grouped_expr b)
        | Ast.Cmp (op, a, b) -> Expr.Cmp (op, grouped_expr a, grouped_expr b)
        | Ast.And (a, b) -> Expr.And (grouped_expr a, grouped_expr b)
        | Ast.Or (a, b) -> Expr.Or (grouped_expr a, grouped_expr b)
        | Ast.Not a -> Expr.Not (grouped_expr a)
        | Ast.Is_null (a, positive) ->
          let inner = Expr.Is_null (grouped_expr a) in
          if positive then inner else Expr.Not inner
        | Ast.Lit_int _ | Ast.Lit_float _ | Ast.Lit_string _ | Ast.Lit_bool _
        | Ast.Lit_null -> bind_expr env scopes e
        | Ast.Column (q, n) ->
          err "column %s%s must appear in GROUP BY or inside an aggregate"
            (match q with Some q -> q ^ "." | None -> "")
            n
        | Ast.In_query _ | Ast.Exists _ | Ast.Cmp_query _ ->
          err "subquery not allowed here")
    and key_match (e : Ast.expr) : string option =
      match e with
      | Ast.Agg _ -> None
      | _ -> (
        match bind_expr env scopes e with
        | bound ->
          List.find_map
            (fun (ke, alias) -> if ke = bound then Some alias else None)
            keys
        | exception Error _ -> None)
    in
    let select =
      List.concat_map
        (fun item ->
           match item with
           | Ast.Star ->
             (* SELECT * on a grouped query: all keys then all aggregates *)
             List.map
               (fun (_, a) -> (Expr.col ~rel:"" ~col:a, a))
               keys
           | Ast.Item (e, alias) ->
             let bound = grouped_expr e in
             let name =
               match alias, bound, e with
               | Some a, _, _ -> a
               | None, Expr.Col { Expr.rel = ""; _ }, Ast.Column (_, n) -> n
               | None, Expr.Col { Expr.rel = ""; col }, _ -> col
               | None, _, _ -> Q.fresh_alias "col"
             in
             [ (bound, name) ])
        s.Ast.items
    in
    let having =
      match s.Ast.having with
      | None -> []
      | Some e -> (
        (* plain conjuncts are rewritten into the grouped namespace; a
           subquery is bound against the block's sources, then its
           references to column keys are moved onto the key outputs, the
           only columns of the sources that HAVING sees; a reference to
           any other column of them breaks the grouping rule, as in a
           plain conjunct *)
        let key_outputs =
          List.filter_map
            (function
              | Expr.Col c, alias -> Some (c, Expr.col ~rel:"" ~col:alias)
              | _ -> None)
            keys
        in
        let own = List.map fst scope in
        let sub s =
          let blk = Q.subst_block key_outputs (bind_select env scopes s) in
          match
            List.find_opt
              (fun (c : Expr.col_ref) -> List.mem c.Expr.rel own)
              (Q.free_columns blk)
          with
          | Some c ->
            err "column %s.%s must appear in GROUP BY or inside an aggregate"
              c.Expr.rel c.Expr.col
          | None -> blk
        in
        let rec split (e : Ast.expr) : Q.predicate list =
          match e with
          | Ast.And (a, b) -> split a @ split b
          | Ast.In_query (x, s) -> [ Q.In_sub (grouped_expr x, sub s) ]
          | Ast.Exists (positive, s) -> [ Q.Exists_sub (positive, sub s) ]
          | Ast.Cmp_query (op, x, s) ->
            [ Q.Cmp_sub (op, grouped_expr x, sub s) ]
          | e -> [ Q.P (grouped_expr e) ]
        in
        split e)
    in
    { Q.distinct = s.Ast.distinct; select; from = !sources; where;
      group_by = keys; aggs = !aggs; having; semijoins = []; outerjoins;
      order_by =
        List.map (fun (e, d) -> (grouped_expr e, d)) s.Ast.order_by }
  end

(* ------------------------------------------------------------------ *)
(* Entry points *)

(* The one check of a bound block, its subqueries and derived sources:
   the plan lint's.  A type error keeps its [type error:] prefix. *)
let checked (b : Q.block) : Q.block =
  match Verify.Diag.errors (Verify.block b) with
  | [] -> b
  | d :: _ ->
    (match d.Verify.Diag.code with
     | "type-mismatch" | "non-boolean-predicate" -> err "type error: %s"
     | _ -> err "%s")
      d.Verify.Diag.message

let bind ?(views = []) cat (s : Ast.select) : Q.block =
  checked (bind_select { cat; views } [] s)

(* Bind a full query expression (UNION [ALL] chains). *)
let rec bind_query_expr env (q : Ast.query) : Q.query =
  match q with
  | Ast.Single s -> Q.Q_block (checked (bind_select env [] s))
  | Ast.Union (l, all, r) ->
    let lq = bind_query_expr env l and rq = bind_query_expr env r in
    if
      Relalg.Schema.arity (Q.query_schema lq)
      <> Relalg.Schema.arity (Q.query_schema rq)
    then err "UNION arms have different numbers of columns";
    Q.Q_union { all; left = lq; right = rq }

let bind_query ?(views = []) cat (q : Ast.query) : Q.query =
  bind_query_expr { cat; views } q

(* Bind a script of CREATE VIEW statements followed by one query. *)
let bind_script cat (stmts : Ast.statement list) : Q.query =
  let views, selects =
    List.fold_left
      (fun (views, selects) stmt ->
         match stmt with
         | Ast.Create_view (name, def) -> (views @ [ (name, def) ], selects)
         | Ast.Select_stmt s -> (views, selects @ [ s ]))
      ([], []) stmts
  in
  match selects with
  | [ s ] -> bind_query ~views cat s
  | _ -> err "expected exactly one SELECT statement"

(* Parse and bind; single-block queries come back as [Q_block]. *)
let query_of_string ?views cat (sql : string) : Q.query =
  match Parser.parse sql with
  | [ Ast.Select_stmt s ] -> bind_query ?views cat s
  | stmts ->
    ignore views;
    bind_script cat stmts

(* Back-compatible single-block entry point.
   @raise Error when the text is a UNION. *)
let of_string ?views cat (sql : string) : Q.block =
  match query_of_string ?views cat sql with
  | Q.Q_block b -> b
  | Q.Q_union _ -> err "UNION query: use query_of_string"
