(* Static checking of physical plans (see the .mli).  The walk mirrors
   [Exec.Plan.schema] but never raises: unknown tables yield an empty
   schema plus a diagnostic, and projection items that fail to type fall
   back to [Tint] so downstream checks still run. *)

open Relalg
module Plan = Exec.Plan
module Props = Cost.Physical_props

let table_schema cat ~table ~alias : Schema.t option =
  match Storage.Catalog.find_opt cat table with
  | None -> None
  | Some entry ->
    Some
      (Schema.requalify entry.Storage.Catalog.table.Storage.Table.schema
         ~rel:alias)

let unknown_table table =
  Diag.error ~code:"unknown-table"
    (Fmt.str "table %S is not in the catalog" table)

(* ------------------------------------------------------------------ *)
(* Order propagation (Section 3): what sort order does a plan deliver? *)

(* Remap an order through projection-style items: an order column survives
   if some item is exactly that column, under its output alias.  Stop at
   the first column that does not survive — order is a prefix property. *)
let remap_order (items : (Expr.t * string) list) (order : Props.order) :
  Props.order =
  let rec go = function
    | [] -> []
    | (c, d) :: rest -> (
      let surviving =
        List.find_opt
          (fun (e, _) ->
             match e with Expr.Col c' -> Props.equal_col c' c | _ -> false)
          items
      in
      match surviving with
      | Some (_, alias) -> ({ Expr.rel = ""; col = alias }, d) :: go rest
      | None -> [])
  in
  go order

let rec produced_order (p : Plan.t) : Props.order =
  match p with
  | Plan.Seq_scan _ -> Props.no_order
  | Plan.Index_scan { alias; column; _ } ->
    [ ({ Expr.rel = alias; col = column }, Algebra.Asc) ]
  | Plan.Filter (_, i) | Plan.Materialize i | Plan.Hash_distinct i ->
    produced_order i
  | Plan.Project (items, i) -> remap_order items (produced_order i)
  | Plan.Sort (keys, _) ->
    (* the delivered order is the longest plain-column prefix of the keys *)
    let rec cols = function
      | { Plan.key = Expr.Col c; descending } :: rest ->
        (c, if descending then Algebra.Desc else Algebra.Asc) :: cols rest
      | _ -> []
    in
    cols keys
  | Plan.Nested_loop { outer; _ } -> produced_order outer
  | Plan.Index_nl { outer; _ } -> produced_order outer
  | Plan.Merge_join { left; _ } | Plan.Hash_join { left; _ } ->
    (* both preserve the left (outer/probe) stream's order *)
    produced_order left
  | Plan.Hash_agg _ -> Props.no_order
  | Plan.Stream_agg { keys; input; _ } ->
    remap_order keys (produced_order input)

(* ------------------------------------------------------------------ *)
(* The checker *)

(* The output columns of a projection ([aggs = []]) or a grouping, an
   undeterminable type falling back to [Tint], and their typing errors. *)
let columns schema (items : (Expr.t * string) list)
    (aggs : (Expr.agg * string) list) : Schema.t * Diag.t list =
  let typed =
    List.map (fun (e, a) -> (a, Typing.check schema e)) items
    @ List.map (fun (g, a) -> (a, Typing.check_agg schema g)) aggs
  in
  ( List.map
      (fun (a, (ty, _)) ->
         Schema.column ~rel:"" ~name:a
           ~ty:(Option.value ty ~default:Value.Tint))
      typed,
    List.concat_map (fun (_, (_, errors)) -> Diag.of_typing errors) typed )

(* [columns], and a [duplicate-alias] error per repeated output name. *)
let outputs schema items aggs ~what : Schema.t * Diag.t list =
  let out, errors = columns schema items aggs in
  ( out,
    errors
    @ Diag.duplicates ~code:"duplicate-alias" ~what
        (List.map (fun (c : Schema.column) -> c.Schema.name) out) )

let check_filter schema = function
  | None -> []
  | Some p -> Diag.predicate schema p

let check_pairs ls rs (pairs : (Expr.col_ref * Expr.col_ref) list) :
  Diag.t list =
  List.concat_map
    (fun (l, r) ->
       let tl, el = Typing.check ls (Expr.Col l) in
       let tr, er = Typing.check rs (Expr.Col r) in
       Diag.of_typing (el @ er)
       @
       match (tl, tr) with
       | Some tl, Some tr when not (Typing.comparable tl tr) ->
         [ Diag.error ~code:"key-type-mismatch"
             (Fmt.str "join keys %s.%s (%s) and %s.%s (%s) are not comparable"
                l.Expr.rel l.Expr.col (Value.ty_name tl) r.Expr.rel r.Expr.col
                (Value.ty_name tr)) ]
       | _ -> [])
    pairs

let sorted_on side input ~(want : Props.order) : Diag.t list =
  let have = produced_order input in
  if Props.satisfies ~have ~want then []
  else
    [ Diag.error ~code:"unsorted-input"
        (Fmt.str
           "%s input delivers order %s but %s is required — missing Sort \
            enforcer"
           side (Props.to_string have) (Props.to_string want)) ]

let bound_diag ty_col = function
  | Plan.Unbounded -> []
  | Plan.Incl v | Plan.Excl v -> (
    match (ty_col, Value.type_of v) with
    | Some tc, Some tv when not (Typing.comparable tc tv) ->
      [ Diag.error ~code:"key-type-mismatch"
          (Fmt.str "index bound of type %s on a %s column" (Value.ty_name tv)
             (Value.ty_name tc)) ]
    | _ -> [])

let rec walk cat (p : Plan.t) : Schema.t * Diag.t list =
  match p with
  | Plan.Seq_scan { table; alias; filter } -> (
    match table_schema cat ~table ~alias with
    | None -> ([], Diag.within ("Seq_scan " ^ alias) [ unknown_table table ])
    | Some s ->
      (s, Diag.within ("Seq_scan " ^ alias) (check_filter s filter)))
  | Plan.Index_scan { table; alias; column; lo; hi; filter } -> (
    let label = "Index_scan " ^ alias in
    match table_schema cat ~table ~alias with
    | None -> ([], Diag.within label [ unknown_table table ])
    | Some s ->
      let idx_diags =
        match Storage.Catalog.index_on cat ~table ~column with
        | Some _ -> []
        | None ->
          [ Diag.error ~code:"unknown-index"
              (Fmt.str "no index on %s.%s" table column) ]
      in
      let col_ty =
        Option.map
          (fun (_, (c : Schema.column)) -> c.Schema.ty)
          (Schema.find_opt s ~rel:alias ~name:column)
      in
      let own =
        idx_diags @ bound_diag col_ty lo @ bound_diag col_ty hi
        @ check_filter s filter
      in
      (s, Diag.within label own))
  | Plan.Filter (p', i) ->
    let s, d = walk cat i in
    (s, d @ Diag.within "Filter" (Diag.predicate s p'))
  | Plan.Project (items, i) ->
    let s, d = walk cat i in
    let out, own = outputs s items [] ~what:"projection alias" in
    (out, d @ Diag.within "Project" own)
  | Plan.Sort (keys, i) ->
    let s, d = walk cat i in
    let own =
      List.concat_map (fun { Plan.key; _ } -> Diag.typing s key) keys
    in
    (s, d @ Diag.within "Sort" own)
  | Plan.Materialize i -> walk cat i
  | Plan.Hash_distinct i -> walk cat i
  | Plan.Nested_loop { kind; pred; outer; inner } ->
    let os, od = walk cat outer in
    let is_, id_ = walk cat inner in
    let env = Schema.concat os is_ in
    let own = Diag.predicate env pred in
    let out =
      match kind with
      | Algebra.Semi | Algebra.Anti -> os
      | Algebra.Inner | Algebra.Left_outer -> env
    in
    (out, od @ id_ @ Diag.within "Nested_loop" own)
  | Plan.Index_nl { kind; outer; table; alias; index; columns; outer_keys;
                    residual } -> (
    let label = "Index_nl " ^ alias in
    let os, od = walk cat outer in
    match table_schema cat ~table ~alias with
    | None -> (os, od @ Diag.within label [ unknown_table table ])
    | Some is_ ->
      let idx_diags =
        match Storage.Catalog.index_named cat ~table ~name:index with
        | None ->
          [ Diag.error ~code:"unknown-index"
              (Fmt.str "no index named %S on table %s" index table) ]
        | Some idx ->
          let key = idx.Storage.Btree.columns in
          let rec is_prefix xs ys =
            match (xs, ys) with
            | [], _ -> true
            | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
            | _ :: _, [] -> false
          in
          if columns = [] then
            [ Diag.error ~code:"index-prefix-mismatch"
                (Fmt.str "empty probe column list for index %S" index) ]
          else if not (is_prefix columns key) then
            [ Diag.error ~code:"index-prefix-mismatch"
                (Fmt.str "probed columns (%s) are not a prefix of index %S key (%s)"
                   (String.concat ", " columns) index
                   (String.concat ", " key)) ]
          else []
      in
      let arity_diags =
        if List.length outer_keys <> List.length columns then
          [ Diag.error ~code:"probe-arity"
              (Fmt.str "%d probe expressions for %d probed columns"
                 (List.length outer_keys) (List.length columns)) ]
        else []
      in
      (* probe expressions are evaluated against the *outer* tuple *)
      let key_diags =
        List.concat_map (Diag.typing os) outer_keys
      in
      let compat_diags =
        if List.length outer_keys = List.length columns then
          List.concat_map
            (fun (col, e) ->
               let tc =
                 Option.map
                   (fun (_, (c : Schema.column)) -> c.Schema.ty)
                   (Schema.find_opt is_ ~rel:alias ~name:col)
               in
               let te, _ = Typing.check os e in
               match (tc, te) with
               | Some tc, Some te when not (Typing.comparable tc te) ->
                 [ Diag.error ~code:"key-type-mismatch"
                     (Fmt.str "probe of %s column %s.%s with a %s expression"
                        (Value.ty_name tc) alias col (Value.ty_name te)) ]
               | _ -> [])
            (List.combine columns outer_keys)
        else []
      in
      let env = Schema.concat os is_ in
      let res_diags = Diag.predicate env residual in
      let out =
        match kind with
        | Algebra.Semi | Algebra.Anti -> os
        | Algebra.Inner | Algebra.Left_outer -> env
      in
      ( out,
        od
        @ Diag.within label
            (idx_diags @ arity_diags @ key_diags @ compat_diags @ res_diags) ))
  | Plan.Merge_join { kind; pairs; residual; left; right } ->
    let ls, ld = walk cat left in
    let rs, rd = walk cat right in
    let key_diags = check_pairs ls rs pairs in
    let order_diags =
      if pairs = [] then
        [ Diag.warning ~code:"merge-join-no-keys"
            "merge join with no key pairs degenerates to a cross product" ]
      else
        sorted_on "left" left
          ~want:(List.map (fun (l, _) -> (l, Algebra.Asc)) pairs)
        @ sorted_on "right" right
            ~want:(List.map (fun (_, r) -> (r, Algebra.Asc)) pairs)
    in
    let env = Schema.concat ls rs in
    let res_diags = Diag.predicate env residual in
    let out =
      match kind with
      | Algebra.Semi | Algebra.Anti -> ls
      | Algebra.Inner | Algebra.Left_outer -> env
    in
    (out, ld @ rd @ Diag.within "Merge_join" (key_diags @ order_diags @ res_diags))
  | Plan.Hash_join { kind; pairs; residual; left; right } ->
    let ls, ld = walk cat left in
    let rs, rd = walk cat right in
    let key_diags = check_pairs ls rs pairs in
    let env = Schema.concat ls rs in
    let res_diags = Diag.predicate env residual in
    let out =
      match kind with
      | Algebra.Semi | Algebra.Anti -> ls
      | Algebra.Inner | Algebra.Left_outer -> env
    in
    (out, ld @ rd @ Diag.within "Hash_join" (key_diags @ res_diags))
  | Plan.Hash_agg { keys; aggs; input } ->
    let s, d = walk cat input in
    let out, own = outputs s keys aggs ~what:"aggregate output alias" in
    (out, d @ Diag.within "Hash_agg" own)
  | Plan.Stream_agg { keys; aggs; input } ->
    let s, d = walk cat input in
    let out, own = outputs s keys aggs ~what:"aggregate output alias" in
    let key_cols =
      List.filter_map
        (fun (e, _) -> match e with Expr.Col c -> Some c | _ -> None)
        keys
    in
    let order_diags =
      (* Stream_agg needs equal keys adjacent: the input order's leading
         columns must cover the group keys (any directions).  Only
         checkable when every key is a plain column. *)
      if keys = [] || List.length key_cols <> List.length keys then []
      else
        let have = produced_order input in
        let n = List.length keys in
        let leading =
          List.filteri (fun i _ -> i < n) have |> List.map fst
        in
        let missing =
          List.filter
            (fun c -> not (List.exists (Props.equal_col c) leading))
            key_cols
        in
        match missing with
        | [] -> []
        | c :: _ ->
          [ Diag.error ~code:"unsorted-input"
              (Fmt.str
                 "input delivers order %s, which does not group on key %s.%s \
                  — missing Sort enforcer"
                 (Props.to_string have) c.Expr.rel c.Expr.col) ]
    in
    (out, d @ Diag.within "Stream_agg" (own @ order_diags))

let check cat p =
  let _, diags = walk cat p in
  diags
