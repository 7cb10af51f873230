(* Deep, non-raising expression checking (see the .mli).  Arithmetic is
   typed by the planner's own table, [Relalg.Typing.binop_ty], and
   connective operands and predicates by the binder's own boolean rule,
   [Relalg.Typing.boolean_rule]; the difference is that bad operands are
   reported instead of raised. *)

open Relalg

let numeric = function Value.Tint | Value.Tfloat -> true | _ -> false

let comparable a b = a = b || (numeric a && numeric b)

(* Resolve a column reference, classifying the failure mode:
   - qualifier present but no such alias in scope -> out-of-scope
   - alias in scope (or unqualified) but no such column -> unknown-column
   - unqualified and matching several columns -> ambiguous-column *)
let resolve (schema : Schema.t) ({ rel; col } : Expr.col_ref) :
  Value.ty option * Diag.t list =
  match Schema.find_opt schema ~rel ~name:col with
  | Some (_, c) -> (Some c.Schema.ty, [])
  | None ->
    let in_scope =
      rel = "" || List.exists (fun (c : Schema.column) -> c.Schema.rel = rel) schema
    in
    let code = if in_scope then "unknown-column" else "out-of-scope" in
    let shown = if rel = "" then col else rel ^ "." ^ col in
    ( None,
      [ Diag.error ~code
          (Fmt.str "column %s does not resolve in %a" shown Schema.pp schema) ] )
  | exception Failure _ ->
    ( None,
      [ Diag.error ~code:"ambiguous-column"
          (Fmt.str "unqualified column %s is ambiguous in %a" col Schema.pp
             schema) ] )

let value_ty (v : Value.t) : Value.ty option = Value.type_of v

let rec infer (schema : Schema.t) (e : Expr.t) :
  Value.ty option * Diag.t list =
  match e with
  | Expr.Const v -> (value_ty v, [])
  | Expr.Col c -> resolve schema c
  | Expr.Binop (op, a, b) -> (
    let ta, da = infer schema a in
    let tb, db = infer schema b in
    match (ta, tb) with
    | Some ta, Some tb -> (
      match Typing.binop_ty op ta tb with
      | Some ty -> (Some ty, da @ db)
      | None ->
        ( None,
          da @ db
          @ [ Diag.error ~code:"type-mismatch"
                (Fmt.str "arithmetic %s on %s and %s" (Expr.binop_name op)
                   (Value.ty_name ta) (Value.ty_name tb)) ] ))
    | _ -> (None, da @ db))
  | Expr.Cmp (op, a, b) -> (
    let ta, da = infer schema a in
    let tb, db = infer schema b in
    match (ta, tb) with
    | Some ta, Some tb when not (comparable ta tb) ->
      ( Some Value.Tbool,
        da @ db
        @ [ Diag.error ~code:"type-mismatch"
              (Fmt.str "comparison %s between %s and %s" (Expr.cmp_name op)
                 (Value.ty_name ta) (Value.ty_name tb)) ] )
    | _ -> (Some Value.Tbool, da @ db))
  | Expr.And (a, b) | Expr.Or (a, b) ->
    let da = boolean_operand schema a in
    let db = boolean_operand schema b in
    (Some Value.Tbool, da @ db)
  | Expr.Not a -> (Some Value.Tbool, boolean_operand schema a)
  | Expr.Is_null a ->
    let _, d = infer schema a in
    (Some Value.Tbool, d)
  | Expr.Udf (_, args) ->
    (* UDFs act as user-defined predicates; argument types are the UDF's
       own business, but the references must still resolve. *)
    (Some Value.Tbool, List.concat_map (fun a -> snd (infer schema a)) args)

and boolean_operand schema e = boolean ~code:"type-mismatch" Typing.Operand schema e

and boolean ~code use schema e =
  let ty, d = infer schema e in
  match Typing.boolean_rule use e ty with
  | None -> d
  | Some m -> d @ [ Diag.error ~code m ]

let check_predicate =
  boolean ~code:"non-boolean-predicate" Typing.Predicate

let infer_agg schema (a : Expr.agg) : Value.ty option * Diag.t list =
  match Expr.agg_arg a with
  | None -> (Some (Expr.agg_ty a None), [])
  | Some arg -> (
    let ty, d = infer schema arg in
    match Expr.agg_ty a ty with
    | ty -> (Some ty, d)
    | exception Expr.Type_error m ->
      (None, d @ [ Diag.error ~code:"type-mismatch" m ]))
