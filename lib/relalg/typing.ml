(* Static type inference for scalar expressions, used to derive the output
   schema of projections and aggregations. *)

exception Error of string

let value_ty (v : Value.t) : Value.ty =
  match Value.type_of v with
  | Some ty -> ty
  | None -> Value.Tint (* untyped NULL literal; int is a harmless default *)

(* The arithmetic typing table: [None] when the operands do not combine. *)
let binop_ty (op : Expr.binop) (ta : Value.ty) (tb : Value.ty) :
  Value.ty option =
  match op, ta, tb with
  | Expr.Add, Value.Tstring, Value.Tstring -> Some Value.Tstring
  | (Expr.Add | Expr.Sub | Expr.Mul | Expr.Mod | Expr.Div), Value.Tint,
    Value.Tint ->
    Some Value.Tint
  | _, (Value.Tint | Value.Tfloat), (Value.Tint | Value.Tfloat) ->
    Some Value.Tfloat
  | _ -> None

let rec infer (schema : Schema.t) (e : Expr.t) : Value.ty =
  match e with
  | Expr.Const v -> value_ty v
  | Expr.Col { rel; col } -> (
    match Schema.find_opt schema ~rel ~name:col with
    | Some (_, c) -> c.Schema.ty
    | None ->
      raise (Error (Fmt.str "unknown column %s.%s in %a" rel col Schema.pp schema)))
  | Expr.Binop (op, a, b) -> (
    let ta = infer schema a and tb = infer schema b in
    match binop_ty op ta tb with
    | Some ty -> ty
    | None ->
      raise (Error (Fmt.str "arithmetic on %s and %s"
                      (Value.ty_name ta) (Value.ty_name tb))))
  | Expr.Cmp _ | Expr.And _ | Expr.Or _ | Expr.Not _ | Expr.Is_null _ ->
    Value.Tbool
  | Expr.Udf _ -> Value.Tbool
    (* UDFs in this library act as user-defined predicates (Section 7.2) *)

(* The boolean rule, shared by [Sql.Binder] and [Verify.Typecheck]: an
   operand of AND, OR or NOT, and a predicate, is boolean; [None] (an
   untyped NULL, or a type not determined) passes. *)
type boolean_use = Operand | Predicate

let boolean_rule use e = function
  | Some Value.Tbool | None -> None
  | Some ty when use = Operand ->
    Some (Fmt.str "boolean connective applied to %s operand %a"
            (Value.ty_name ty) Expr.pp e)
  | Some ty ->
    Some (Fmt.str "predicate %a has type %s, expected bool" Expr.pp e
            (Value.ty_name ty))

let infer_agg (schema : Schema.t) (a : Expr.agg) : Value.ty =
  let arg_ty = Option.map (infer schema) (Expr.agg_arg a) in
  match Expr.agg_ty a arg_ty with
  | ty -> ty
  | exception Expr.Type_error m -> raise (Error m)
