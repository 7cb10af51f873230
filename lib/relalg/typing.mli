(** Static type inference for expressions, used to derive output schemas of
    projections and aggregations. *)

exception Error of string

(** Type of a value; an untyped NULL literal defaults to int. *)
val value_ty : Value.t -> Value.ty

(** Result type of arithmetic on operands of the given types; [None]
    when they do not combine. *)
val binop_ty : Expr.binop -> Value.ty -> Value.ty -> Value.ty option

(** Type of an expression against a schema. @raise Error on unknown
    columns or ill-typed arithmetic. *)
val infer : Schema.t -> Expr.t -> Value.ty

(** Where a boolean is required: an AND/OR/NOT operand or a predicate. *)
type boolean_use = Operand | Predicate

(** The boolean rule of the binder and the verifier: [None] when [e] of
    type [ty] may be used so ([ty] is bool, or [None]: an untyped NULL or
    a type not determined), else [Some] the explanation. *)
val boolean_rule : boolean_use -> Expr.t -> Value.ty option -> string option

(** Result type of an aggregate whose argument is typed against [schema]. *)
val infer_agg : Schema.t -> Expr.agg -> Value.ty
