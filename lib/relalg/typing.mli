(** Static typing of expressions: the one code that computes their types.

    One recursion types an expression against a schema.  Every column
    reference must resolve; arithmetic operands must combine
    ([string + string], or numbers); the operands of a comparison must
    compare ({!comparable}); an operand of AND, OR or NOT must be boolean.
    An untyped NULL has no type, and passes every rule.  The recursion
    has two instances: {!check} collects every typing error and never
    raises (the binder and the plan lint use it); {!infer} raises at the
    first, and types a well-typed expression without allocating (output
    schemas use it on every execution). *)

exception Error of string

(** A typing error.  [code] is one of [unknown-column], [out-of-scope],
    [ambiguous-column], [type-mismatch] or [non-boolean-predicate];
    [term] is the offending subterm, which [message] names. *)
type error = { code : string; term : Expr.t; message : string }

(** Do values of the two types compare: equal, or int and float? *)
val comparable : Value.ty -> Value.ty -> bool

(** [check schema e] is [e]'s type ([None] when it is not determined: an
    untyped NULL, or an ill-typed subterm) and its errors, in term order.
    [show] prints a term in a message (default {!Expr.to_string}). *)
val check : ?show:(Expr.t -> string) -> Schema.t -> Expr.t ->
  Value.ty option * error list

(** {!check} of an aggregate's argument, plus the aggregate's own rule
    ({!Expr.agg_ty}: SUM and AVG take numbers). *)
val check_agg : Schema.t -> Expr.agg -> Value.ty option * error list

(** The errors of [e] used as a predicate: {!check}'s, and
    [non-boolean-predicate] when its type is not bool. *)
val check_predicate : ?show:(Expr.t -> string) -> Schema.t -> Expr.t ->
  error list

(** The comparison rule on two types determined elsewhere (a subquery's
    output column): a [type-mismatch] naming [term] when both are known
    and do not compare. *)
val check_comparison : ?show:(Expr.t -> string) -> Expr.t ->
  Value.ty option -> Value.ty option -> error list

(** The type {!check} gives, an undetermined one defaulting to int.
    @raise Error with the message of the first error {!check} reports. *)
val infer : Schema.t -> Expr.t -> Value.ty

(** {!infer} for an aggregate, as {!check_agg} types it. *)
val infer_agg : Schema.t -> Expr.agg -> Value.ty
