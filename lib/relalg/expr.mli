(** Scalar expressions with SQL three-valued logic, and aggregate
    functions. *)

(** A (relation alias, column name) reference. An empty [rel] is resolved
    against the whole schema. *)
type col_ref = { rel : string; col : string }

type binop = Add | Sub | Mul | Div | Mod

type cmpop = Eq | Neq | Lt | Le | Gt | Ge

(** Expression trees.  [Udf] carries a user-defined function together with
    its optimizer contract (per-tuple cost and selectivity, Section 7.2 of
    the paper). *)
type t =
  | Const of Value.t
  | Col of col_ref
  | Binop of binop * t * t
  | Cmp of cmpop * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Is_null of t
  | Udf of udf * t list

and udf = {
  udf_name : string;
  udf_fn : Value.t list -> Value.t;
  udf_cost_per_tuple : float;
  udf_selectivity : float;
}

(** {2 Construction helpers} *)

val col : rel:string -> col:string -> t
val int : int -> t
val str : string -> t
val bool : bool -> t

(** The constant TRUE (the identity of conjunction). *)
val ftrue : t

val cmp_name : cmpop -> string
val binop_name : binop -> string

(** {2 Inspection} *)

(** Columns referenced, deduplicated, in first-occurrence order. *)
val columns : t -> col_ref list

(** [map f e] rebuilds [e] with [f] applied at its [Col] and [Const]
    leaves. *)
val map : (t -> t) -> t -> t

(** Relation aliases referenced, sorted and deduplicated. *)
val relations : t -> string list

(** {2 Evaluation} *)

exception Type_error of string

(** [compile schema e] resolves column positions once and returns a
    per-tuple evaluator.  @raise Type_error on unresolvable columns. *)
val compile : Schema.t -> t -> Tuple.t -> Value.t

(** One-shot evaluation. *)
val eval : Schema.t -> Tuple.t -> t -> Value.t

(** [holds schema e]: does [e] evaluate to [Bool true] (WHERE semantics,
    UNKNOWN rejects)?  The one held-predicate compiler: Const/Cmp/And/Or
    evaluate unboxed, anything else tests the value {!compile} computes. *)
val holds : Schema.t -> t -> Tuple.t -> bool

(** [compile2 left right e] resolves columns against
    [Schema.concat left right] (same lookup and ambiguity behaviour as
    {!compile} on the concatenation) but pins each reference to a (side,
    offset) pair, so join predicates evaluate over the two input tuples
    without materializing their concatenation.  {!compile} and
    [compile2] are instances of one compiler.
    @raise Type_error on unresolvable columns. *)
val compile2 : Schema.t -> Schema.t -> t -> Tuple.t -> Tuple.t -> Value.t

(** {!holds} over two input tuples, columns pinned as by {!compile2}. *)
val holds2 : Schema.t -> Schema.t -> t -> Tuple.t -> Tuple.t -> bool

(** [compare_op op c] applies comparison operator [op] to the sign [c] of a
    three-way comparison. *)
val compare_op : cmpop -> int -> bool

(** {2 Aggregates} *)

type agg =
  | Count_star
  | Count of t
  | Sum of t
  | Min of t
  | Max of t
  | Avg of t

(** The argument expression, or [None] for [Count_star]. *)
val agg_arg : agg -> t option

val pp_agg : Format.formatter -> agg -> unit

(** Streaming aggregate state: {!agg_init}, then {!agg_step} per value,
    then {!agg_final}.  SUM/MIN/MAX/AVG of an empty (or all-NULL) input are
    NULL; COUNT is 0. *)
type agg_state

val agg_init : unit -> agg_state
val agg_step : agg_state -> Value.t -> unit

(** [agg_step_int st k] = [agg_step st (Value.Int k)] without boxing the
    argument (the min/max slots allocate only when they change).  The
    columnar engines use it to fold unboxed integer columns; the resulting
    state is field-identical to the boxed fold. *)
val agg_step_int : agg_state -> int -> unit

val agg_final : agg -> agg_state -> Value.t

(** Merge two partial states — the combining form used by staged
    aggregation (Figure 4c).  Valid for COUNT/SUM/MIN/MAX/AVG. *)
val agg_combine : agg_state -> agg_state -> agg_state

(** Result type of an aggregate given its argument type. *)
val agg_ty : agg -> Value.ty option -> Value.ty

val pp : Format.formatter -> t -> unit
val to_string : t -> string
