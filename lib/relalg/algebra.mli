(** Logical operator trees — the "query trees" of the paper (Figure 2). *)

(** Join kinds.  [Semi]/[Anti] keep only left attributes and are produced
    by subquery unnesting; [Left_outer] pads unmatched left tuples with
    NULLs. *)
type join_kind = Inner | Left_outer | Semi | Anti

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

val join_kind_name : join_kind -> string

(** Cheap, always-sound nullability of an expression result against an
    input schema: plain column references and non-NULL constants are
    non-null when their source is, everything else is conservatively
    nullable. *)
val expr_nullable : Schema.t -> Expr.t -> bool

(** Nullability of an aggregate output: COUNT is never NULL; SUM/MIN/MAX/
    AVG may be (empty or all-NULL group). *)
val agg_nullable : Schema.t -> Expr.agg -> bool

(** [output_columns input items aggs]: the output schema of a projection
    ([aggs = []]) or a grouping over [input] — one unqualified column per
    item (then per aggregate), named by its alias, typed by
    {!Typing.infer} (or {!Typing.infer_agg}), nullable by
    {!expr_nullable} (or {!agg_nullable}).  @raise Typing.Error. *)
val output_columns :
  Schema.t -> (Expr.t * string) list -> (Expr.agg * string) list -> Schema.t

(** Output schema.  Projection and grouping outputs are unqualified columns
    named by their aliases; nullability is propagated (outer-join right
    sides become nullable, plain projected columns inherit). *)
val schema : t -> Schema.t

(** Relation aliases contributing base tuples to this subtree (semi/anti
    right sides excluded — they contribute no output columns). *)
val base_aliases : t -> string list

(** Operator-node count. *)
val size : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
