(** QGM-lite: a multi-block query representation in the spirit of
    Starburst's Query Graph Model (Section 6.1).

    A block is one SELECT: inner-joined sources, a conjunctive WHERE whose
    conjuncts may embed subquery predicates, optional grouping with HAVING,
    DISTINCT, and a select list.  Semi/anti-join and left-outerjoin sources
    extend the FROM so unnesting rewrites have a target shape; "inner joins
    first, then outerjoins" is the associativity normal form of
    Section 4.1.2. *)

open Relalg

type source =
  | Base of { table : string; alias : string; schema : Schema.t }
  | Derived of { block : block; alias : string }

and block = {
  distinct : bool;
  select : (Expr.t * string) list;
  from : source list;  (** inner-joined *)
  where : predicate list;  (** conjuncts *)
  group_by : (Expr.t * string) list;
  aggs : (Expr.agg * string) list;
  having : predicate list;
  semijoins : semijoin list;  (** applied after the inner joins *)
  outerjoins : outerjoin list;  (** applied after semijoins *)
  order_by : (Expr.t * Algebra.dir) list;
}

and semijoin = { s_source : source; s_pred : Expr.t; s_anti : bool }

and outerjoin = { o_source : source; o_pred : Expr.t }

and predicate =
  | P of Expr.t
  | In_sub of Expr.t * block  (** e IN (block with one output column) *)
  | Exists_sub of bool * block  (** EXISTS (true) / NOT EXISTS (false) *)
  | Cmp_sub of Expr.cmpop * Expr.t * block  (** e op (scalar block) *)

val alias_of_source : source -> string

(** Output schema: unqualified columns named by select aliases. *)
val block_schema : block -> Schema.t

(** Columns visible inside the block (inner + outerjoin sources). *)
val inner_schema : block -> Schema.t

val source_schema : source -> Schema.t

(** Aliases bound by the block's own sources. *)
val bound_aliases : block -> string list

(** Free (correlated) column references, in clause order: qualified by
    an alias none of the block's own sources binds (nested blocks
    included). *)
val free_columns : block -> Expr.col_ref list

(** Free (correlated) relation aliases: the qualifiers of
    {!free_columns}, sorted and unique. *)
val free_aliases : block -> string list

val is_correlated : block -> bool

(** Mergeable into a parent without changing semantics (Section 4.2.1). *)
val is_simple_spj : block -> bool

val plain_preds : predicate list -> Expr.t list
val sub_preds : predicate list -> predicate list

(** Column-reference substitution. *)
val subst_expr : (Expr.col_ref * Expr.t) list -> Expr.t -> Expr.t
val subst_agg : (Expr.col_ref * Expr.t) list -> Expr.agg -> Expr.agg

(** Deep substitution of free column references across a whole block,
    including nested subquery-predicate blocks and derived sources.
    Capture-aware: entries whose alias a (sub-)block rebinds are shadowed
    there.  (Entries rebound by [b] itself are dropped outright — use the
    per-clause substitutions when replacing a block's own source.) *)
val subst_block : (Expr.col_ref * Expr.t) list -> block -> block

(** Fresh alias generation for rewrite-introduced views. *)
val fresh_alias : string -> string

(** Smart constructor for plain single-block queries. *)
val simple :
  ?distinct:bool -> ?where:Expr.t list -> ?group_by:(Expr.t * string) list ->
  ?aggs:(Expr.agg * string) list -> ?having:Expr.t list ->
  ?order_by:(Expr.t * Algebra.dir) list -> select:(Expr.t * string) list ->
  from:source list -> unit -> block

val pp_block : Format.formatter -> block -> unit
val pp_source : Format.formatter -> source -> unit
val pp_pred : Format.formatter -> predicate -> unit
val block_to_string : block -> string

(** {2 Full queries} *)

(** UNION [ALL] combinations of blocks, top level only — the paper notes
    predicate graphs cannot represent union (Section 4). *)
type query =
  | Q_block of block
  | Q_union of { all : bool; left : query; right : query }

(** Schema of a query (taken from its leftmost block). *)
val query_schema : query -> Schema.t

val pp_query : Format.formatter -> query -> unit
