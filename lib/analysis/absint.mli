(** The abstract interpreter: bottom-up analysis of QGM blocks and
    physical plans.

    For each operator output it computes per-column abstract values
    (interval, nullability, type), unique column sets, and a provable
    cardinality envelope.  All facts are sound: base facts come only
    from catalog NOT NULL declarations and full-scan [Table_stats]
    (whose [rows], [null_frac], [n_distinct], [min_v]/[max_v] are
    exact), and predicate refinement follows SQL three-valued logic —
    a WHERE conjunct keeps a row only when it evaluates to TRUE. *)

open Relalg

type key = string * string  (** (relation alias, column name) *)

type state = {
  cols : (key * Domain.aval) list;
      (** abstract value per visible column; absent means top *)
  uniq : key list list;
      (** unique column sets; the empty set asserts [<= 1] row *)
  env : Domain.envelope;  (** provable bounds on the exact row count *)
}

(** The one-row relation (scalar aggregate output, FROM-less select). *)
val unit_state : state

(** Abstract value of an output column by (unqualified) name. *)
val col_aval : state -> string -> Domain.aval option

(** [assume st e] is the strongest state provable when [e] evaluates to
    TRUE on a row of [st]; [None] when [e] can never be TRUE (the
    conjunct is unsatisfiable).  [outer] supplies correlation columns,
    which are consulted but never refined. *)
val assume :
  ?outer:(key * Domain.aval) list -> state -> Expr.t -> state option

(** Abstract evaluation of a scalar expression over column facts. *)
val aval_of_expr :
  ?outer:(key * Domain.aval) list ->
  (key * Domain.aval) list ->
  Expr.t ->
  Domain.aval

(** Base-table facts; without [db] only schema nullability is known and
    the envelope is top. *)
val scan : ?db:Stats.Table_stats.db -> table:string -> alias:string ->
  Schema.t -> state

(** {2 Transfer functions} *)

val cross : state -> state -> state

val select_conjuncts :
  ?outer:(key * Domain.aval) list -> state -> Expr.t list -> state

val inner_join :
  ?outer:(key * Domain.aval) list -> state -> state -> Expr.t -> state

val left_outer_join :
  ?outer:(key * Domain.aval) list -> state -> state -> Expr.t -> state

val semi_join :
  ?outer:(key * Domain.aval) list -> anti:bool -> state -> state ->
  Expr.t -> state

val group :
  ?outer:(key * Domain.aval) list -> state ->
  keys:(Expr.t * string) list -> aggs:(Expr.agg * string) list -> state

val project :
  ?outer:(key * Domain.aval) list -> state -> (Expr.t * string) list ->
  state

val distinct : state -> state
val union : all:bool -> state -> state -> state

(** {2 Whole-tree analyses} *)

(** Analyze a QGM block.  [outer] supplies correlation columns; for a
    correlated block the envelope bounds the rows of {e one}
    invocation. *)
val of_block :
  ?db:Stats.Table_stats.db ->
  ?outer:(key * Domain.aval) list ->
  Rewrite.Qgm.block ->
  state

val of_query : ?db:Stats.Table_stats.db -> Rewrite.Qgm.query -> state

(** Transfer function of one physical operator, given its children's
    states in {!Exec.Plan.children} order.  An [Index_nl]'s inner side is
    the scan of its probed table.
    @raise Invalid_argument when [kids] does not match the operator. *)
val plan_node :
  ?db:Stats.Table_stats.db -> Storage.Catalog.t -> Exec.Plan.t ->
  state list -> state

(** Every node's state, in {!Exec.Plan.preorder} order (index =
    operator id), from one bottom-up pass. *)
val annotate_plan :
  ?db:Stats.Table_stats.db -> Storage.Catalog.t -> Exec.Plan.t ->
  state array
