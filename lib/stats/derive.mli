(** Selectivity estimation and propagation of statistical summaries through
    operators (Section 5.1.3).

    A {!rel_stats} is the statistical summary of one data stream — a
    *logical* property shared by every plan for the same expression (the
    logical/physical distinction of Section 5.2).

    A join's summary links its two inputs instead of copying their
    columns, and caps distinct counts when a column is looked up rather
    than when the summary is built, so one derivation allocates the same
    few words however many columns its inputs carry.  Read columns
    through {!find_col} and {!columns}, which apply the caps.

    A column's statistics may be deferred (a view temporary's,
    {!Table_stats.analyze_deferred}): {!find_col} forces only the column
    it returns, {!apply_select} keeps unread columns deferred and
    {!distinct} forces the first four. *)

open Relalg

type col_key = string * string  (** (alias, column) *)

type rel_stats = {
  card : float;
  ndv_cap : float;
      (** upper bound on the distinct count of every column in [cols],
          including those of linked inputs *)
  width : int;  (** [Storage.Page.tuple_width] of the stream's schema *)
  cols : cols;
}

(** The stream's columns, in the order of its schema. *)
and cols =
  | Cols of Schema.t * (col_key * Table_stats.col_stats Lazy.t) list
      (** a base table, or the output of a selection, projection or
          grouping *)
  | Concat of rel_stats * rel_stats
      (** a join: the left input's columns, then the right's *)

(** Estimation assumptions (exercised by experiment E10). *)
type assumption = {
  conjunction : [ `Independence | `Most_selective ];
  use_histograms : bool;
}

val default_assumption : assumption

(** System-R's ad-hoc fallback constants ([55]). *)
val default_eq_sel : float
val default_range_sel : float
val default_sel : float

(** Estimated pages of the stream. *)
val pages : rel_stats -> float

(** Summary of a base table under a query alias. *)
val of_table : Table_stats.t -> alias:string -> schema:Schema.t -> rel_stats

(** The stream's schema (built by concatenation for a join). *)
val schema : rel_stats -> Schema.t

(** Statistics of a column: the first [(alias, column)] match in column
    order, else the first unqualified [("", column)] one, with every cap
    on its path applied. *)
val find_col : rel_stats -> Expr.col_ref -> Table_stats.col_stats option

(** Every column in order, caps applied; forces every column. *)
val columns : rel_stats -> (col_key * Table_stats.col_stats) list

(** Predicate selectivity in [0, 1].  [join_memo] serves the histogram
    joins of equi-join conjuncts from a per-query memo; the estimate is
    bit-identical with or without it. *)
val selectivity :
  ?asm:assumption -> ?join_memo:Histogram.join_memo -> rel_stats -> Expr.t ->
  float

(** {2 Propagation through operators} *)

(** Selection: scales cardinality and restricts single-column histograms
    (the simplest propagation case of 5.1.3). *)
val apply_select : ?asm:assumption -> rel_stats -> Expr.t -> rel_stats

(** Join of two streams under a predicate ([join_memo] as in
    {!selectivity}). *)
val join :
  ?asm:assumption -> ?join_memo:Histogram.join_memo -> Algebra.join_kind ->
  rel_stats -> rel_stats -> Expr.t -> rel_stats

(** Grouping: output cardinality from key distinct counts, capped by the
    input cardinality. *)
val group :
  rel_stats -> keys:(Expr.t * string) list -> aggs:(Expr.agg * string) list ->
  rel_stats

val project : rel_stats -> (Expr.t * string) list -> rel_stats
val distinct : rel_stats -> rel_stats
