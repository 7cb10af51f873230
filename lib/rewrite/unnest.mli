(** Subquery unnesting (Section 4.2.2, after Kim [35], Dayal [13] and
    Muralikrishna [44]; Section 4.3's magic sets [56]): IN/EXISTS become
    semijoins against a decorrelated view, NOT EXISTS an antijoin, and
    correlated scalar aggregates a view aggregated once per correlation
    value and joined back — left-outer-joined when the subquery's value on
    no rows is not NULL (COUNT), which is what avoids the count bug. *)

open Relalg

(** A decorrelated SPJ subquery: the local view, the correlation conjuncts
    rewritten against it, and its first output column. *)
type decorrelated = {
  view : Qgm.block;
  view_alias : string;
  corr_pred : Expr.t list;
  out_col : Expr.col_ref;
}

val decorrelate_spj : Qgm.block -> decorrelated option

(** IN / EXISTS -> semijoin; NOT EXISTS -> antijoin.  A subquery whose
    select list names an outer relation is unnested as an EXISTS: an IN
    operand's comparison with the select item joins its WHERE, and the
    view selects a constant. *)
val quantified_rule : Rules.t

(** Uncorrelated scalar subquery -> one-row derived source. *)
val scalar_uncorrelated_rule : Rules.t

(** Correlated scalar aggregate [e op (SELECT AGG(a) FROM I WHERE corr
    AND local)], aggregate first (Kim [35]).  The outer block keeps its
    rows: no regrouping, so duplicate outer rows and grouped outer blocks
    are exact.
    - Every [corr] conjunct an equality [inner = outer]: a view grouping
      [I] by the inner sides joins the outer block on the outer sides.
    - Otherwise the magic set [SELECT DISTINCT] of the outer correlation
      columns joins [I] pre-aggregated on its correlation columns
      ({!Groupby.combining_agg}; AVG joins [I] itself), grouped by the
      magic columns and joined back on them by equality.  Fires only when
      [corr] rejects NULL in every outer correlation column.
    When the subquery's value on no rows is not NULL (COUNT, or a select
    expression over the aggregate), the view is left-outer-joined inside
    a derived block and the comparison filters above it, reading a padded
    row as that value.  Fires when every correlated reference is in
    [corr] and names a FROM source of the outer block. *)
val scalar_correlated_rule : Rules.t

(** The deliberately wrong variant — the same shape with an inner join
    and no padded-row filter — kept to exhibit the count bug (experiment
    E5). *)
val naive_cmp_rule : Rules.t

(** [quantified_rule; scalar_uncorrelated_rule; scalar_correlated_rule]. *)
val default_rules : Rules.t list
