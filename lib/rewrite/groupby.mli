(** Eager (staged) aggregation — group-by pushed below a join, Figure 4(c)
    and [5,60].  A source supplying every aggregate argument is replaced by
    a pre-aggregating view grouped on (its group-by ∪ join columns); the
    outer group-by re-aggregates with the combining form of each aggregate
    (SUM→SUM, COUNT→SUM, MIN→MIN, MAX→MAX).  AVG is not decomposed. *)

(** [combining_agg g partial] re-aggregates partial results of [g] held
    in [partial] (SUM→SUM, COUNT→SUM, MIN→MIN, MAX→MAX); [None] for AVG. *)
val combining_agg : Relalg.Expr.agg -> Relalg.Expr.t -> Relalg.Expr.agg option

val apply : Qgm.block -> Qgm.block option

val rule : Rules.t
