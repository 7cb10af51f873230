(** Magic / semijoin-like decorrelation (Section 4.3, after [42,56]): when
    a query joins an aggregating view on its group-by key, compute the rest
    of the query first (PartialResult), project its distinct keys (Filter),
    and restrict the view to them (LimitedView) — the paper's DepAvgSal
    example. *)

(** [filter_set ~from ~where keys] is [SELECT DISTINCT keys FROM from
    WHERE where]: the distinct values an outer computation binds [keys] to
    (the Filter above; also the magic set of correlated-subquery
    unnesting, {!Unnest}). *)
val filter_set :
  from:Qgm.source list -> ?where:Relalg.Expr.t list ->
  (Relalg.Expr.t * string) list -> Qgm.block

val apply : Qgm.block -> Qgm.block option

val rule : Rules.t
