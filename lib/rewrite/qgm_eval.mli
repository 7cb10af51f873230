(** Naive tuple-iteration interpreter for QGM blocks (Section 4.2.2's
    baseline semantics): correlated subqueries are re-evaluated once per
    outer tuple, charging the shared execution context for every rescan.
    Both the ground truth for rewrite correctness and the "before" system
    of the unnesting experiments. *)

val run :
  ?ctx:Exec.Context.t -> Storage.Catalog.t -> Qgm.block ->
  Exec.Executor.result

(** UNION [ALL] of two arm results: UNION ALL concatenates, UNION keeps
    the first occurrence of each row.  Charges one CPU op per combined
    row.  @raise Invalid_argument on arity mismatch. *)
val union :
  ctx:Exec.Context.t -> all:bool -> Exec.Executor.result ->
  Exec.Executor.result -> Exec.Executor.result

(** Evaluate a full query, combining arms with {!union}.
    @raise Invalid_argument on arity mismatch between union arms. *)
val run_query :
  ?ctx:Exec.Context.t -> Storage.Catalog.t -> Qgm.query ->
  Exec.Executor.result
