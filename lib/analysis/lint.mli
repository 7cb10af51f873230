(** Provable-bound lints: flag cardinality estimates that escape the
    analyzer's sound envelope.

    Diagnostic codes: [est-above-envelope] and [est-below-envelope]
    (warnings, fired past a small tolerance that absorbs the
    estimator's deliberate slack), [est-zero-nonempty] (error: a
    ~zero estimate on an operator that provably yields rows) and
    [analysis-failed] (warning: the analyzer raised on a node). *)

(** Compare one estimate against one envelope. *)
val check :
  label:string -> Domain.envelope -> float -> Verify.Diag.t list

(** Lint a physical plan: the plan's estimates vs analyzer envelopes,
    per operator, in one bottom-up pass.  [est] is the estimate of a
    node — the pipeline passes the one annotation the planner's
    estimates come from ([Obs.Est.card]); the mutation tests seed a
    corrupted one.  Never raises: a node the analyzer cannot digest
    yields an [analysis-failed] warning naming it, and its ancestors go
    unchecked. *)
val physical :
  est:(Exec.Plan.t -> float option) ->
  Storage.Catalog.t ->
  Stats.Table_stats.db ->
  Exec.Plan.t ->
  Verify.Diag.t list
