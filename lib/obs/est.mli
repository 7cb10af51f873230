(** Post-hoc per-node cardinality estimates for physical plans.

    The enumerator costs logical subsets, not physical nodes; this module
    re-derives a per-node estimate by one bottom-up {!Stats.Derive} pass
    over the final plan — the same propagation rules the optimizer used.
    EXPLAIN ANALYZE, plan lint, the query log, EXPLAIN's view sizing,
    feedback recording and the two-phase parallel scheduler all read
    these estimates; [Core.Pipeline] computes one annotation per
    executed plan and hands it to each of them.
    Must run while any temporary tables the plan scans are still present
    in the catalog and stats registry. *)

(** Every node's estimate, in {!Exec.Plan.preorder} order (index =
    {!Exec.Instrument} operator id). *)
type t

(** Derive estimates for every node of [plan].  [db] must be the
    statistics snapshot the planner used — annotating against a registry
    refreshed after planning reports estimates the planner never saw
    (and mis-synthesizes index-scan bound selectivities).  When
    [feedback] is set, fresh observed cardinalities override the derived
    ones node by node, propagating upward exactly as in the optimizer,
    and the annotation keeps each node's feedback key ({!feedback_key}). *)
val annotate :
  ?asm:Stats.Derive.assumption ->
  ?feedback:Stats.Feedback.t ->
  Storage.Catalog.t -> Stats.Table_stats.db -> Exec.Plan.t -> t

(** Feedback-cache key and involved base tables for every keyable node of
    the plan (physical identity), mirroring
    [Systemr.Join_order.feedback_key] for SPJ subtrees.  Subtrees
    touching materialized-view temp tables are skipped. *)
val feedback_keys :
  Exec.Plan.t -> (Exec.Plan.t * (Stats.Feedback.key * string list)) list

(** Estimated output cardinality of a node ([==] identity). *)
val card : t -> Exec.Plan.t -> float option

(** Estimated output pages of a node ([==] identity). *)
val pages : t -> Exec.Plan.t -> float option

(** Feedback-cache key and involved base tables of the node with this
    operator id; [None] for unkeyable nodes and when annotated without
    [feedback]. *)
val feedback_key : t -> int -> (Stats.Feedback.key * string list) option

(** Copy estimates onto an instrument recorder's operators, by operator
    id; the recorder must be over the annotated plan (operators of any
    other plan get [None]). *)
val attach : t -> Exec.Instrument.t -> unit
