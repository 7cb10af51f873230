(** Two-phase parallel optimization (Section 7.1, XPRS [31,32] and Hasan
    [28]): decompose a phase-1 plan into pipelined segments separated by
    blocking operators, derive each segment's work, parallelism cap and
    produced partitioning (a physical property), then schedule segments
    wave by wave.  [partition_aware = false] reproduces XPRS's phase 2
    (every join repartitions both inputs); [true] reuses compatible
    upstream partitioning, after Hasan.

    Segments are sized from the plan estimator {!Obs.Est}: a segment's
    work is the sum of its operators' own cost-model work over the
    estimated rows and pages, and a repartitioned input moves its
    estimated rows at a fixed cost per row. *)

open Relalg

type partitioning =
  | Any  (** round-robin / unknown *)
  | On of Expr.col_ref list  (** hash-partitioned on these columns *)

type segment = {
  id : int;
  ops : string list;
  work : float;
  max_dop : float;  (** parallelizability cap *)
  comm_rows : float;  (** rows repartitioned to feed this segment *)
  deps : int list;  (** blocking predecessors *)
  produces : partitioning;
}

type schedule = {
  segments : segment list;
  response_time : float;
  total_work : float;
  comm_cost : float;
}

type config = { processors : int; partition_aware : bool }

val default_config : config

val compatible : partitioning -> partitioning -> bool

(** Phase-2 segment extraction from a physical plan. *)
val decompose :
  config -> Storage.Catalog.t -> Stats.Table_stats.db -> Exec.Plan.t ->
  segment list

(** [node_dop cfg cat db plan] maps each node of [plan] (by physical
    identity) to the degree of parallelism its segment was scheduled
    at: the segment's [max_dop] cap clamped to [cfg.processors].  The
    morsel executor uses this as its per-node schedule, so phase-2
    decisions govern the actual intra-operator parallelism.  [est] is
    the plan's annotation — the pipeline passes the one it computed
    with the planner's assumption and feedback; without it the plan is
    annotated here with the defaults, as {!decompose} and {!run} do. *)
val node_dop :
  ?est:Obs.Est.t ->
  config -> Storage.Catalog.t -> Stats.Table_stats.db -> Exec.Plan.t ->
  Exec.Plan.t -> int

(** Topological waves of malleable tasks. *)
val schedule_segments : config -> segment list -> schedule

(** {!decompose} then {!schedule_segments}. *)
val run :
  ?config:config -> Storage.Catalog.t -> Stats.Table_stats.db -> Exec.Plan.t ->
  schedule

val pp_schedule : Format.formatter -> schedule -> unit
