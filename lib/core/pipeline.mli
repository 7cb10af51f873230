(** The end-to-end query pipeline:

    QGM block → rewrite rules → derived sources materialized
    block-at-a-time (the Starburst style of optimizing a block at a time) →
    System-R join enumeration on the base-only core → semijoins,
    outerjoins, grouping, having, order, projection → execution.

    Queries whose subquery predicates survive rewriting fall back to the
    tuple-iteration interpreter, so every query runs. *)

type config = {
  rewrites : Rewrite.Rules.t list list;  (** rule classes, run in order *)
  join_config : Systemr.Join_order.config;
  lint : bool;
  (** run the [verify] static checker after every rewrite-rule
      application and on every finished physical plan *)
  engine : [ `Interpreted | `Batch ];
  (** which engine executes physical plans (default [`Batch]); both
      produce bit-identical rows and cost accounting *)
  analysis : bool;
  (** abstract-interpretation pass (off by default): appends the
      analyzer-backed rewrite rules ([Analysis.Simplify.rules]: folding
      provably-empty subtrees, transitive range closure) as a final rule
      class, and lints every executed physical plan's cardinality
      estimates — the planner's own, under [estimator] — against the
      analyzer's sound envelope ([est-above-envelope] /
      [est-below-envelope] warnings, [est-zero-nonempty] errors, and
      [analysis-failed] warnings for a node the analyzer raised on)
      into [report.diags] *)
  dop : int;
  (** degree of parallelism (default 1).  > 1 executes batch plans with
      the morsel-driven engine ({!Exec.Morsel}), each node running at
      the dop its two-phase segment ({!Parallel.Two_phase.node_dop}) was
      scheduled at; rows and cost accounting stay bit-identical to
      [dop = 1].  Ignored by the interpreted engine, and a no-op on
      OCaml < 5. *)
  morsel_rows : int;
  (** parallel split granularity in rows (default
      {!Exec.Morsel.default_morsel_rows}); tests and the fuzzer shrink
      it to force multi-morsel execution on small tables *)
  chunk_rows : int;
  (** columnar-engine block granularity (default
      {!Exec.Batch.default_chunk_rows}); rows and counters are
      [chunk_rows]-independent — the fuzzer shrinks it to exercise block
      boundaries *)
  estimator :
    [ `Histogram
    | `Feedback of Stats.Feedback.t
    | `Sketch of Stats.Sketch.registry ];
  (** cardinality estimation mode, and the only switch for it (default
      [`Histogram], the stock {!Stats.Derive} path — bit-identical to
      the pre-estimator pipeline).  [`Feedback] carries an
      observed-cardinality cache: every execution records per-operator
      actuals under normalized subexpression digests ({!Stats.Feedback}),
      and re-optimization overrides derived estimates with fresh cached
      actuals — invalidated when the involved tables' statistics are
      refreshed to different row counts.  [`Sketch] carries a Fast-AGMS
      registry ({!Stats.Sketch}): executions build one-pass sketches
      over the plan's join-key columns (batch/morsel engines only), each
      block's statistics snapshot ([report.stats_at_plan]) carries the
      fresh ones, and join selectivities prefer them over histograms.
      The mutable state lives in the variant: reuse one config across
      runs to close the loop.  The caller's statistics registry is never
      written under any mode. *)
  telemetry : Obs.Span.recorder option;
  (** the one telemetry switch (default [None] — zero cost).  [Some r]
      records everything about the run into [r]: every stage (rewrite,
      optimize with nested view/enumerate spans, verify, execute) opens a
      span and feeds the [stage_seconds{stage="..."}] latency histograms;
      optimizer trace events (rewrites fired/rejected, per-level
      enumeration counters, prunes, interesting-order retentions, memo
      statistics, feedback overrides/records/stale drops) land on the
      span open when they were emitted; and each planned block's
      [execute] span carries its {!Exec.Instrument} recorder with the
      optimizer's estimates attached (EXPLAIN ANALYZE actuals, worker
      timelines).  The caller owns the recorder (typically wrapping
      parse/bind spans around the pipeline) and calls {!Obs.Span.finish}
      to close the tree. *)
}

(** view merging; unnesting; view merging again; constant propagation;
    predicate pushdown. *)
val default_rewrites : Rewrite.Rules.t list list

val default_config : config

(** No rewriting at all — the tuple-iteration baseline for nested queries. *)
val naive_config : config

type path = Planned | Interpreted

type report = {
  rewritten : Rewrite.Qgm.block;
  trace : Rewrite.Rules.trace;
  path : path;
  plan : Exec.Plan.t option;  (** [None] when interpreted *)
  est_cost : float;
  enum : Systemr.Join_order.counters;
  (** enumeration effort (subsets, splits, costed, pruned), summed over
      this block and its materialized views *)
  diags : Verify.Diag.t list;  (** lint findings; [[]] when lint is off *)
  stats_at_plan : Stats.Table_stats.db option;
  (** the block's private statistics snapshot: a copy of the caller's
      registry taken before planning, plus the view temporaries and,
      under [`Sketch], the fresh sketches — everything the block was
      planned, executed, linted and annotated against.  Re-annotating
      the plan after an ANALYZE refresh must use this, not the live
      registry — {!Obs.Est} re-synthesizes index-scan bound
      selectivities from the stats it is handed, and against refreshed
      stats the "estimates" would be numbers the planner never
      produced.  [None] on the interpreted path. *)
  span : Obs.Span.t option;
  (** this block's whole telemetry subtree — rewrite / optimize / verify
      / execute spans, their events ({!Obs.Span.events}) and the execute
      span's operator recorder ({!Obs.Span.recorders}) — closed by the
      time the report is returned; [None] unless [config.telemetry] *)
}

(** Can this block (including nested ones) be planned — no residual
    subquery predicates or correlation? *)
val plannable : Rewrite.Qgm.block -> bool

(** What keeps the block from being planned — the first correlated
    reference or residual subquery predicate, in the block or a view
    nested in it — or [None] when it is {!plannable}.  {!run} records it
    as an {!Obs.Trace.Interpreted_fallback} event on the block's span. *)
val fallback_reason : Rewrite.Qgm.block -> string option

(** Plan a single plannable block, materializing derived sources into
    temporary tables; returns (plan, estimated cost, enumeration
    counters, temp tables created).  The temporaries are registered in
    the catalog and in the statistics registry handed in, and the
    caller removes them; {!run} and {!explain} hand it a private
    snapshot.  A [`Feedback] estimator's cache is passed to the join
    enumerator, and a [`Sketch] one's sketches are used only if the
    registry handed in carries them.  [on_plan] is called with every
    finished plan — including view sub-plans, while their temporaries are
    still cataloged — which is where the linter hooks in.  [trace] is the
    optimizer-trace sink threaded into the join enumerator.  With
    [exec_views:false] derived sources are planned but not executed: their
    temporaries stay empty, carry estimate-derived statistics, and
    [on_view] sees each view's (alias, plan). *)
val plan_block :
  ?on_plan:(Exec.Plan.t -> unit) ->
  ?trace:(Obs.Trace.event -> unit) ->
  ?exec_views:bool ->
  ?on_view:(string -> Exec.Plan.t -> unit) ->
  Exec.Context.t -> config -> Storage.Catalog.t -> Stats.Table_stats.db ->
  Rewrite.Qgm.block ->
  Exec.Plan.t * float * Systemr.Join_order.counters * string list

(** Rewrite, plan (or fall back to interpretation), execute. *)
val run :
  ?ctx:Exec.Context.t -> ?config:config -> Storage.Catalog.t ->
  Stats.Table_stats.db -> Rewrite.Qgm.block ->
  Exec.Executor.result * report

(** Human-readable rewrite trace + physical plan(s) + estimated cost.
    Derived sources are planned but never executed: view temporaries stay
    empty and carry statistics fabricated from the sub-plan's estimated
    cardinality, so outer-block costs remain realistic.  Use
    [analyze_query] to execute. *)
val explain :
  ?config:config -> Storage.Catalog.t -> Stats.Table_stats.db ->
  Rewrite.Qgm.block -> string

(** Run a full query (UNION [ALL] above the block layer); one report per
    block arm.  @raise Invalid_argument on arity mismatch. *)
val run_query :
  ?ctx:Exec.Context.t -> ?config:config -> Storage.Catalog.t ->
  Stats.Table_stats.db -> Rewrite.Qgm.query ->
  Exec.Executor.result * report list

val explain_query :
  ?config:config -> Storage.Catalog.t -> Stats.Table_stats.db ->
  Rewrite.Qgm.query -> string

(** EXPLAIN ANALYZE: run the query with telemetry on — into
    [config.telemetry] under an ["analyze"] span, or into a fresh
    recorder — and return (result, reports, {!Obs.Analyze.render} of
    that subtree).  The text shows, per operator, estimated vs. actual
    rows, the q-error [max(est/act, act/est)], rescans,
    execution-counter deltas and — unless [show_wall:false]
    (deterministic output for tests) — wall-clock time, plus a per-plan
    worst-q-error summary line; UNION arms are rendered in sequence. *)
val analyze_query :
  ?ctx:Exec.Context.t -> ?config:config -> ?show_wall:bool ->
  Storage.Catalog.t -> Stats.Table_stats.db -> Rewrite.Qgm.query ->
  Exec.Executor.result * report list * string
