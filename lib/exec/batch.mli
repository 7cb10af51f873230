(** Columnar execution engine: executes the same physical {!Plan.t}
    trees as {!Executor}, operator-at-a-time over columnar chunks
    ({!Eval.Chunk.t}: per-column typed storage plus a selection vector).
    Scans share their table's memoized typed columns; filters, semi/anti
    joins, DISTINCT, sort and index scans narrow or permute a selection;
    joins emit row indices into gather stores over their inputs; integer
    predicates, projection items, join keys and aggregate arguments run
    unboxed over the column data.  Rows are built only at the root (the
    result) and for nested-loop and residual predicates; a projection
    over a child that already has its row view emits rows sharing its
    boxes.  Hash and stream aggregation share one kernel and emit typed
    columns.

    Each operator is written once, as a kernel over a logical range of
    its input.  {!run} walks the ranges inline, [chunk_rows] at a time;
    {!run_pooled} spreads [morsel]-sized ranges over a {!Domain_pool},
    with hash-partitioned exchanges for joins, aggregation and DISTINCT
    and a parallel merge for ORDER BY.  Workers never touch the
    {!Context}: all charging happens on the calling domain.

    Cost charging is decoupled from data movement — all charging loops
    run over logical (selection-order) row counts, and a [Nested_loop]
    rescan charges the buffer pool (by replaying the inner subtree's
    page-access pattern) without recomputing the inner rows, which are
    cached by physical node identity.

    Contract: for every plan, both entry points return bit-identical rows
    in the same order, and drive the {!Context} (buffer pool page-access
    sequence, CPU, spill counters) identically to {!Executor.run} — at
    any [chunk_rows], [dop] and [morsel].  The interpreter remains the
    differential-testing oracle. *)

(** Default range size of the inline mode. *)
val default_chunk_rows : int

(** Sketch-build hook, asked once per scanned (table, column): return the
    feed callback for columns an estimator wants summarized (Fast-AGMS
    sketches built in one pass over sequential scans, nulls skipped), or
    [None].  Plain function type — the sketch state lives above the
    execution layer. *)
type sketch_hook = table:string -> column:string -> (int -> unit) option

(** When [obs] is given, node executions and replay invocations are
    recorded against the {!Instrument} recorder; per-operator [act_rows]
    and [rescans] match {!Executor.run} on the same plan.  [sketch]
    feeds the full (pre-filter) stores of sequential scans — index
    scans never feed, a range fetch sees only part of the column. *)
val run :
  ?ctx:Context.t -> ?obs:Instrument.t -> ?sketch:sketch_hook ->
  ?chunk_rows:int ->
  Storage.Catalog.t -> Plan.t -> Executor.result

(** [run_pooled ?pool ~dop ~morsel] is {!run} with the kernels of each
    node spread over [min dop (Domain_pool.dop pool)] workers of [pool]
    (the caller is worker 0), in [morsel]-row ranges.  [schedule] caps
    each node's workers (the two-phase segment schedule); a node at 1,
    a width of 1, or no [pool] runs inline in [chunk_rows] ranges.  With
    [obs], per-worker busy time and row counts of every parallel phase
    fold into the operator's {!Instrument.par} stats. *)
val run_pooled :
  ?ctx:Context.t -> ?obs:Instrument.t -> ?sketch:sketch_hook ->
  ?chunk_rows:int -> ?schedule:(Plan.t -> int) ->
  ?pool:Domain_pool.t -> dop:int -> morsel:int ->
  Storage.Catalog.t -> Plan.t -> Executor.result

(** Test-only fault injection: treat NULL single-column integer join keys
    as [Int 0] (simulating loss of the NULL-key guard on the
    {!Keys.Int_map} fast path).  Exists so the differential fuzzer's
    self-test can prove an injected engine bug is caught, shrunk to a
    minimal repro, and replayed; never set outside tests. *)
val fault_null_key_as_zero : bool ref
