(** Morsel-driven parallel execution: a {!Domain_pool} of OCaml 5
    domains around one {!Batch.run_pooled} call.  The operators, the
    hash-partitioned exchanges and the parallel merge live in {!Batch};
    this module only borrows or owns the pool.

    Contract: for every plan and every [dop]/[morsel]/[chunk_rows]
    choice, [run] returns bit-identical rows in the same order, and
    drives the {!Context} (buffer pool page-access sequence, CPU, spill
    counters) identically to {!Batch.run}. *)

(** [run ~dop cat plan] executes [plan] with up to [dop] workers (the
    caller participates).  [pool] reuses an existing domain pool across
    runs (benchmarks), of which at most [dop] workers take part;
    otherwise, at [dop > 1], a pool of [dop] is created and shut down
    per call.  At [dop <= 1], or on OCaml < 5, every node runs inline.
    [morsel] is the split granularity in rows (default 4096; tests
    shrink it to force multi-morsel execution on small inputs).
    [chunk_rows] is the range size of nodes that run inline.
    [schedule] maps each plan node to the degree of parallelism its
    two-phase segment was scheduled at — nodes scheduled at 1 run
    inline.  With [obs], per-worker busy time and row counts of every
    parallel phase are folded into the operator's {!Instrument.par}
    stats. *)
val run :
  ?ctx:Context.t -> ?obs:Instrument.t -> ?sketch:Batch.sketch_hook ->
  ?pool:Domain_pool.t ->
  ?morsel:int -> ?schedule:(Plan.t -> int) -> ?chunk_rows:int ->
  dop:int ->
  Storage.Catalog.t -> Plan.t -> Executor.result

val default_morsel_rows : int
