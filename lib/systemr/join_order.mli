(** Bottom-up dynamic-programming join enumeration (Section 3): left-deep
    or bushy trees, Cartesian-product deferral, interesting orders
    (per-subset Pareto candidate sets), pluggable join methods.

    The enumeration is graph-aware: a bitset query graph (per-predicate
    relation masks, per-relation neighbor masks) is precomputed once per
    query, and bushy mode pairs connected subgraphs with connected
    complements (csg–cmp generation) instead of walking all splits.  The
    only pruning is dominance: a priced candidate the subset's Pareto set
    dominates is dropped before its plan is built.  [exhaustive] walks all
    masks and all splits — the equivalence oracle and benchmark baseline;
    the same walk is the cartesian rescue path.

    The lower-level pieces ([ctx], [entry], [join_cands], ...) are exposed
    for the naive enumerator and the Cascades optimizer, which share this
    module's statistics and costing machinery. *)

open Relalg

type meth = Nl | Inl | Smj | Hj

type config = {
  params : Cost.Cost_model.params;
  asm : Stats.Derive.assumption;
  allow_cross : bool;  (** permit Cartesian products freely *)
  interesting_orders : bool;  (** keep per-order bests, not one cheapest *)
  bushy : bool;  (** all splits instead of left-deep extensions *)
  methods : meth list;
  exhaustive : bool;
  (** how bushy pairs are generated (off by default): on = every split
      of every subset, the oracle search; off = csg–cmp pairing.  Both use
      the same bitset connectivity test and cost the same pairs on a
      connected graph of binary joins; left-deep search ignores the
      flag *)
}

val default_config : config

(** The 1979 repertoire: nested loop, index nested loop, sort-merge;
    linear trees; Cartesian products deferred. *)
val system_r_1979 : config

(** The same search without csg–cmp pairing — every split of every mask,
    on the same connectivity test — kept as the equivalence oracle and
    benchmark baseline. *)
val exhaustive : config -> config

(** Enumeration-effort counters, reported per optimization and summed per
    query by the pipeline. *)
type counters = {
  subsets : int;  (** DP table entries created *)
  splits : int;  (** (left, right) combinations considered *)
  costed : int;  (** physical join candidates built and costed *)
  pruned : int;
      (** priced candidates the Pareto set dominated; their plans are
          never built *)
}

val counters_zero : counters
val counters_add : counters -> counters -> counters

(** Tables keyed by relation bitmask. *)
module Int_tbl : Hashtbl.S with type key = int

(** A join conjunct classified once per query: the mask of relations it
    mentions and, for an equi-join between two of the block's relations,
    its join keys in both orientations. *)
type conj

(** Per-relation facts the join costing reads, looked up once per query:
    stored rows and pages, and the indexes an index nested loop can probe
    (none when [Inl] is not among the configured methods). *)
type rel_info

(** Per-subset entry: logical statistics, their pages (read by every
    split the subset takes part in) and the Pareto candidate set. *)
type entry = {
  stats : Stats.Derive.rel_stats;
  pages : float;
  frontier : Candidate.frontier;
}

(** An entry with [pages] derived from [stats], holding a cost-sorted
    Pareto set. *)
val new_entry : Stats.Derive.rel_stats -> Candidate.t list -> entry

(** Shared optimization state: base access paths, the bitset query graph,
    classified join conjuncts, subset statistics and histogram-join
    memos, effort counters. *)
type ctx = {
  cfg : config;
  feedback : Stats.Feedback.t option;
      (** observed-cardinality cache consulted by [stats_of]; [None] = off *)
  cat : Storage.Catalog.t;
  db : Stats.Table_stats.db;
  rels : Spj.relation array;
  locals : Expr.t list array;
  conjs : conj array;  (** every join conjunct, in predicate order *)
  neighbors : int array;
      (** per-relation adjacency mask over two-relation conjuncts *)
  hyper : int array;
      (** masks of conjuncts spanning three or more relations *)
  info : rel_info array;
  base : entry array;  (** access paths and filtered statistics *)
  stats_memo : Stats.Derive.rel_stats Int_tbl.t;
  join_memo : Stats.Histogram.join_memo;
      (** histogram-join rows per join edge, consulted by [stats_of] and
          so shared by every enumerator built on this context *)
  trace : (Obs.Trace.event -> unit) option;
      (** optimizer-trace sink; [None] = tracing off (no event is built) *)
  mutable plans_costed : int;
  mutable splits_considered : int;
  mutable plans_pruned : int;
  mutable subsets_created : int;
  mutable memo_hits : int;
      (** subset-statistics lookups served from the memo *)
}

type result = {
  best : Candidate.t;
  card : float;
  counters : counters;
}

val popcount : int -> int
val lowest_bit_index : int -> int

(** [trace] receives typed optimizer events (per-level enumeration
    counters, memo statistics, feedback overrides) as the search runs; omitted = tracing off.
    [feedback] is an observed-cardinality cache: a fresh entry for a
    subset's logical subexpression overrides the derived cardinality in
    [stats_of]; omitted = off.
    @raise Invalid_argument beyond 60 relations (bitset width). *)
val make_ctx :
  ?trace:(Obs.Trace.event -> unit) -> ?feedback:Stats.Feedback.t ->
  config -> Storage.Catalog.t -> Stats.Table_stats.db -> Spj.t -> ctx

(** Join conjuncts crossing the (left, right) partition and contained in
    its union — two [land]s per conjunct. *)
val crossing_preds : ctx -> left:int -> right:int -> Expr.t list

(** Does any conjunct cross (m1, m2) while staying contained in the
    union? *)
val connected_masks : ctx -> int -> int -> bool

(** Is [mask] connected under the conjuncts contained in it?  Necessary
    for the subset to acquire any join candidate without cross products. *)
val mask_connected : ctx -> int -> bool

(** Can the full relation set be grown one relation at a time without a
    cross product?  False triggers the cartesian rescue. *)
val graph_connected : ctx -> bool

(** Canonical subset statistics (independent of how the subset's plans are
    built — a logical property).  When the context's [feedback] holds
    a fresh actual for the subset's logical subexpression, the observed
    cardinality overrides the derived one. *)
val stats_of : ctx -> int -> Stats.Derive.rel_stats

(** Feedback-cache key of a subset: its (alias, table) pairs plus every
    conjunct applied anywhere within it.  [None] when the subset involves
    a materialized-view temp table (unstable generated names). *)
val feedback_key : ctx -> int -> Stats.Feedback.key option

(** Cost every join candidate combining [left] with [right] ([right_base]
    set when the right side is one base relation, enabling index nested
    loops) and insert each into the given entry's Pareto set.  Shared
    per-split work is done once; a candidate's plan is built only if the
    frontier keeps it; a dominated one is counted as pruned. *)
val join_cands :
  ctx -> left:entry -> left_mask:int -> right:entry ->
  right_mask:int -> right_base:int option -> entry -> unit

(** Run the enumeration, returning the context and the full-set entry. *)
val optimize_entry :
  ?trace:(Obs.Trace.event -> unit) -> ?feedback:Stats.Feedback.t ->
  ?config:config ->
  Storage.Catalog.t -> Stats.Table_stats.db -> Spj.t -> ctx * entry

(** Apply the required output order and projection to the best candidate. *)
val finish : ctx -> Spj.t -> entry -> result

(** End-to-end optimization.  @raise Invalid_argument on empty queries. *)
val optimize :
  ?trace:(Obs.Trace.event -> unit) -> ?feedback:Stats.Feedback.t ->
  ?config:config ->
  Storage.Catalog.t -> Stats.Table_stats.db -> Spj.t -> result
