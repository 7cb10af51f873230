(** Process-wide metrics registry: monotonic counters, max-gauges and
    log-bucketed (power-of-two) histograms, keyed by name.  Long-lived
    drivers (CLI, fuzzer, benches) use it to report process totals
    without threading state through every layer.

    Names may carry Prometheus-style labels inline
    (["stage_seconds{stage=\"optimize\"}"]); the registry treats the
    whole string as the key and only {!Prometheus} splits it. *)

(** Increment a counter (created at zero on first use).
    @raise Invalid_argument if [name] exists with another type. *)
val incr : ?by:int -> string -> unit

(** Raise a max-gauge to [v] if [v] exceeds its current value.
    @raise Invalid_argument if [name] exists with another type. *)
val observe_max : string -> float -> unit

(** Record one observation into a histogram (created empty on first
    use).  Buckets are powers of two — the smallest [2^e >= v] — so
    percentile reads are within 2x over an unbounded range.
    Non-positive and non-finite values clamp to the extreme buckets.
    @raise Invalid_argument if [name] exists with another type. *)
val observe_hist : string -> float -> unit

(** Immutable histogram view: total count, sum, and (upper bound,
    cumulative count) pairs sorted by bound — the last cumulative count
    equals [count]. *)
type hist_snapshot = {
  count : int;
  sum : float;
  buckets : (float * int) list;
}

(** Typed cell value, as {!dump_cells} reports it. *)
type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of hist_snapshot

(** Percentile estimate ([p] in [0,1]) from bucket upper bounds; within
    2x of the true order statistic, monotone in [p].  [None] on an empty
    histogram. *)
val percentile : hist_snapshot -> float -> float option

(** Current value, if the metric exists (counters as floats; histograms
    report their observation count).  Prefer {!dump_cells} for typed
    reads. *)
val get : string -> float option

(** Every cell with its typed value, sorted by name.  Read-only: never
    creates or retypes a cell, so renderers built on it cannot raise. *)
val dump_cells : unit -> (string * value) list

(** Histogram snapshot by exact name, if it exists as a histogram. *)
val find_hist : string -> hist_snapshot option

(** Drop every metric (tests). *)
val reset : unit -> unit

(** Sorted [(name, rendered value)] pairs; histograms render as
    [count/sum/p50/p95/p99]. *)
val dump : unit -> (string * string) list

(** One ["name value"] line per metric, sorted by name. *)
val render : unit -> string

(** {2 Canonical metric names} *)

val queries_run : string
val blocks_planned : string
val fuzz_oracle_pass : string
val fuzz_oracle_fail : string
val qerror_max : string

val feedback_overrides : string
val feedback_recorded : string
val feedback_stale : string
val sketches_built : string

(** {2 Canonical histogram names} *)

val query_seconds : string
(** end-to-end query latency, seconds *)

val qerror_hist : string
(** per-query worst q-error distribution *)

val digest_seconds : string
(** time to compute the plan-cache-ready query/plan digests *)

val fuzz_case_seconds : string
(** differential-fuzz case latency *)

(** [stage_seconds "optimize"] = ["stage_seconds{stage=\"optimize\"}"] —
    per-stage latency histogram name for the span stages. *)
val stage_seconds : string -> string
