(** Structured query log: one JSON record per executed query, appended
    as NDJSON.  Records fingerprint the query and its chosen plan
    ({!Trace.digest}), carry per-stage latencies lifted from the span
    tree, and report estimated vs. actual cardinalities plus
    feedback-cache traffic for the estimation loop. *)

type t = {
  ts_us : int;  (** wall-clock Unix epoch, microseconds, at log time *)
  query_digest : string;
  plan_digest : string;
  estimator : string;
  engine : string;
  dop : int;
  rows : int;
  total_us : float;
  stages : (string * float) list;  (** stage name, duration in µs *)
  est_rows : float option;  (** optimizer's root-cardinality estimate *)
  act_rows : float option;  (** observed root cardinality *)
  max_qerror : float option;
  feedback_hits : int;
  feedback_misses : int;
}

(** One JSON object, no trailing newline; [None] numerics become
    [null]. *)
val to_json : t -> string

(** Inverse of {!to_json} (field order irrelevant; unknown fields
    ignored). *)
val of_json : string -> (t, string) result

(** The record for one executed query: the caller supplies the query
    text and the run's settings (and the feedback cache whose cumulative
    hit/miss counts to log); digests, per-stage and total ([block] span)
    latencies, the first block's root est/act rows and the worst finite
    q-error over every block come from the closed span tree. *)
val of_span :
  query:string -> estimator:string -> engine:string -> dop:int -> rows:int ->
  ?feedback:Stats.Feedback.t -> Span.t -> t

(** Append one record as an NDJSON line, creating [path] if needed. *)
val append : path:string -> t -> unit
