(** EXPLAIN ANALYZE rendering of a query's span tree: annotated plan tree with
    estimated-vs-actual cardinalities, q-error, rescans and exclusive
    counter deltas per operator, plus a per-plan max-q-error summary. *)

(** [q_error ~est ~act] = [max (est/act) (act/est)]; both zero -> [1.],
    exactly one zero -> [infinity]. *)
val q_error : est:float -> act:float -> float

(** q-error of one operator; [None] if it never executed or has no
    estimate. *)
val op_q_error : Exec.Instrument.op -> float option

(** Worst q-error among executed operators with estimates. *)
val max_q_error : Exec.Instrument.t -> (float * Exec.Instrument.op) option

(** Every [block] span in the tree, read from its [execute] span's
    recorder: an indented per-operator tree, one line per operator,
    ending with the max-q-error summary line, or one line saying the
    block was interpreted.  UNION arms are headed [-- union arm i].
    [show_wall:false] omits wall-clock times (deterministic output for
    golden tests). *)
val render : ?show_wall:bool -> Span.t -> string
