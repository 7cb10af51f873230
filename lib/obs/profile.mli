(** Chrome trace-event export (Perfetto / chrome://tracing loadable) of
    a closed span tree: the spans on thread 0 as complete events
    ("ph":"X"), each span's optimizer events as instant events
    ("ph":"i") at the span's start, and each morsel worker's task
    timeline on thread [w + 1], as one JSON object with microsecond
    timestamps relative to the root span's start on the shared monotonic
    clock.

    Worker tasks come from the {!Exec.Instrument.timeline} of each
    [execute] span's recorder, labelled ["block i"] in pre-order.
    Sequential executions have empty timelines — the profile then holds
    just the span tree. *)

val render : Span.t -> string

val write_file : Span.t -> string -> unit
