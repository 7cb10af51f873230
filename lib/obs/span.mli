(** Hierarchical span recorder: a per-query tree of named, monotonic
    wall-clock intervals with string attributes, optimizer events and
    per-operator actuals — the query's one telemetry record.

    The pipeline opens one recorder per query and wraps each stage
    (parse, bind, rewrite, optimize, verify, execute) in a span;
    enumerator and view sub-spans nest naturally.  Optimizer trace events
    land on the span open when they were emitted, and each [execute] span
    carries its plan's {!Exec.Instrument} recorder.  [stop] closes any
    younger spans still open, so an exception unwinding past a stage
    cannot corrupt the tree; {!with_span} is the exception-safe form. *)

type t = {
  id : int;  (** creation order, root = 0 *)
  parent_id : int;  (** -1 for the root *)
  name : string;
  attrs : (string * string) list;
  start_s : float;  (** absolute {!Clock.now} seconds *)
  mutable dur_s : float;  (** seconds; -1 while the span is open *)
  mutable children : t list;  (** in start order once closed *)
  mutable events : Trace.event list;  (** in emission order once closed *)
  mutable ops : Exec.Instrument.t option;
      (** per-operator actuals and worker timeline; set on [execute]
          spans of planned blocks *)
}

type recorder

(** New recorder with an open root span (default name ["query"]). *)
val create : ?name:string -> unit -> recorder

(** Open a child of the innermost open span. *)
val enter : recorder -> ?attrs:(string * string) list -> string -> t

(** Close [s] (and any unstopped spans opened under it). *)
val stop : recorder -> t -> unit

(** [with_span r name f] = enter; [f ()]; stop — exception-safe. *)
val with_span :
  recorder -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Record an optimizer event on the innermost open span. *)
val event : recorder -> Trace.event -> unit

(** [with_span] when a recorder is given; otherwise just [f ()]. *)
val within :
  recorder option -> ?attrs:(string * string) list -> string ->
  (unit -> 'a) -> 'a

(** Close every open span including the root; returns the root. *)
val finish : recorder -> t

(** Pre-order walk with depth. *)
val iter : (depth:int -> t -> unit) -> t -> unit

(** Every span's events, spans in pre-order, each span's events in
    emission order. *)
val events : t -> Trace.event list

(** The operator recorders of the tree's [execute] spans, in pre-order. *)
val recorders : t -> Exec.Instrument.t list

(** Every span named [name], in pre-order. *)
val named : t -> string -> t list

(** Sum of the direct children's durations. *)
val children_dur : t -> float

(** Sum of durations over every span named [name] in the tree. *)
val dur_by_name : t -> string -> float

(** Indented text tree, each span followed by its events and operators
    (estimated and actual rows); [show_wall:false] drops durations
    (deterministic goldens). *)
val render : ?show_wall:bool -> t -> string

(** Line-delimited JSON, one object per span in pre-order (events and
    operators as arrays), timestamps in microseconds relative to the
    root's start; [show_wall:false] drops [start_us]/[dur_us]. *)
val to_json_lines : ?show_wall:bool -> t -> string
