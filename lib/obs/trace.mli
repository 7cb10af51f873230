(** Structured optimizer trace: typed events from the rewrite engine
    (rule fired/rejected, interpreted fallback), the join enumerator
    (per-level counters), the memoization layers (memo hits) and the
    cardinality feedback cache, rendered as human-readable text or
    line-delimited JSON. *)

type event =
  | Rewrite_fired of { rule : string; before : string; after : string }
      (** [before]/[after] are {!digest}s of the block's printed form *)
  | Rewrite_rejected of { rule : string }
  | Enum_level of {
      level : int;  (** relations joined (union-mask popcount) *)
      subsets : int;
      splits : int;
      costed : int;
      pruned : int;  (** priced candidates the Pareto set dominated *)
    }
  | Memo_stats of { table : string; hits : int; misses : int }
  | Feedback_override of { digest : string; est : float; act : float }
      (** feedback-cache hit: derived estimate replaced by observed actual *)
  | Feedback_recorded of { digest : string; act : float }
      (** actual cardinality of an executed (sub)plan entered the cache *)
  | Feedback_stale of { digest : string }
      (** cached actual dropped because its tables' row counts changed *)
  | Interpreted_fallback of { reason : string }
      (** the block left rewriting unplannable and runs in the tuple
          interpreter; [reason] names what blocked planning *)

(** Stable FNV-1a fingerprint of a printed block (8 hex digits). *)
val digest : string -> string

(** RFC 8259 string-body escaping, shared by the hand-built JSON
    emitters in this library ({!Span}, {!Profile}, {!Qlog}). *)
val json_escape : string -> string

(** [json_escape] wrapped in quotes. *)
val jstr : string -> string

(** Finite floats as compact decimals; non-finite as [null]. *)
val jfloat : float -> string

(** A JSON object from (key, rendered JSON value) pairs, in order. *)
val jobj : (string * string) list -> string

val pp : Format.formatter -> event -> unit
val to_string : event -> string

(** One JSON object, no trailing newline; non-finite floats become
    [null]. *)
val to_json : event -> string
