(** Plan execution.

    Execution materializes each operator's output while charging the
    context for page reads (through the buffer-pool simulator, so rescans
    of resident pages are free) and per-tuple CPU work.  [Nested_loop]
    re-executes its inner child per outer tuple — classical tuple-iteration
    semantics; [Materialize] caches its child within one {!run}. *)

open Relalg

type result = { schema : Schema.t; rows : Tuple.t array }

(** Temp pages written + read by an external sort of [pages] pages. *)
val sort_spill_pages : work_mem:int -> pages:int -> int

(** Execute a plan against a catalog.  A fresh context is used unless one
    is supplied (sharing a context shares its buffer pool across runs).
    When [obs] is given, every node execution is recorded against the
    {!Instrument} recorder (which must have been created on this plan);
    without it instrumentation costs one [match] per operator execution.
    @raise Invalid_argument when a referenced table or index is missing. *)
val run :
  ?ctx:Context.t -> ?obs:Instrument.t -> Storage.Catalog.t -> Plan.t -> result

(** Multiset equality of results — the equivalence notion of the
    rewrite-correctness tests. *)
val same_multiset : result -> result -> bool

(** Multiset equality modulo column order: columns are aligned by
    (relation, name) key first (different join orders permute schemas). *)
val same_multiset_modulo_columns : result -> result -> bool
