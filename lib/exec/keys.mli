(** Join/aggregation key hashing shared by {!Executor} and {!Batch}.

    All tables assume fixed-arity keys (the arity of a join/grouping key
    never changes within one hash table), so equality compares positions
    pairwise without re-measuring lengths. *)

open Relalg

val hash_list : Value.t list -> int

(** Pairwise {!Value.equal}; assumes equal lengths (fixed arity). *)
val equal_list : Value.t list -> Value.t list -> bool

(** Hash table over list keys — the interpreter's key table. *)
module List_tbl : Hashtbl.S with type key = Value.t list

val hash_array : Value.t array -> int

(** Columnar probing for generic (fixed-arity [Value.t array]) keys:
    open-addressing, insert-only.  {!Cols_tbl.find} hashes and compares
    key positions straight out of per-column accessor closures, so a
    probe never materializes a key array; the key is built exactly once,
    on {!Cols_tbl.add}.  Key semantics are {!Value.equal}/{!Value.hash}
    (Int 2 matches Float 2.0, NULLs are ordinary key values; join
    operators exclude NULL keys themselves).
    Misses return the [dummy]; callers that must distinguish absence use
    a physically unique dummy and compare with [==]. *)
module Cols_tbl : sig
  type 'a t

  val create : dummy:'a -> int -> 'a t

  (** Hash of the key read column-wise at row [i] — consistent with
      {!hash_array} of the materialized key. *)
  val hash_cols : (int -> Value.t) array -> int -> int

  (** The value bound to the key read column-wise at row [i], or the
      [dummy] when absent. *)
  val find : 'a t -> (int -> Value.t) array -> int -> 'a

  (** The key must be absent (call {!find} first) and must hold the
      values the accessors produced at the probed row. *)
  val add : 'a t -> Value.t array -> 'a -> unit
end

(** First occurrences under a caller-supplied row hash and equality: an
    open-addressing, insert-only set of representative row indices, so
    DISTINCT never materializes a key. *)
module Row_set : sig
  type t

  val create : int -> t

  (** [add t h eq q] inserts row [q] (hash [h]) unless a stored row [r]
      with hash [h] satisfies [eq r q]; true when [q] was inserted. *)
  val add : t -> int -> (int -> int -> bool) -> int -> bool
end

(** Fast path for single-column integer keys: open-addressing, no
    allocation per entry, insert-only.  Only sound when every key value on
    both sides is Int or Null ({!Value.equal} would also match Float 2.0 =
    Int 2); callers verify eligibility first.  Lookup misses return the
    [dummy] given at creation; callers that must distinguish absence use a
    physically unique dummy and compare with [==]. *)
module Int_map : sig
  type 'a t

  val create : dummy:'a -> int -> 'a t
  val find : 'a t -> int -> 'a

  (** The key must be absent (call {!find} first). *)
  val add : 'a t -> int -> 'a -> unit
end
