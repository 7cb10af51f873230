(** Compiled-evaluation helpers of the columnar engine ({!Batch}):
    offset resolution, specialized WHERE-semantics predicate compilers,
    hash-join buckets, join-row emission, and columnar chunks with their
    unboxed integer fast path.

    Everything here is pure — no {!Context} charging, no shared mutable
    state — so returned closures are safe to evaluate from worker
    domains. *)

open Relalg

(** Resolve column refs to tuple offsets, once per operator. *)
val offsets : Schema.t -> Expr.col_ref list -> int array

(** Hash-join bucket: chain length + most-recent-first items. *)
type bucket = { mutable blen : int; mutable items : Tuple.t list }

(** [pred1 s e] compiles [e] to "held under WHERE semantics" over one
    tuple; unboxed for the AND/OR/Cmp/Const fragment, [Expr.holds]
    otherwise. *)
val pred1 : Schema.t -> Expr.t -> Tuple.t -> bool

(** [pred2 l r e] — as {!pred1} over an (outer, inner) tuple pair. *)
val pred2 : Schema.t -> Schema.t -> Expr.t -> Tuple.t -> Tuple.t -> bool

(** Offset of a plain column reference in the schema; [None] for
    computed expressions or unresolvable refs. *)
val col_offset : Schema.t -> Expr.t -> int option

(** Box an int as a [Value.Int], sharing one interned block per small
    non-negative int (values are immutable and compared structurally, so
    the sharing is unobservable). *)
val box_int : int -> Value.t

(** Columnar chunks: one batch of physical rows in per-column typed
    storage (unboxed int/float arrays with null bitmaps, or a boxed
    fallback column for strings/bools/mixed numerics), plus an optional
    selection vector mapping logical to physical rows.  Row and column
    views are lazy caches forced at most once; forcing mutates the
    store, so engines force what workers need on the coordinating domain
    first. *)
module Chunk : sig
  type col =
    | Ints of int array * Bytes.t (* data, null bitmap *)
    | Floats of float array * Bytes.t
    | Boxed of Value.t array

  type store = {
    arity : int;
    len : int; (* physical row count *)
    mutable rows : Tuple.t array option; (* lazy row view *)
    cols : col option array; (* lazy column cache, length [arity] *)
  }

  (** [sel = Some s]: logical row [i] is physical row [s.(i)];
      [sel = None]: dense, logical = physical. *)
  type t = { store : store; sel : int array option }

  val store_of_rows : arity:int -> Tuple.t array -> store
  val of_rows : arity:int -> Tuple.t array -> t
  val dense : store -> t

  (** Logical row count. *)
  val length : t -> int

  (** Physical index of a logical row. *)
  val phys : t -> int -> int

  (** Boxed value of a forced column at a physical row. *)
  val col_value : col -> int -> Value.t

  (** Force column [j] (classify physical values, extract typed
      storage).  All-NULL columns classify as [Ints] with every null bit
      set; mixed Int/Float columns stay [Boxed] to preserve value
      identity. *)
  val col : store -> int -> col

  (** Unboxed int view of column [j], or [None] when any physical value
      is neither Int nor Null. *)
  val int_col : store -> int -> (int array * Bytes.t) option

  (** Feed every non-null int of column [j] to the callback, in physical
      order (the scan operators' one-pass sketch-build hook); [false]
      when the column is not int-typed. *)
  val feed_ints : store -> int -> (int -> unit) -> bool

  (** Physical-row accessor for column [j], avoiding allocation where
      possible (prefers an existing row view over re-boxing typed
      columns). *)
  val getter : store -> int -> int -> Value.t

  (** Force the physical row view. *)
  val rows_view : store -> Tuple.t array

  (** Logical rows in selection order; dense chunks share the store's
      row view without copying. *)
  val to_rows : t -> Tuple.t array
end

(** Compiled unboxed integer expression over a store's physical rows:
    [iv i] is valid only when [inull i] is false (the NULL-divisor guard
    lives in [inull]).  Matches [Expr.arith] on Int arguments exactly. *)
type int_vec = { iv : int -> int; inull : int -> bool }

(** [int_expr s st e] compiles [e] when every leaf is an Int constant,
    NULL, or an all-Int-or-Null column; forces the referenced columns at
    compile time, so the closures are pure. *)
val int_expr : Schema.t -> Chunk.store -> Expr.t -> int_vec option

(** {!pred1} as an index-based predicate over a store's physical rows;
    comparison conjuncts whose operands both compile through
    {!int_expr} evaluate unboxed, the rest fall back to the forced row
    view.  All forcing happens at compile time. *)
val pred_store : Schema.t -> Expr.t -> Chunk.store -> int -> bool

(** Compiled projection item over physical rows: a plain column shares
    the existing box, integer arithmetic re-boxes through the small-int
    cache with no intermediate allocation, everything else evaluates
    through [Expr.compile].  Result rows are structurally identical to
    [Expr.compile] on every input. *)
val proj_item : Schema.t -> Expr.t -> Tuple.t -> Value.t

(** Output arity of a join: semi/anti keep the outer schema only. *)
val join_arity : Algebra.join_kind -> outer:int -> inner:int -> int

(** Emit join rows for one outer tuple against inner rows [lo, hi) of
    [arr], honoring the join kind's semantics (Inner / Left_outer / Semi
    / Anti). *)
val emit_range :
  Tuple.t Storage.Vec.t -> Algebra.join_kind -> inner_arity:int ->
  Tuple.t -> Tuple.t array -> int -> int -> matches:(Tuple.t -> bool) -> unit

(** As {!emit_range} over a bucket's item list. *)
val emit_list :
  Tuple.t Storage.Vec.t -> Algebra.join_kind -> inner_arity:int ->
  Tuple.t -> Tuple.t list -> matches:(Tuple.t -> bool) -> unit
