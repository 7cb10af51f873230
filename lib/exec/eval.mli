(** Compiled-evaluation helpers of the columnar engine ({!Batch}):
    offset resolution, the index-based WHERE predicate over a store,
    hash-join buckets, join emission over row indices, and columnar
    chunks.  {!int_expr} is the engine's one unboxed integer-expression
    compiler.

    Everything here is pure — no {!Context} charging, no shared mutable
    state — so returned closures are safe to evaluate from worker
    domains. *)

open Relalg

(** Resolve column refs to tuple offsets, once per operator. *)
val offsets : Schema.t -> Expr.col_ref list -> int array

(** Hash-join bucket: chain length + the most recent build-side row
    index; the operator's [next] array links each index to the previous
    one in the chain, -1 ending it. *)
type bucket = { mutable blen : int; mutable head : int }

(** Offset of a plain column reference in the schema; [None] for
    computed expressions or unresolvable refs. *)
val col_offset : Schema.t -> Expr.t -> int option

(** Columnar chunks: one batch of physical rows in per-column typed
    storage ({!Storage.Col}), plus an optional selection vector mapping
    logical to physical rows.  Each column is built on first read by
    the store's [build] function — shared from a table's memoized
    columns, gathered from a join's inputs through index vectors,
    remapped from a projection's input, or classified from rows — and
    cached; the row view is a lazy cache too.  Forcing mutates the store
    (and a table's column cache), so engines force what workers need on
    the coordinating domain first. *)
module Chunk : sig
  type col = Storage.Col.t =
    | Ints of int array * Bytes.t (* data, null bitmap *)
    | Floats of float array * Bytes.t
    | Boxed of Value.t array

  type store = {
    arity : int;
    len : int; (* physical row count *)
    mutable rows : Tuple.t array option; (* lazy row view *)
    cols : col option array; (* lazy column cache, length [arity] *)
    build : int -> col; (* builds column [j] on first read *)
    reader : int -> int -> Value.t;
        (* [reader j] reads column [j] at physical rows without building
           it: a gather or remap reads through to its inputs *)
  }

  (** [sel = Some s]: logical row [i] is physical row [s.(i)];
      [sel = None]: dense, logical = physical. *)
  type t = { store : store; sel : int array option }

  val store_of_rows : arity:int -> Tuple.t array -> store
  val of_rows : arity:int -> Tuple.t array -> t
  val dense : store -> t

  (** A store over eagerly built columns of length [len]. *)
  val store_of_cols : len:int -> col array -> store

  (** A table's store: its row view is {!Storage.Table.rows_array} and its
      columns are the table's memoized {!Storage.Table.column}s. *)
  val of_table : Storage.Table.t -> store

  (** [gather ~left ~lidx ~right ~ridx] — a join's output: row [i] is
      left row [lidx.(i)] followed by right row [ridx.(i)], an index of -1
      reading NULLs.  Columns are gathered on first read. *)
  val gather :
    left:store -> lidx:int array -> right:store -> ridx:int array -> store

  (** [remap st offs] has column [j] = column [offs.(j)] of [st], shared;
      same physical rows. *)
  val remap : store -> int array -> store

  (** Logical row count. *)
  val length : t -> int

  (** Physical index of a logical row. *)
  val phys : t -> int -> int

  (** Physical indices of all logical rows, in order. *)
  val phys_array : t -> int array

  (** Force column [j].  A classified column is [Ints] when all-Int-or-
      Null (all-NULL included), [Floats] when all-Float-or-Null, and
      [Boxed] otherwise — mixed Int/Float stays boxed to preserve value
      identity.  A gathered column keeps its input's layout. *)
  val col : store -> int -> col

  (** Unboxed int view of column [j], or [None] when the column is not
      [Ints]. *)
  val int_col : store -> int -> (int array * Bytes.t) option

  (** Feed every non-null int of column [j] to the callback, in physical
      order (the scan operators' one-pass sketch-build hook); [false]
      when the column is not int-typed. *)
  val feed_ints : store -> int -> (int -> unit) -> bool

  (** Physical-row accessor for column [j] that builds no column: it
      reads an existing row view (sharing its boxes), else a built
      column, else through a gather's or remap's inputs. *)
  val getter : store -> int -> int -> Value.t

  (** Force the physical row view. *)
  val rows_view : store -> Tuple.t array

  (** Logical rows in selection order; dense chunks share the store's
      row view without copying. *)
  val to_rows : t -> Tuple.t array
end

(** [expr_getter s st e] is [e]'s value at a physical row of [st]: a
    plain column reads the store's column without forcing its row view,
    anything else evaluates over the row view.  Forces what it reads. *)
val expr_getter : Schema.t -> Chunk.store -> Expr.t -> int -> Value.t

(** Compiled unboxed integer expression over a store's physical rows:
    [iv i] is valid only when [inull i] is false (the NULL-divisor guard
    lives in [inull]).  Matches [Expr.arith] on Int arguments exactly. *)
type int_vec = { iv : int -> int; inull : int -> bool }

(** [int_expr s st e] compiles [e] when every leaf is an Int constant,
    NULL, or an all-Int-or-Null column; forces the referenced columns at
    compile time, so the closures are pure. *)
val int_expr : Schema.t -> Chunk.store -> Expr.t -> int_vec option

(** {!Expr.holds} as an index-based predicate over a store's physical rows;
    comparison conjuncts whose operands both compile through
    {!int_expr} evaluate unboxed, the rest fall back to the forced row
    view.  All forcing happens at compile time. *)
val pred_store : Schema.t -> Expr.t -> Chunk.store -> int -> bool

(** [emit_range out kind lq lo hi ~rq ~matches] emits the join of left
    physical row [lq] with right physical rows [rq k], [k] in [lo, hi),
    that pass [matches k], honoring the join kind: Inner / Left_outer
    append interleaved (left, right) index pairs to [out] (-1 as the
    right index null-extends), Semi / Anti append [lq] alone. *)
val emit_range :
  int Storage.Vec.t -> Algebra.join_kind -> int -> int -> int ->
  rq:(int -> int) -> matches:(int -> bool) -> unit

(** A join's output chunk from the indices {!emit_range} emitted: a
    gather store over [left] and [right] for Inner / Left_outer, a
    selection of [left] for Semi / Anti. *)
val join_output :
  Algebra.join_kind -> left:Chunk.store -> right:Chunk.store -> int array ->
  Chunk.t
