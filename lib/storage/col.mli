(** Typed column storage, shared by heap tables (their memoized column
    cache, {!Table.column}) and the columnar engine's chunks.  Columns
    are immutable once built. *)

open Relalg

type t =
  | Ints of int array * Bytes.t  (** data, null bitmap *)
  | Floats of float array * Bytes.t
  | Boxed of Value.t array

(** Box an int as a [Value.Int], sharing one interned block per small
    non-negative int (values are immutable and compared structurally, so
    the sharing is unobservable). *)
val box_int : int -> Value.t

val length : t -> int
val is_null : t -> int -> bool

(** Boxed value of cell [i]. *)
val value : t -> int -> Value.t

(** [classify n cell] extracts cells [0, n) in one pass: all-Int-or-Null
    (including all-NULL) as [Ints], all-Float-or-Null with at least one
    Float as [Floats], anything else — mixed Int/Float included, to keep
    value identity — as [Boxed]. *)
val classify : int -> (int -> Value.t) -> t

(** [gather c idx] is the column whose cell [i] is cell [idx.(i)] of [c];
    an index of -1 reads NULL.  The layout is kept. *)
val gather : t -> int array -> t

(** [compare_cells a b i j] is [Value.compare (value a i) (value b j)],
    computed without boxing for typed layouts. *)
val compare_cells : t -> t -> int -> int -> int

(** [hash_cell c i]: cells of one column that {!compare_cells} finds
    equal hash equal (Ints hash to their value: mix before use). *)
val hash_cell : t -> int -> int
