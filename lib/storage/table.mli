(** Heap tables: append-only in-memory tuple stores with a page model.
    Row ids are dense 0-based positions; row [i] lives on page
    [i / tuples_per_page]. *)

type t = {
  name : string;
  schema : Relalg.Schema.t;  (** columns qualified by the table name *)
  rows : Relalg.Tuple.t Vec.t;
  mutable rows_view : Relalg.Tuple.t array option;
      (** memoized {!rows_array} view; stale iff its length differs from
          the live row count (tables are append-only) *)
  cols_view : Col.t option array;
      (** memoized {!column}s, one slot per column; a slot is stale iff
          its length differs from the live row count *)
  per_page : int;  (** {!tuples_per_page}, fixed by the schema *)
}

(** [non_null] names columns declared NOT NULL; they are recorded as
    [nullable = false] in the schema.  Inserts are not checked — the
    declaration is a promise the loader keeps. *)
val create :
  ?non_null:string list ->
  name:string ->
  columns:(string * Relalg.Value.ty) list ->
  unit ->
  t

(** @raise Invalid_argument on arity mismatch. *)
val insert : t -> Relalg.Tuple.t -> unit

val row_count : t -> int

(** Tuple at row id [rid]. *)
val get : t -> int -> Relalg.Tuple.t

(** Shared immutable array view of all rows, memoized per table size —
    the bulk accessor the vectorized engines scan from.  Read-only:
    callers must never write through it. *)
val rows_array : t -> Relalg.Tuple.t array

(** Typed column [j] of all rows ({!Col.classify} over {!rows_array}),
    memoized per table size like the row view — the columnar engine's
    scans share it across queries.  Read-only. *)
val column : t -> int -> Col.t

val tuples_per_page : t -> int
val page_count : t -> int

(** Page number holding a row id. *)
val page_of_row : t -> int -> int

val iter : (Relalg.Tuple.t -> unit) -> t -> unit
val iteri : (int -> Relalg.Tuple.t -> unit) -> t -> unit
val to_list : t -> Relalg.Tuple.t list

(** Position of a column within this table's schema. *)
val column_index : t -> string -> int

val pp : Format.formatter -> t -> unit
