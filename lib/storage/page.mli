(** Page model: every size and cost in the system is expressed in pages so
    that I/O-centric results keep their shape. *)

(** Page size in bytes (8 KiB). *)
val page_size : int

(** Modelled on-page width of one value of the given type. *)
val value_width : Relalg.Value.ty -> int

(** Fixed per-tuple header bytes. *)
val tuple_header : int

(** Modelled width of a tuple of the given schema. *)
val tuple_width : Relalg.Schema.t -> int

(** Tuples fitting on one page (at least 1). *)
val tuples_per_page : Relalg.Schema.t -> int

(** Pages needed for [rows] tuples (at least 1). *)
val pages_for : rows:int -> Relalg.Schema.t -> int

(** [pages_for] given the schema's {!tuple_width} instead of the schema. *)
val pages_for_width : rows:int -> int -> int
