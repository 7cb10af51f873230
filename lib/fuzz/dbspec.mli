(** Database specifications: a value-level description of a random
    database (tables, typed columns, rows, indexes) that can be built into
    a fresh catalog + statistics registry, shrunk row by row, and written
    to / read from repro files.  Keeping the data as a spec rather than a
    live catalog is what makes failing cases minimizable and replayable. *)

open Relalg

type index = {
  icols : string list;
  iclustered : bool;
  (** only sound on columns whose values follow insertion order (the
      generator restricts clustered indexes to [id]) *)
}

type table = {
  tname : string;
  cols : (string * Value.ty) list;
  rows : Value.t array array;
  indexes : index list;
}

type t = { tables : table list }

(** Build a fresh catalog and ANALYZEd statistics registry. *)
val build : t -> Storage.Catalog.t * Stats.Table_stats.db

(** Structural equality (specs are pure data). *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
