(** The catalog: table storage and indexes by name.  Statistics live in the
    [stats] library's parallel registry so the storage layer stays
    independent of estimation. *)

type entry = { table : Table.t; mutable indexes : Btree.t list }

type t

val create : unit -> t

(** @raise Invalid_argument on duplicate names. *)
val add_table : t -> Table.t -> unit

(** [non_null] is passed through to {!Table.create}. *)
val create_table :
  ?non_null:string list ->
  t ->
  name:string ->
  columns:(string * Relalg.Value.ty) list ->
  Table.t

(** @raise Invalid_argument when absent. *)
val find : t -> string -> entry

val find_opt : t -> string -> entry option

(** @raise Invalid_argument when absent. *)
val table : t -> string -> Table.t

val mem : t -> string -> bool

(** Create an index; composite keys via [columns], single keys via
    [column] (one of the two must be given). *)
val create_index :
  t -> ?clustered:bool -> ?fanout:int -> ?columns:string list ->
  table:string -> ?column:string -> unit -> Btree.t

(** Drop a table (used for temporaries materialized during execution). *)
val remove_table : t -> string -> unit

(** A new name [__matN_alias] for a temporary that materializes the view
    [alias]; [N] counts up per process. *)
val fresh_temp_name : string -> string

(** Whether a table name was made by {!fresh_temp_name}.  Temporary names
    are unstable across runs, so caches keyed by table name skip them. *)
val is_temp_table : string -> bool

val indexes : t -> string -> Btree.t list

(** Index whose leading column is [column], if any. *)
val index_on : t -> table:string -> column:string -> Btree.t option

(** Index by exact name. *)
val index_named : t -> table:string -> name:string -> Btree.t option

(** All table names, sorted. *)
val table_names : t -> string list

(** A logical scan node with columns re-qualified under [alias]
    (default: the table name). *)
val scan : t -> ?alias:string -> string -> Relalg.Algebra.t
