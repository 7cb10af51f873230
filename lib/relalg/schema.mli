(** Schemas: ordered lists of relation-qualified, typed columns. *)

(** One column: relation alias (possibly [""] for derived outputs), name,
    type, and nullability.  [nullable = false] asserts the column can never
    hold NULL — catalog declarations and schema inference both maintain it,
    so the binder and the static plan analyzer share one source of truth.
    The conservative default is [true]. *)
type column = { rel : string; name : string; ty : Value.ty; nullable : bool }

type t = column list

(** Construct a column with the conservative [nullable = true]. *)
val column : rel:string -> name:string -> ty:Value.ty -> column

(** Override a column's nullability (e.g. from catalog NOT NULL
    declarations or schema inference). *)
val with_nullable : bool -> column -> column

(** Number of columns. *)
val arity : t -> int

(** Position of a column reference: the first column of that name under
    qualifier [rel].  An unqualified reference ([rel = ""]) names an
    unqualified column (a projection or grouping output) when one has
    that name, else a column under any qualifier.  Allocates only to
    raise.
    @raise Not_found when absent.
    @raise Failure when an unqualified reference matches two columns. *)
val index_of : t -> rel:string -> name:string -> int

(** The column {!index_of} finds.  @raise Not_found
    @raise Failure as {!index_of}. *)
val find : t -> rel:string -> name:string -> column

(** Like {!index_of}, returning the position and the column, or [None]. *)
val find_opt : t -> rel:string -> name:string -> (int * column) option

(** Membership test with the same matching rules as {!index_of}. *)
val mem : t -> rel:string -> name:string -> bool

(** Concatenation for joins: left columns first. *)
val concat : t -> t -> t

(** Re-qualify every column under a new alias (view renaming). *)
val requalify : t -> rel:string -> t

val pp_column : Format.formatter -> column -> unit
val pp : Format.formatter -> t -> unit
