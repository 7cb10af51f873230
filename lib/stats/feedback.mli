(** Cardinality feedback cache: actual cardinalities observed during
    execution, keyed by a normalized digest of the logical subexpression
    and consulted on re-optimization in place of derived estimates.

    Keys are position-independent for the SPJ core — a subexpression is
    its set of (alias, table) pairs plus the canonicalized set of
    conjuncts applied anywhere within it — so every join order and every
    selection placement for the same logical subexpression shares one
    cache line.  Entries are fingerprinted with the row counts of the
    involved base tables and silently invalidated when statistics are
    refreshed to different counts ({!lookup} reports those as [Stale]). *)

open Relalg

type key = string
(** 8-hex FNV-1a digest. *)

(** FNV-1a digest of an arbitrary string (same scheme as [Obs.Trace]). *)
val digest : string -> string

(** Canonical form of one conjunct; equality operands are sorted so
    [a.x = b.y] and the reconstructed [b.y = a.x] agree. *)
val canon_pred : Expr.t -> string

(** [key ~shape ~rels ~preds] builds the cache key.  [rels] and [preds]
    are sorted and deduplicated internally.  [shape] distinguishes
    non-SPJ cardinalities ("spj", "semi:...", "group:...", ...). *)
val key : shape:string -> rels:(string * string) list -> preds:string list -> key

type t

val create : unit -> t
val clear : t -> unit
val size : t -> int

val hits : t -> int
val misses : t -> int
val records : t -> int

(** Record an observed cardinality, fingerprinting the current row counts
    of [tables] from [db]. *)
val record : t -> db:Table_stats.db -> tables:string list -> key -> float -> unit

type lookup =
  | Hit of float  (** fresh observed cardinality *)
  | Stale  (** an entry existed but its tables' row counts changed; it is
               dropped and counts as a miss *)
  | Miss

(** Observed cardinality for the key. *)
val lookup : t -> db:Table_stats.db -> key -> lookup

(** Drop every entry touching any of the tables. *)
val invalidate_tables : t -> string list -> unit
