(** Physical properties of data streams (Section 3; generalized from
    interesting orders by [22]).  Single-site plans carry sort order; the
    parallel library adds partitioning the same way. *)

open Relalg

(** Sort order: column/direction pairs; [[]] means no known order. *)
type order = (Expr.col_ref * Algebra.dir) list

val no_order : order

val equal_col : Expr.col_ref -> Expr.col_ref -> bool

(** Same column, same direction. *)
val equal_key : Expr.col_ref * Algebra.dir -> Expr.col_ref * Algebra.dir -> bool

(** A stream ordered on [have] satisfies requirement [want] iff [want] is a
    prefix of [have]. *)
val satisfies : have:order -> want:order -> bool

val pp : Format.formatter -> order -> unit
val to_string : order -> string
