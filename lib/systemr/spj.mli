(** Normalized Select-Project-Join queries — the class the System-R
    framework optimizes (Section 3): relations to join, conjunctive
    predicate, optional projection and output order. *)

open Relalg

type relation = { alias : string; table : string; schema : Schema.t }

type t = {
  relations : relation list;
  predicates : Expr.t list;  (** conjuncts: filters and join predicates *)
  projections : (Expr.t * string) list option;  (** [None] = SELECT * *)
  order_by : Cost.Physical_props.order;
}

val make :
  ?projections:(Expr.t * string) list option ->
  ?order_by:Cost.Physical_props.order ->
  relations:relation list -> predicates:Expr.t list -> unit -> t

val relation_aliases : t -> string list

(** Every conjunct placed once, in predicate order: the single-relation
    conjuncts of each relation (in relation order; constant conjuncts go
    to the first relation) and the conjuncts spanning at least two.
    @raise Invalid_argument when a single-relation conjunct names an
    alias the query does not join. *)
val split_predicates : t -> Expr.t list array * Expr.t list

(** Single-relation conjuncts for one alias. *)
val local_predicates : t -> string -> Expr.t list

(** Conjuncts spanning at least two relations. *)
val join_predicates : t -> Expr.t list

val graph : t -> Query_graph.t
