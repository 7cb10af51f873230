(** Top-down memoized optimization (Volcano/Cascades, Section 6.2):
    transformation rules (commutativity, associativity) expand groups
    goal-driven during exploration; implementation rules map splits to
    physical joins; winners per physical property are memoized and reused;
    a promise ordering and an upper bound prune the implementation loop. *)

type config = { join_config : Systemr.Join_order.config }

val default_config : config

type result = {
  best : Systemr.Candidate.t;
  card : float;
  groups : int;
  exprs : int;
  rule_firings : int;
  plans_costed : int;
}

(** Optimize an SPJ query.  @raise Invalid_argument on empty queries. *)
val optimize :
  ?config:config -> Storage.Catalog.t -> Stats.Table_stats.db ->
  Systemr.Spj.t -> result
