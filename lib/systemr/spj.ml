(* Normalized Select-Project-Join queries — the query class the System-R
   framework optimizes (Section 3).  A SPJ query is a set of relations to be
   joined, a conjunctive predicate, an optional projection and an optional
   required output order. *)

open Relalg

type relation = { alias : string; table : string; schema : Schema.t }

type t = {
  relations : relation list;
  predicates : Expr.t list; (* conjuncts: filters and join predicates *)
  projections : (Expr.t * string) list option; (* None = SELECT * *)
  order_by : Cost.Physical_props.order;
}

let make ?(projections = None) ?(order_by = []) ~relations ~predicates () =
  { relations; predicates; projections; order_by }

let relation_aliases q = List.map (fun r -> r.alias) q.relations

(* Local (single-relation) conjuncts for [alias].  Constant conjuncts
   (referencing no relation — e.g. the WHERE FALSE left by folding a
   contradictory predicate set) must not be dropped: they are assigned
   to the first relation, which filters the whole result exactly once
   and as early as possible. *)
let local_predicates q alias =
  let first =
    match q.relations with r :: _ -> r.alias = alias | [] -> false
  in
  List.filter
    (fun p ->
       match Pred.classify p with
       | Pred.Single r -> r = alias
       | Pred.Constant -> first
       | Pred.Equi_join _ | Pred.Theta_join _ -> false)
    q.predicates

(* Conjuncts spanning at least two relations. *)
let join_predicates q =
  List.filter
    (fun p ->
       match Pred.classify p with
       | Pred.Equi_join _ | Pred.Theta_join _ -> true
       | Pred.Constant | Pred.Single _ -> false)
    q.predicates

let graph q : Query_graph.t =
  Query_graph.of_query
    ~scans:(List.map (fun r -> (r.alias, r.table)) q.relations)
    (join_predicates q)
