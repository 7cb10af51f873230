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

(* Every conjunct placed once: the local (single-relation) conjuncts of
   each relation, in relation order, and the conjuncts spanning at least
   two relations — each list in predicate order.  Constant conjuncts
   (referencing no relation — e.g. the WHERE FALSE left by folding a
   contradictory predicate set) must not be dropped: they are assigned
   to the first relation, which filters the whole result exactly once
   and as early as possible.  A conjunct on a relation the query does not
   join is a caller error, not a filter to drop.
   @raise Invalid_argument naming the unknown alias. *)
let split_predicates q : Expr.t list array * Expr.t list =
  let rels = Array.of_list q.relations in
  let locals = Array.make (Array.length rels) [] and joins = ref [] in
  let add_local alias p =
    let rec place i =
      if i = Array.length rels then
        invalid_arg ("split_predicates: unknown relation " ^ alias)
      else if rels.(i).alias = alias then locals.(i) <- p :: locals.(i)
      else place (i + 1)
    in
    place 0
  in
  List.iter
    (fun p ->
       match Pred.classify p with
       | Pred.Single r -> add_local r p
       | Pred.Constant ->
         if Array.length rels > 0 then add_local rels.(0).alias p
       | Pred.Equi_join _ | Pred.Theta_join _ -> joins := p :: !joins)
    (List.rev q.predicates);
  (locals, !joins)

let local_predicates q alias =
  let locals, _ = split_predicates q in
  let rec find i = function
    | [] -> []
    | r :: rest -> if r.alias = alias then locals.(i) else find (i + 1) rest
  in
  find 0 q.relations

let join_predicates q = snd (split_predicates q)

let graph q : Query_graph.t =
  Query_graph.of_query
    ~scans:(List.map (fun r -> (r.alias, r.table)) q.relations)
    (join_predicates q)
