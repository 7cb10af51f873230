(** Candidate plans with cost and delivered order, pruned to the Pareto
    frontier over (cost, order) — exactly System-R's interesting-orders
    mechanism (Section 3).

    A frontier keeps its candidates in a list sorted by ascending cost
    ([cheapest] is the head); a large one also indexes them by order, so
    dominance is a walk down a trie rather than a scan.  [insert] is
    [dominated] followed by [add], split so a caller can reject a priced
    candidate before it builds its plan. *)

type t = {
  plan : Exec.Plan.t;
  cost : float;
  order : Cost.Physical_props.order;
}

(** An order trie over a frontier's candidates. *)
type node

(** A Pareto set: [cands] sorted by ascending cost; once it holds many
    candidates, [trie] answers dominance instead of a scan of [cands]. *)
type frontier = private { mutable cands : t list; mutable trie : node option }

(** A frontier holding a cost-sorted Pareto set, e.g. [[]]. *)
val frontier : t list -> frontier

(** Would a candidate of this cost and order leave the frontier unchanged?
    With [interesting_orders:false] the order is ignored and only a
    strictly cheaper candidate is admitted — the broken pruning that
    experiment E2 shows to be globally suboptimal. *)
val dominated :
  interesting_orders:bool -> frontier -> cost:float ->
  order:Cost.Physical_props.order -> bool

(** Insert a candidate that [dominated] rejected, dropping the candidates
    it dominates and keeping the ascending-cost invariant. *)
val add : interesting_orders:bool -> frontier -> t -> unit

(** Insert with pruning: [add] unless [dominated]. *)
val insert : interesting_orders:bool -> frontier -> t -> unit

(** Head of the cost-sorted frontier. *)
val cheapest : t list -> t option

(** The cheapest way to deliver an order, priced but not built: [src]
    already delivers it, or [sorted] puts a sort enforcer on top; [total]
    includes the enforcer's cost. *)
type ordered = { src : t; total : float; sorted : bool }

(** Cheapest way to deliver [want]: an already-ordered candidate or the
    cheapest one plus a sort enforcer, priced without building the sort. *)
val cheapest_ordered :
  params:Cost.Cost_model.params -> rows:float -> pages:float ->
  want:Cost.Physical_props.order -> t list -> ordered option

(** The order an [ordered] delivers. *)
val ordered_order : want:Cost.Physical_props.order -> ordered -> Cost.Physical_props.order

(** The plan of an [ordered]: the source plan, under a [Sort] if
    [sorted]. *)
val ordered_plan : want:Cost.Physical_props.order -> ordered -> Exec.Plan.t

(** [cheapest_ordered] with its plan built. *)
val cheapest_with_order :
  params:Cost.Cost_model.params -> rows:float -> pages:float ->
  want:Cost.Physical_props.order -> t list -> t option
