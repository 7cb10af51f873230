(* A candidate physical plan for some subexpression, with its estimated
   cost and delivered order.  Candidate sets are pruned to the Pareto
   frontier over (cost, order): keeping per-order bests is exactly
   System-R's interesting-orders mechanism (Section 3).

   A frontier keeps its candidates in a list sorted by ascending cost
   ([cheapest] is the head).  Dominance is a scan of the list's no-dearer
   prefix while the frontier is small; past [trie_above] candidates (wide
   order sets: cliques, bushy plans) an order trie answers it in one walk
   instead.  Insertion is split in two so a caller can price a candidate,
   ask [dominated], and build its plan only when the frontier would keep
   it; [insert] is the composition of the two halves. *)

type t = {
  plan : Exec.Plan.t;
  cost : float;
  order : Cost.Physical_props.order;
}

(* One trie node per order that is a prefix of some frontier candidate's
   order.  [best] is the least cost of a frontier candidate whose order
   extends the node's; [exact] is the candidate whose order is exactly the
   node's (a Pareto set has at most one per order).

   [best] is only ever lowered.  That keeps it exact: a candidate leaves
   the frontier only when an admitted one no dearer, with an order
   extending its order, displaces it — and that candidate already lowered
   every [best] on the displaced one's path to at most its cost. *)
type node = {
  mutable best : float;
  mutable exact : t option;
  mutable kids : ((Relalg.Expr.col_ref * Relalg.Algebra.dir) * node) list;
}

(* [trie] is [None] while the frontier is small, and once a NaN cost
   arrives: comparisons with NaN are all false, which the list scans
   define and the trie cannot follow. *)
type frontier = { mutable cands : t list; mutable trie : node option }

(* On a 2-CPU host, frontiers of a dozen candidates ran about a fifth
   faster with the list scan than with a trie, and clique-10 bushy's
   frontiers of hundreds made the whole search 7x faster with the trie. *)
let trie_above = 32

let new_node () = { best = infinity; exact = None; kids = [] }

let rec child k = function
  | [] -> raise_notrace Not_found
  | (k', n) :: rest ->
    if Cost.Physical_props.equal_key k' k then n else child k rest

let rec find_node node = function
  | [] -> node
  | k :: rest -> find_node (child k node.kids) rest

(* Lower [best] along [c]'s order, creating missing nodes, and make [c]
   the exact candidate of its node; returns [displaced] plus the
   candidates on the path that [c] displaces (as dear or dearer, with an
   order [c] satisfies), unlinked from their nodes. *)
let rec index (c : t) displaced node order =
  if c.cost < node.best then node.best <- c.cost;
  let displaced =
    match node.exact with
    | Some e when e.cost >= c.cost ->
      node.exact <- None;
      e :: displaced
    | _ -> displaced
  in
  match order with
  | [] ->
    node.exact <- Some c;
    displaced
  | k :: rest ->
    let next =
      match child k node.kids with
      | n -> n
      | exception Not_found ->
        let n = new_node () in
        node.kids <- (k, n) :: node.kids;
        n
    in
    index c displaced next rest

(* The trie of a list [insert] built — ascending costs, no candidate
   dominating another — or [None] for a list a NaN cost passed through,
   which may be neither. *)
let trie_of (cands : t list) : node option =
  let root = new_node () in
  let rec indexable = function
    | [] -> true
    | c :: rest ->
      (match rest with
       | next :: _ -> c.cost <= next.cost
       | [] -> not (Float.is_nan c.cost))
      && (match find_node root c.order with
          | node -> not (node.best <= c.cost)
          | exception Not_found -> true)
      && index c [] root c.order = []
      && indexable rest
  in
  if indexable cands then Some root else None

(* Some no-dearer candidate delivers [order]; the no-dearer candidates
   form a prefix of the list. *)
let rec dominated_in cost order = function
  | c' :: rest ->
    c'.cost <= cost
    && (Cost.Physical_props.satisfies ~have:c'.order ~want:order
        || dominated_in cost order rest)
  | [] -> false

(* The candidates of [l] whose order [order] does not satisfy; [l] itself
   when none is dropped. *)
let rec drop_satisfied order (l : t list) =
  match l with
  | [] -> l
  | c' :: rest ->
    let rest' = drop_satisfied order rest in
    if Cost.Physical_props.satisfies ~have:order ~want:c'.order then rest'
    else if rest' == rest then l
    else c' :: rest'

(* [l] without the candidates in [gone], sharing the tail past the last
   one. *)
let rec remove gone (l : t list) =
  match gone, l with
  | [], _ | _, [] -> l
  | _, c' :: rest ->
    if List.memq c' gone then remove (List.filter (( != ) c') gone) rest
    else c' :: remove gone rest

(* [c] placed after every no-dearer candidate of [l], displacing the
   candidates whose order it satisfies that are dearer — or as dear: the
   weaker order loses the tie.  [place_indexed] has the displaced ones
   from the trie. *)
let rec place (c : t) = function
  | c' :: rest when c'.cost <= c.cost ->
    if
      c'.cost = c.cost
      && Cost.Physical_props.satisfies ~have:c.order ~want:c'.order
    then place c rest
    else c' :: place c rest
  | rest -> c :: drop_satisfied c.order rest

let rec place_indexed (c : t) gone = function
  | c' :: rest when c'.cost <= c.cost ->
    if List.memq c' gone then place_indexed c gone rest
    else c' :: place_indexed c gone rest
  | rest -> c :: remove gone rest

(* Would a candidate of this cost and order leave the frontier unchanged?
   With [interesting_orders] it is dominated by a no-dearer candidate
   whose order extends its own.  Without, by any no-dearer candidate at
   all: the broken pruning that experiment E2 shows to be globally
   suboptimal. *)
let dominated ~interesting_orders (f : frontier) ~cost ~order =
  match f.cands with
  | [] -> false
  | best :: _ -> (
    if not interesting_orders then not (cost < best.cost)
    else
      match f.trie with
      | Some root -> (
        match find_node root order with
        | node -> node.best <= cost
        | exception Not_found -> false)
      | None -> dominated_in cost order f.cands)

(* Insert a candidate [dominated] rejected, [place]d; without
   [interesting_orders] it is the new single cheapest.  A list-scanned
   frontier grown past [trie_above] gets its trie. *)
let add ~interesting_orders (f : frontier) (c : t) =
  if Float.is_nan c.cost || not interesting_orders then f.trie <- None;
  if not interesting_orders then f.cands <- [ c ]
  else
    match f.trie with
    | Some root -> f.cands <- place_indexed c (index c [] root c.order) f.cands
    | None ->
      f.cands <- place c f.cands;
      if List.length f.cands > trie_above then f.trie <- trie_of f.cands

(* Insert with pruning, keeping the list sorted by ascending cost. *)
let insert ~interesting_orders (f : frontier) (c : t) =
  if not (dominated ~interesting_orders f ~cost:c.cost ~order:c.order) then
    add ~interesting_orders f c

(* A frontier holding [cands], a list built by [insert] (another
   frontier's, or [[]]). *)
let frontier (cands : t list) : frontier =
  let trie = if List.length cands > trie_above then trie_of cands else None in
  { cands; trie }

(* Head of the cost-sorted frontier. *)
let cheapest (cands : t list) : t option =
  match cands with [] -> None | c :: _ -> Some c

(* The cheapest way to deliver an order, priced but not built: [src]
   either already delivers it or gets a sort enforcer on top ([sorted]);
   [total] is the cost including the enforcer. *)
type ordered = { src : t; total : float; sorted : bool }

(* The first candidate delivering [want]. *)
let rec satisfying want = function
  | [] -> raise_notrace Not_found
  | c :: rest ->
    if Cost.Physical_props.satisfies ~have:c.order ~want then c
    else satisfying want rest

let cheapest_ordered ~params ~rows ~pages ~want (cands : t list) :
  ordered option =
  match cands with
  | [] -> None
  | head :: _ -> (
    let total = head.cost +. Cost.Cost_model.sort params ~pages ~rows in
    match satisfying want cands with
    | d when d.cost <= total -> Some { src = d; total = d.cost; sorted = false }
    | _ | (exception Not_found) -> Some { src = head; total; sorted = true })

let ordered_order ~want (o : ordered) = if o.sorted then want else o.src.order

let ordered_plan ~want (o : ordered) =
  if not o.sorted then o.src.plan
  else
    let keys =
      List.map
        (fun ((col : Relalg.Expr.col_ref), d) ->
           { Exec.Plan.key = Relalg.Expr.Col col;
             descending = (d = Relalg.Algebra.Desc) })
        want
    in
    Exec.Plan.Sort (keys, o.src.plan)

(* Cheapest way to deliver [want]: either a candidate already ordered
   suitably, or the cheapest candidate plus a sort enforcer. *)
let cheapest_with_order ~params ~rows ~pages ~want (cands : t list) :
  t option =
  Option.map
    (fun o ->
       { plan = ordered_plan ~want o; cost = o.total;
         order = ordered_order ~want o })
    (cheapest_ordered ~params ~rows ~pages ~want cands)
