(* Bottom-up dynamic-programming join enumeration (Section 3), with:
   - left-deep (linear) or bushy trees (Section 4.1.1, Figure 2);
   - Cartesian products deferred unless [allow_cross] (System-R's rule) —
     with a rescue path so disconnected query graphs still optimize;
   - interesting orders: per-subset candidate sets pruned to the Pareto
     frontier over (cost, delivered order);
   - pluggable join methods (nested loop, index nested loop, sort-merge,
     hash).

   The enumeration itself is graph-aware.  A bitset query graph is built
   once per query (per-predicate relation masks, per-relation neighbor
   masks), so connectivity checks are a couple of [land]s instead of alias
   lists and predicate scans.  In bushy mode, connected subsets are paired
   with connected complements (csg–cmp generation) instead of enumerating
   all ~3^n splits; chains and stars then cost only a polynomial number of
   pairs.  The only pruning is the frontier's: a priced candidate that
   one no dearer, with an order at least as useful, dominates is dropped
   before its plan is built.

   [exhaustive] pairs bushy subsets by walking every split of every
   subset, on the same bitset connectivity test.  It is the equivalence
   oracle and benchmark baseline, and its all-splits walk doubles as the
   cartesian rescue path for disconnected graphs.  Left-deep search is the
   same walk either way. *)

open Relalg

type meth = Nl | Inl | Smj | Hj

type config = {
  params : Cost.Cost_model.params;
  asm : Stats.Derive.assumption;
  allow_cross : bool;
  interesting_orders : bool;
  bushy : bool;
  methods : meth list;
  exhaustive : bool;
}

let default_config =
  { params = Cost.Cost_model.default_params;
    asm = Stats.Derive.default_assumption;
    allow_cross = false;
    interesting_orders = true;
    bushy = false;
    methods = [ Nl; Inl; Smj; Hj ];
    exhaustive = false }

(* The 1979 System-R repertoire: nested loop and sort-merge only, linear
   trees, no Cartesian products. *)
let system_r_1979 =
  { default_config with methods = [ Nl; Inl; Smj ] }

(* The unrefined search: every mask, every split.  Same plans and, on a
   connected graph, the same costed pairs as the graph-aware search (a
   property test and the bench pre-check). *)
let exhaustive c = { c with exhaustive = true }

type counters = {
  subsets : int; (* DP table entries created *)
  splits : int; (* (left, right) combinations considered *)
  costed : int; (* physical join candidates built and costed *)
  pruned : int; (* priced candidates the frontier dominated, never built *)
}

let counters_zero = { subsets = 0; splits = 0; costed = 0; pruned = 0 }

let counters_add a b =
  { subsets = a.subsets + b.subsets;
    splits = a.splits + b.splits;
    costed = a.costed + b.costed;
    pruned = a.pruned + b.pruned }

let counters_sub a b =
  { subsets = a.subsets - b.subsets;
    splits = a.splits - b.splits;
    costed = a.costed - b.costed;
    pruned = a.pruned - b.pruned }

(* Tables keyed by relation bitmask. *)
module Int_tbl = Hashtbl.Make (Int)

(* The join keys of a split: its equi pairs as (left key, right key), and
   the orders a merge join wants on either side. *)
type keys = {
  pairs : (Expr.col_ref * Expr.col_ref) list;
  want_l : Cost.Physical_props.order;
  want_r : Cost.Physical_props.order;
}

let no_keys = { pairs = []; want_l = []; want_r = [] }

let keys_of ~order_on l r =
  { pairs = [ (l, r) ]; want_l = order_on l; want_r = order_on r }

(* A join conjunct, classified once per query: the mask of relations it
   mentions and, for an equi-join [l = r] between two of this block's
   relations, [l]'s bit and the keys of each orientation.  A split reads
   its keys and residual off these with [land]s, and a split with one equi
   conjunct (the common case) shares its lists. *)
type conj_kind =
  | Equi of {
      lbit : int;  (* bit of [l]'s relation *)
      fwd : keys;  (* [l] on the left *)
      bwd : keys;  (* [r] on the left *)
    }
  | Residual

type conj = { pred : Expr.t; mask : int; kind : conj_kind }

(* An index an index nested loop can probe, with the estimated distinct
   values of each probed key prefix: [ndv.(k - 1)] for the first [k]
   columns. *)
type probe_index = { index : Storage.Btree.t; ndv : float array }

(* Per-relation facts the join costing reads, looked up once per query. *)
type rel_info = {
  rows : float;  (* stored rows and pages, before local filters *)
  pages : float;
  probes : probe_index list;  (* [] when [Inl] is not in [methods] *)
}

(* A DP table entry: a subset's logical statistics (and its pages, read by
   every split the subset takes part in) plus its Pareto candidate set. *)
type entry = {
  stats : Stats.Derive.rel_stats;
  pages : float;
  frontier : Candidate.frontier;
}

let new_entry stats cands =
  { stats; pages = Stats.Derive.pages stats;
    frontier = Candidate.frontier cands }

type ctx = {
  cfg : config;
  feedback : Stats.Feedback.t option;
      (* observed-cardinality cache consulted in [stats_of]; None = off *)
  cat : Storage.Catalog.t;
  db : Stats.Table_stats.db;
  rels : Spj.relation array;
  locals : Expr.t list array;
  conjs : conj array;  (* every join conjunct, in predicate order *)
  neighbors : int array;
      (* per-relation adjacency mask over two-relation conjuncts *)
  hyper : int array;
      (* masks of conjuncts spanning >= 3 relations; these connect a
         partition only when fully contained in its union *)
  info : rel_info array;
  base : entry array;  (* access paths and filtered statistics *)
  stats_memo : Stats.Derive.rel_stats Int_tbl.t;
  join_memo : Stats.Histogram.join_memo;
      (* histogram-join rows per join edge, shared by every subset *)
  trace : (Obs.Trace.event -> unit) option;
      (* optimizer-trace sink; None = tracing off (no event is built) *)
  mutable plans_costed : int;
  mutable splits_considered : int;
  mutable plans_pruned : int;
  mutable subsets_created : int;
  mutable memo_hits : int; (* stats_memo lookups served from the memo *)
}

type result = {
  best : Candidate.t;
  card : float;
  counters : counters;
}

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let lowest_bit_index mask =
  if mask = 0 then invalid_arg "lowest_bit_index: empty mask";
  let rec go i m = if m land 1 = 1 then i else go (i + 1) (m lsr 1) in
  go 0 mask

let highest_bit_index mask =
  if mask = 0 then invalid_arg "highest_bit_index: empty mask";
  let rec go i m = if m = 1 then i else go (i + 1) (m lsr 1) in
  go 0 mask

let fold_bits f acc mask =
  let acc = ref acc and m = ref mask and i = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 then acc := f !acc !i;
    m := !m lsr 1;
    incr i
  done;
  !acc

(* Aliases referenced by a predicate but absent from this query block
   (correlated references) map to a bit above any relation's, so the
   containment test below can never pass: a correlated conjunct never
   connects two subsets. *)
let foreign_bit = 1 lsl 60

let make_ctx ?trace ?feedback cfg cat db (q : Spj.t) : ctx =
  let rels = Array.of_list q.Spj.relations in
  let n = Array.length rels in
  if n > 60 then
    invalid_arg "Join_order: more than 60 relations in one block";
  let locals, join_preds = Spj.split_predicates q in
  let base =
    Array.mapi
      (fun i r ->
         let cands, stats =
           Access_path.candidates cfg.params cfg.asm cat db r locals.(i)
         in
         new_entry stats cands)
      rels
  in
  (* one ascending order list per join column, so candidates ordered on
     the same column share it and the frontier's order checks mostly end
     at [==] *)
  let orders = Hashtbl.create 16 in
  let order_on (c : Expr.col_ref) =
    let key = (c.Expr.rel, c.Expr.col) in
    match Hashtbl.find_opt orders key with
    | Some o -> o
    | None ->
      let o = [ (c, Algebra.Asc) ] in
      Hashtbl.replace orders key o;
      o
  in
  let bit_of = Hashtbl.create (max 8 n) in
  Array.iteri (fun i (r : Spj.relation) -> Hashtbl.replace bit_of r.Spj.alias i) rels;
  let mask_of_pred p =
    List.fold_left
      (fun acc a ->
         match Hashtbl.find_opt bit_of a with
         | Some i -> acc lor (1 lsl i)
         | None -> acc lor foreign_bit)
      0 (Expr.relations p)
  in
  let conj_of p =
    let mask = mask_of_pred p in
    let kind =
      match p with
      | Expr.Cmp (Expr.Eq, Expr.Col l, Expr.Col r)
        when l.Expr.rel <> r.Expr.rel && mask land foreign_bit = 0 ->
        Equi
          { lbit = 1 lsl Hashtbl.find bit_of l.Expr.rel;
            fwd = keys_of ~order_on l r;
            bwd = keys_of ~order_on r l }
      | _ -> Residual
    in
    { pred = p; mask; kind }
  in
  let conjs = Array.of_list (List.map conj_of join_preds) in
  let neighbors = Array.make (max 1 n) 0 in
  let hyper = ref [] in
  Array.iter
    (fun { mask = m; _ } ->
       if m land foreign_bit = 0 then
         match popcount m with
         | 0 | 1 -> ()
         | 2 ->
           for i = 0 to n - 1 do
             if m land (1 lsl i) <> 0 then
               neighbors.(i) <- neighbors.(i) lor (m land lnot (1 lsl i))
           done
         | _ -> hyper := m :: !hyper)
    conjs;
  let info_of (r : Spj.relation) =
    let table = Storage.Catalog.table cat r.Spj.table in
    let rows = float_of_int (Storage.Table.row_count table) in
    let col_ndv c =
      match
        Stats.Table_stats.find db r.Spj.table
        |> Fun.flip Option.bind (fun ts -> Stats.Table_stats.col ts c)
      with
      | Some cs -> Float.max 1. cs.Stats.Table_stats.n_distinct
      | None -> Float.max 1. rows
    in
    let probe (idx : Storage.Btree.t) =
      let cols = Array.of_list idx.Storage.Btree.columns in
      let k = Array.length cols in
      let acc = ref 1. in
      let ndv =
        Array.mapi
          (fun j c ->
             acc := !acc *. col_ndv c;
             if j = k - 1 then
               (* full key: the exact distinct-combinations statistic *)
               Float.max 1. (float_of_int idx.Storage.Btree.distinct_keys)
             else Float.min rows !acc)
          cols
      in
      { index = idx; ndv }
    in
    { rows;
      pages = float_of_int (Storage.Table.page_count table);
      probes =
        (if List.mem Inl cfg.methods then
           List.map probe (Storage.Catalog.indexes cat r.Spj.table)
         else []) }
  in
  { cfg;
    feedback;
    cat;
    db;
    rels;
    locals;
    conjs;
    neighbors;
    hyper = Array.of_list (List.rev !hyper);
    info = Array.map info_of rels;
    base;
    stats_memo = Int_tbl.create 64;
    join_memo = Stats.Histogram.join_memo ();
    trace;
    plans_costed = 0;
    splits_considered = 0;
    plans_pruned = 0;
    subsets_created = 0;
    memo_hits = 0 }

let emit ctx e =
  match ctx.trace with None -> () | Some sink -> sink (e ())

let crosses ~left ~right m =
  m land left <> 0 && m land right <> 0 && m land lnot (left lor right) = 0

(* Join conjuncts crossing the (left, right) partition and fully contained
   in their union — two [land]s per conjunct against precomputed masks. *)
let crossing_preds ctx ~left ~right =
  let acc = ref [] in
  for k = Array.length ctx.conjs - 1 downto 0 do
    let c = ctx.conjs.(k) in
    if crosses ~left ~right c.mask then acc := c.pred :: !acc
  done;
  !acc

(* The crossing conjuncts of a split, in conjunct order: the join keys of
   the equi conjuncts, and the non-equi residual. *)
let split_conjuncts ctx ~left ~right =
  let keys = ref [] and residual = ref [] in
  for k = Array.length ctx.conjs - 1 downto 0 do
    let c = ctx.conjs.(k) in
    if crosses ~left ~right c.mask then begin
      match c.kind with
      | Equi { lbit; fwd; bwd } ->
        keys := (if lbit land left <> 0 then fwd else bwd) :: !keys
      | Residual -> residual := c.pred :: !residual
    end
  done;
  let keys =
    match !keys with
    | [] -> no_keys
    | [ k ] -> k
    | ks ->
      { pairs = List.concat_map (fun k -> k.pairs) ks;
        want_l = List.concat_map (fun k -> k.want_l) ks;
        want_r = List.concat_map (fun k -> k.want_r) ks }
  in
  (keys, !residual)

(* Union of the neighbor masks of [mask]'s relations, minus [mask]. *)
let neighbor_mask ctx mask =
  let acc = ref 0 and m = ref mask and i = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 then acc := !acc lor ctx.neighbors.(!i);
    m := !m lsr 1;
    incr i
  done;
  !acc land lnot mask

(* Does any conjunct cross (m1, m2) while staying contained in the union?
   Binary conjuncts reduce to one adjacency [land]; hyperedges still need
   the containment check. *)
let connected_masks ctx m1 m2 =
  neighbor_mask ctx m1 land m2 <> 0
  || (Array.length ctx.hyper > 0
      &&
      let union = m1 lor m2 in
      Array.exists
        (fun hm ->
           hm land m1 <> 0 && hm land m2 <> 0 && hm land lnot union = 0)
        ctx.hyper)

(* The relations [r] outside [mask] with [connected_masks ctx mask (1 lsl
   r)], as one mask: neighbors, plus the one relation a hyperedge misses
   when it misses exactly one. *)
let connected_exts ctx mask =
  let acc = ref (neighbor_mask ctx mask) in
  for h = 0 to Array.length ctx.hyper - 1 do
    let hm = ctx.hyper.(h) in
    let r = hm land lnot mask in
    if hm land mask <> 0 && r <> 0 && r land (r - 1) = 0 then
      acc := !acc lor r
  done;
  !acc

(* Is [mask] connected under the conjuncts contained in it?  A necessary
   condition for the subset to have any join candidate at all (an
   unconnected subset can only be formed by a cross product, which the
   non-[allow_cross] search never builds). *)
let mask_connected ctx mask =
  mask <> 0
  &&
  let seen = ref (mask land -mask) in
  let frontier = ref !seen in
  while !frontier <> 0 do
    let hyper_nb =
      Array.fold_left
        (fun acc hm ->
           if hm land !seen <> 0 && hm land lnot mask = 0 then acc lor hm
           else acc)
        0 ctx.hyper
    in
    let nb =
      (neighbor_mask ctx !seen lor hyper_nb) land mask land lnot !seen
    in
    seen := !seen lor nb;
    frontier := nb
  done;
  !seen = mask

(* Is the whole query graph connected, in the sense the enumeration cares
   about: can the full set be grown one relation at a time without a cross
   product?  (Stricter than [mask_connected] for hyperedges: a conjunct
   over {A,B,C} cannot join {A} to {B}, so a graph held together only by
   it still needs the cartesian rescue.) *)
let graph_connected ctx =
  let n = Array.length ctx.rels in
  n <= 1
  ||
  let full = (1 lsl n) - 1 in
  let seen = ref 1 and changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if !seen land (1 lsl i) = 0 && connected_masks ctx !seen (1 lsl i)
      then begin
        seen := !seen lor (1 lsl i);
        changed := true
      end
    done
  done;
  !seen = full

(* Feedback-cache key of a subset: its (alias, table) pairs plus every
   conjunct applied anywhere within it — the local filters of each member
   relation and the join conjuncts fully contained in the mask.  This is
   exactly the information [stats_of] folds into the subset's summary, so
   the key identifies the logical subexpression independently of join
   order and selection placement. *)
let feedback_key ctx mask : Stats.Feedback.key option =
  let rels =
    List.rev
      (fold_bits
         (fun acc i ->
            (ctx.rels.(i).Spj.alias, ctx.rels.(i).Spj.table) :: acc)
         [] mask)
  in
  if List.exists (fun (_, t) -> Storage.Catalog.is_temp_table t) rels then None
  else begin
    let local_preds =
      fold_bits
        (fun acc i ->
           List.rev_append (List.map Stats.Feedback.canon_pred ctx.locals.(i)) acc)
        [] mask
    in
    let join_preds =
      Array.fold_left
        (fun acc { pred; mask = m; _ } ->
           if m land foreign_bit = 0 && m land mask = m && popcount m >= 2
           then Stats.Feedback.canon_pred pred :: acc
           else acc)
        [] ctx.conjs
    in
    Some (Stats.Feedback.key ~shape:"spj" ~rels ~preds:(local_preds @ join_preds))
  end

(* Canonical subset statistics: peel the highest relation and join it to the
   rest — the result is independent of which plan produced the subset
   (statistics are a logical property, Section 5).  When a feedback cache
   is configured and holds a fresh actual for the subset's logical
   subexpression, the observed cardinality replaces the derived one. *)
let rec stats_of ctx mask : Stats.Derive.rel_stats =
  match Int_tbl.find_opt ctx.stats_memo mask with
  | Some s ->
    ctx.memo_hits <- ctx.memo_hits + 1;
    s
  | None ->
    let s =
      if mask = 0 then invalid_arg "stats_of: empty subset"
      else if mask land (mask - 1) = 0 then
        ctx.base.(lowest_bit_index mask).stats
      else begin
        let top = highest_bit_index mask in
        let rest = mask land lnot (1 lsl top) in
        let ls = stats_of ctx rest in
        let rs = ctx.base.(top).stats in
        let preds = crossing_preds ctx ~left:rest ~right:(1 lsl top) in
        Stats.Derive.join ~asm:ctx.cfg.asm ~join_memo:ctx.join_memo
          Algebra.Inner ls rs (Pred.of_conjuncts preds)
      end
    in
    let s =
      match ctx.feedback with
      | None -> s
      | Some fb -> (
        match feedback_key ctx mask with
        | None -> s
        | Some k -> (
          match Stats.Feedback.lookup fb ~db:ctx.db k with
          | Stats.Feedback.Miss -> s
          | Stats.Feedback.Stale ->
            Obs.Metrics.incr Obs.Metrics.feedback_stale;
            emit ctx (fun () -> Obs.Trace.Feedback_stale { digest = k });
            s
          | Stats.Feedback.Hit act ->
            Obs.Metrics.incr Obs.Metrics.feedback_overrides;
            emit ctx (fun () ->
                Obs.Trace.Feedback_override
                  { digest = k; est = s.Stats.Derive.card; act });
            { s with Stats.Derive.card = act }))
    in
    Int_tbl.replace ctx.stats_memo mask s;
    s

(* ------------------------------------------------------------------ *)
(* Join candidate construction *)

(* Longest prefix of an index key covered by equi-join pairs, as (index
   column, outer key) pairs. *)
let rec covered pairs = function
  | [] -> []
  | c :: rest -> (
    match
      List.find_opt (fun ((_ : Expr.col_ref), r) -> r.Expr.col = c) pairs
    with
    | Some (lcol, _) -> (c, lcol) :: covered pairs rest
    | None -> [])

(* The one emit path every priced candidate takes: count it and ask the
   frontier whether it would keep it — before its plan is built.  A
   dominated candidate is counted as pruned. *)
let admit ctx (out : entry) cost order =
  ctx.plans_costed <- ctx.plans_costed + 1;
  let dominated =
    Candidate.dominated ~interesting_orders:ctx.cfg.interesting_orders
      out.frontier ~cost ~order
  in
  if dominated then ctx.plans_pruned <- ctx.plans_pruned + 1;
  not dominated

(* Build an admitted candidate and insert it. *)
let push ctx (out : entry) plan cost order =
  Candidate.add ~interesting_orders:ctx.cfg.interesting_orders out.frontier
    { Candidate.plan; cost; order }

(* Per-method loops over the left candidates; everything else a
   candidate's cost needs was priced once for the split. *)
let rec nl_each ctx out ~pred ~(rc : Candidate.t) ~materialize ~rescan
  = function
  | [] -> ()
  | (lc : Candidate.t) :: rest ->
    let cost = lc.Candidate.cost +. rc.Candidate.cost +. rescan in
    if admit ctx out cost lc.Candidate.order then
      push ctx out
        (Exec.Plan.Nested_loop
           { kind = Algebra.Inner; pred = Lazy.force pred;
             outer = lc.Candidate.plan;
             inner =
               (if materialize then Exec.Plan.Materialize rc.Candidate.plan
                else rc.Candidate.plan) })
        cost lc.Candidate.order;
    nl_each ctx out ~pred ~rc ~materialize ~rescan rest

let rec inl_each ctx out ~(rel : Spj.relation) ~index ~columns ~probed
    ~probe = function
  | [] -> ()
  | (lc : Candidate.t) :: rest ->
    let cost = lc.Candidate.cost +. probe in
    if admit ctx out cost lc.Candidate.order then begin
      let outer_keys, residual = Lazy.force probed in
      push ctx out
        (Exec.Plan.Index_nl
           { kind = Algebra.Inner; outer = lc.Candidate.plan;
             table = rel.Spj.table; alias = rel.Spj.alias; index; columns;
             outer_keys; residual })
        cost lc.Candidate.order
    end;
    inl_each ctx out ~rel ~index ~columns ~probed ~probe rest

let rec hj_each ctx out ~pairs ~residual ~(rc : Candidate.t) ~build =
  function
  | [] -> ()
  | (lc : Candidate.t) :: rest ->
    let cost = lc.Candidate.cost +. rc.Candidate.cost +. build in
    if admit ctx out cost lc.Candidate.order then
      push ctx out
        (Exec.Plan.Hash_join
           { kind = Algebra.Inner; pairs; residual; left = lc.Candidate.plan;
             right = rc.Candidate.plan })
        cost lc.Candidate.order;
    hj_each ctx out ~pairs ~residual ~rc ~build rest

(* What every candidate of one split shares, worked out once for it. *)
type split = {
  left : entry;
  right : entry;
  right_base : int option;  (* the right side's relation, when it is one *)
  keys : keys;
  residual_list : Expr.t list;  (* the non-equi crossing conjuncts *)
  residual : Expr.t;
  nl_pred : Expr.t Lazy.t;  (* every crossing conjunct *)
}

(* Index nested loops probing each index of base relation [ri] whose key
   prefix the split's equi pairs cover. *)
let rec inl_cands ctx out (sp : split) ri = function
  | [] -> ()
  | { index = idx; ndv } :: rest ->
    (match covered sp.keys.pairs idx.Storage.Btree.columns with
     | [] -> ()
     | cov ->
       let columns = List.map fst cov in
       let probed =
         lazy
           ( List.map (fun (_, l) -> Expr.Col l) cov,
             Pred.of_conjuncts
               (List.filter_map
                  (fun ((l : Expr.col_ref), (r : Expr.col_ref)) ->
                     if List.mem r.Expr.col columns then None
                     else Some (Expr.Cmp (Expr.Eq, Expr.Col l, Expr.Col r)))
                  sp.keys.pairs
                @ sp.residual_list @ ctx.locals.(ri)) )
       in
       let info = ctx.info.(ri) in
       inl_each ctx out ~rel:ctx.rels.(ri)
         ~index:idx.Storage.Btree.name ~columns ~probed
         ~probe:
           (Cost.Cost_model.index_nl ctx.cfg.params
              ~outer_rows:sp.left.stats.Stats.Derive.card
              ~inner_rows:info.rows ~inner_pages:info.pages
              ~matches_per_probe:(info.rows /. ndv.(List.length cov - 1))
              ~clustered:idx.Storage.Btree.clustered)
         sp.left.frontier.Candidate.cands);
    inl_cands ctx out sp ri rest

(* The merge join of the cheapest inputs delivering the key orders,
   sort enforcers priced in. *)
let smj_cand ctx out (sp : split) =
  let p = ctx.cfg.params and { pairs; want_l; want_r } = sp.keys in
  let lrows = sp.left.stats.Stats.Derive.card
  and rrows = sp.right.stats.Stats.Derive.card in
  match
    ( Candidate.cheapest_ordered ~params:p ~rows:lrows ~pages:sp.left.pages
        ~want:want_l sp.left.frontier.Candidate.cands,
      Candidate.cheapest_ordered ~params:p ~rows:rrows ~pages:sp.right.pages
        ~want:want_r sp.right.frontier.Candidate.cands )
  with
  | Some lo, Some ro ->
    let cost =
      lo.Candidate.total +. ro.Candidate.total
      +. Cost.Cost_model.merge_join p ~left_rows:lrows ~right_rows:rrows
           ~out_rows:out.stats.Stats.Derive.card
    in
    let order = Candidate.ordered_order ~want:want_l lo in
    if admit ctx out cost order then
      push ctx out
        (Exec.Plan.Merge_join
           { kind = Algebra.Inner; pairs; residual = sp.residual;
             left = Candidate.ordered_plan ~want:want_l lo;
             right = Candidate.ordered_plan ~want:want_r ro })
        cost order
  | _ -> ()

(* The candidates of each configured method, in [methods] order. *)
let rec method_cands ctx out (sp : split) = function
  | [] -> ()
  | m :: rest ->
    let p = ctx.cfg.params in
    let lrows = sp.left.stats.Stats.Derive.card
    and rrows = sp.right.stats.Stats.Derive.card in
    (match m, sp.right.frontier.Candidate.cands with
     | Nl, rc :: _ ->
       nl_each ctx out ~pred:sp.nl_pred ~rc
         ~materialize:(sp.right_base = None)
         ~rescan:
           (match sp.right_base with
            | Some _ ->
              Cost.Cost_model.nested_loop p ~outer_rows:lrows
                ~inner_rows:rrows ~inner_pages:sp.right.pages
            | None -> p.Cost.Cost_model.cpu_tuple *. lrows *. rrows)
         sp.left.frontier.Candidate.cands
     | Inl, _ -> (
       match sp.right_base with
       | Some ri -> inl_cands ctx out sp ri ctx.info.(ri).probes
       | None -> ())
     | Smj, _ -> if sp.keys.pairs <> [] then smj_cand ctx out sp
     | Hj, rc :: _ ->
       if sp.keys.pairs <> [] then
         hj_each ctx out ~pairs:sp.keys.pairs ~residual:sp.residual
           ~rc
           ~build:
             (Cost.Cost_model.hash_join p ~left_rows:lrows ~right_rows:rrows
                ~left_pages:sp.left.pages ~right_pages:sp.right.pages
                ~out_rows:out.stats.Stats.Derive.card)
           sp.left.frontier.Candidate.cands
     | (Nl | Hj), [] -> ());
    method_cands ctx out sp rest

(* Cost every join candidate combining [left] (composite) with [right]
   (composite when bushy; [right_base] set when it is one base relation)
   and insert each into [out]'s frontier as it is priced.  What a split
   shares — its conjuncts and keys, the NL, INL and HJ costs beside the
   left input's, the merge join's sort enforcers — is worked out once per
   split, and only candidates the frontier keeps are built. *)
let join_cands ctx ~(left : entry) ~left_mask
    ~(right : entry) ~right_mask ~right_base (out : entry) : unit =
  let keys, residual_list =
    split_conjuncts ctx ~left:left_mask ~right:right_mask
  in
  method_cands ctx out
    { left; right; right_base; keys; residual_list;
      residual = Pred.of_conjuncts residual_list;
      nl_pred =
        lazy
          (Pred.of_conjuncts
             (crossing_preds ctx ~left:left_mask ~right:right_mask)) }
    ctx.cfg.methods

(* ------------------------------------------------------------------ *)
(* Enumeration *)

let counters_of ctx =
  { subsets = ctx.subsets_created;
    splits = ctx.splits_considered;
    costed = ctx.plans_costed;
    pruned = ctx.plans_pruned }

let optimize_entry ?trace ?feedback ?(config = default_config) cat db
    (q : Spj.t) : ctx * entry =
  let ctx = make_ctx ?trace ?feedback config cat db q in
  let n = Array.length ctx.rels in
  if n = 0 then invalid_arg "Join_order.optimize: no relations";
  let entries : entry Int_tbl.t = Int_tbl.create 64 in
  (* masks of each size, in creation order, for the left-deep pass *)
  let by_size = Array.make (n + 1) [] in
  let add mask e =
    Int_tbl.replace entries mask e;
    let k = popcount mask in
    by_size.(k) <- mask :: by_size.(k);
    ctx.subsets_created <- ctx.subsets_created + 1
  in
  for i = 0 to n - 1 do
    add (1 lsl i) ctx.base.(i)
  done;
  let full = (1 lsl n) - 1 in
  let get mask = Int_tbl.find_opt entries mask in
  let ensure mask =
    match get mask with
    | Some e -> e
    | None ->
      let e = new_entry (stats_of ctx mask) [] in
      add mask e;
      e
  in
  let gconn = graph_connected ctx in
  (* One (left, right) combination: count it, then cost and insert. *)
  let consider ~(left : entry) ~left_mask ~(right : entry) ~right_mask
      ~right_base out =
    match left.frontier.Candidate.cands, right.frontier.Candidate.cands with
    | [], _ | _, [] -> ()
    | _ :: _, _ :: _ ->
      ctx.splits_considered <- ctx.splits_considered + 1;
      join_cands ctx ~left ~left_mask ~right ~right_mask ~right_base out
  in
  (* Per-level enumeration counters (level = relations in the union mask),
     accumulated from snapshot deltas around each enumeration step; the
     snapshots are only taken when tracing. *)
  let levels = Array.make (n + 1) counters_zero in
  let at_level lvl body =
    match ctx.trace with
    | None -> body ()
    | Some _ ->
      let before = counters_of ctx in
      body ();
      levels.(lvl) <-
        counters_add levels.(lvl) (counters_sub (counters_of ctx) before)
  in
  if not config.bushy then begin
    (* left-deep, by subset size; this pass creates only masks of size
       [size + 1], so the size-[size] list is complete.  Ascending mask
       order fixes candidate insertion order, which breaks cost ties. *)
    for size = 1 to n - 1 do
      let masks = Array.of_list by_size.(size) in
      Array.sort Int.compare masks;
      at_level (size + 1) @@ fun () ->
      for k = 0 to Array.length masks - 1 do
        let mask = masks.(k) in
        let left = Int_tbl.find entries mask in
        let exts = full land lnot mask in
        let connected = connected_exts ctx mask in
        let chosen =
          if config.allow_cross || connected = 0 then exts
            (* rescue: disconnected graph needs a cross product *)
          else connected
        in
        (* ascending relation order, as candidate insertion order breaks
           cost ties *)
        for i = 0 to n - 1 do
          let rmask = 1 lsl i in
          if chosen land rmask <> 0 then begin
            let out = ensure (mask lor rmask) in
            consider ~left ~left_mask:mask ~right:ctx.base.(i)
              ~right_mask:rmask ~right_base:(Some i) out
          end
        done
      done
    done
  end
  else begin
    if (not config.exhaustive) && (not config.allow_cross) && gconn && n >= 2
    then begin
      (* csg–cmp generation: union masks in increasing numeric order (every
         proper submask is smaller, hence already final), and within each
         connected union, connected subgraphs containing its lowest
         relation paired with connected complements.  Each unordered pair
         surfaces once — the side holding the lowest bit is the csg — and
         is costed in both orders. *)
      for mask = 3 to full do
        if mask land (mask - 1) <> 0 && mask_connected ctx mask then
          at_level (popcount mask) @@ fun () ->
          let out = ensure mask in
          let consider_pair s1 =
            let s2 = mask land lnot s1 in
            if s2 <> 0 && mask_connected ctx s2 && connected_masks ctx s1 s2
            then
              match get s1, get s2 with
              | Some left, Some right ->
                let base_of s =
                  if s land (s - 1) = 0 then Some (lowest_bit_index s)
                  else None
                in
                consider ~left ~left_mask:s1 ~right ~right_mask:s2
                  ~right_base:(base_of s2) out;
                consider ~left:right ~left_mask:s2 ~right:left ~right_mask:s1
                  ~right_base:(base_of s1) out
              | _ -> ()
          in
          (* neighborhood for growing a connected subgraph: adjacency plus
             relations reachable through a hyperedge contained in [mask] *)
          let nbhood s x =
            let hyper_nb =
              Array.fold_left
                (fun acc hm ->
                   if hm land s <> 0 && hm land lnot mask = 0 then acc lor hm
                   else acc)
                0 ctx.hyper
            in
            (neighbor_mask ctx s lor hyper_nb)
            land mask land lnot s land lnot x
          in
          let rec csg_rec s x =
            let nb = nbhood s x in
            if nb <> 0 then begin
              let sub = ref nb in
              while !sub <> 0 do
                consider_pair (s lor !sub);
                sub := (!sub - 1) land nb
              done;
              let x' = x lor nb in
              let sub = ref nb in
              while !sub <> 0 do
                csg_rec (s lor !sub) x';
                sub := (!sub - 1) land nb
              done
            end
          in
          let low = mask land -mask in
          consider_pair low;
          csg_rec low low
      done
    end
    else begin
      (* every subset, every split — reached under [exhaustive] (the
         equivalence oracle and measured baseline), under
         [allow_cross], and as the cartesian rescue when the whole graph
         is disconnected.  A merely-disconnected intermediate subset is
         simply skipped, as in standard connected-subgraph enumeration. *)
      for mask = 1 to full do
        if mask land (mask - 1) <> 0 then
          at_level (popcount mask) @@ fun () ->
          let out = ensure mask in
          let splits = ref [] in
          let s = ref ((mask - 1) land mask) in
          while !s > 0 do
            let s1 = !s and s2 = mask land lnot !s in
            if s2 <> 0 then splits := (s1, s2) :: !splits;
            s := (!s - 1) land mask
          done;
          let with_conn =
            List.filter (fun (s1, s2) -> connected_masks ctx s1 s2) !splits
          in
          let chosen =
            if config.allow_cross then !splits
            else if with_conn <> [] then with_conn
            else if not gconn then !splits
            else []
          in
          List.iter
            (fun (s1, s2) ->
               match get s1, get s2 with
               | Some left, Some right ->
                 let right_base =
                   if s2 land (s2 - 1) = 0 then Some (lowest_bit_index s2)
                   else None
                 in
                 consider ~left ~left_mask:s1 ~right ~right_mask:s2
                   ~right_base out
               | _ -> ())
            chosen
      done
    end
  end;
  (match ctx.trace with
   | None -> ()
   | Some sink ->
     Array.iteri
       (fun level c ->
          if c <> counters_zero then
            sink
              (Obs.Trace.Enum_level
                 { level; subsets = c.subsets; splits = c.splits;
                   costed = c.costed; pruned = c.pruned }))
       levels;
     sink
       (Obs.Trace.Memo_stats
          { table = "subset_stats";
            hits = ctx.memo_hits;
            misses = Int_tbl.length ctx.stats_memo });
     let hits, misses = Stats.Histogram.join_memo_stats ctx.join_memo in
     sink (Obs.Trace.Memo_stats { table = "hist_join"; hits; misses }));
  (ctx, Int_tbl.find entries full)

let finish ctx (q : Spj.t) (final : entry) : result =
  let stats = final.stats in
  let rows = stats.Stats.Derive.card and pages = final.pages in
  let best =
    match
      Candidate.cheapest_with_order ~params:ctx.cfg.params ~rows ~pages
        ~want:q.Spj.order_by final.frontier.Candidate.cands
    with
    | Some c -> c
    | None -> invalid_arg "Join_order: no plan found"
  in
  let best =
    match q.Spj.projections with
    | None -> best
    | Some items ->
      { best with
        Candidate.plan = Exec.Plan.Project (items, best.Candidate.plan);
        cost = best.Candidate.cost +. Cost.Cost_model.project ctx.cfg.params ~rows }
  in
  { best;
    card = stats.Stats.Derive.card;
    counters = counters_of ctx }

let optimize ?trace ?feedback ?config cat db (q : Spj.t) : result =
  let ctx, final = optimize_entry ?trace ?feedback ?config cat db q in
  finish ctx q final
