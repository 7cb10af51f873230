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
   pairs.  A greedy left-deep plan seeds a branch-and-bound upper bound:
   plan costs only grow as subplans compose, so a partial candidate dearer
   than a complete plan can be discarded — except that candidates carrying
   an interesting order are kept, exactly as Section 3.1 requires.

   [exhaustive] turns both refinements off: it is the pre-change
   enumerator, preserved as the equivalence oracle and benchmark baseline,
   and doubles as the cartesian rescue path for disconnected graphs. *)

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
  feedback : Stats.Feedback.t option;
      (* observed-cardinality cache consulted in [stats_of]; None = off *)
}

let default_config =
  { params = Cost.Cost_model.default_params;
    asm = Stats.Derive.default_assumption;
    allow_cross = false;
    interesting_orders = true;
    bushy = false;
    methods = [ Nl; Inl; Smj; Hj ];
    exhaustive = false;
    feedback = None }

(* The 1979 System-R repertoire: nested loop and sort-merge only, linear
   trees, no Cartesian products. *)
let system_r_1979 =
  { default_config with methods = [ Nl; Inl; Smj ] }

(* The pre-change search: every mask, every split, alias-list connectivity,
   no cost bound.  Same plan costs as the graph-aware search (a property
   test and the bench pre-check), just slower to find them. *)
let exhaustive c = { c with exhaustive = true }

type counters = {
  subsets : int; (* DP table entries created *)
  splits : int; (* (left, right) combinations considered *)
  costed : int; (* physical join candidates built and costed *)
  pruned : int; (* combinations / candidates dropped by the cost bound *)
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

type ctx = {
  cfg : config;
  cat : Storage.Catalog.t;
  db : Stats.Table_stats.db;
  rels : Spj.relation array;
  locals : Expr.t list array;
  join_preds : Expr.t list;
  pred_masks : (Expr.t * int) array;
      (* every join conjunct with the mask of relations it mentions *)
  neighbors : int array;
      (* per-relation adjacency mask over two-relation conjuncts *)
  hyper : int array;
      (* masks of conjuncts spanning >= 3 relations; these connect a
         partition only when fully contained in its union *)
  has_index : bool array;
  base : (Candidate.t list * Stats.Derive.rel_stats) array;
  stats_memo : (int, Stats.Derive.rel_stats) Hashtbl.t;
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

type entry = { stats : Stats.Derive.rel_stats; mutable cands : Candidate.t list }

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
   containment test below can never pass — matching the alias-list
   behavior this replaces. *)
let foreign_bit = 1 lsl 60

let make_ctx ?trace cfg cat db (q : Spj.t) : ctx =
  let rels = Array.of_list q.Spj.relations in
  let n = Array.length rels in
  if n > 60 then
    invalid_arg "Join_order: more than 60 relations in one block";
  let locals =
    Array.map (fun (r : Spj.relation) -> Spj.local_predicates q r.Spj.alias) rels
  in
  let base =
    Array.mapi
      (fun i r -> Access_path.candidates cfg.params cfg.asm cat db r locals.(i))
      rels
  in
  let bit_of = Hashtbl.create (max 8 n) in
  Array.iteri (fun i (r : Spj.relation) -> Hashtbl.replace bit_of r.Spj.alias i) rels;
  let join_preds = Spj.join_predicates q in
  let mask_of_pred p =
    List.fold_left
      (fun acc a ->
         match Hashtbl.find_opt bit_of a with
         | Some i -> acc lor (1 lsl i)
         | None -> acc lor foreign_bit)
      0 (Expr.relations p)
  in
  let pred_masks =
    Array.of_list (List.map (fun p -> (p, mask_of_pred p)) join_preds)
  in
  let neighbors = Array.make (max 1 n) 0 in
  let hyper = ref [] in
  Array.iter
    (fun (_, m) ->
       if m land foreign_bit = 0 then
         match popcount m with
         | 0 | 1 -> ()
         | 2 ->
           for i = 0 to n - 1 do
             if m land (1 lsl i) <> 0 then
               neighbors.(i) <- neighbors.(i) lor (m land lnot (1 lsl i))
           done
         | _ -> hyper := m :: !hyper)
    pred_masks;
  let has_index =
    Array.map
      (fun (r : Spj.relation) -> Storage.Catalog.indexes cat r.Spj.table <> [])
      rels
  in
  { cfg;
    cat;
    db;
    rels;
    locals;
    join_preds;
    pred_masks;
    neighbors;
    hyper = Array.of_list (List.rev !hyper);
    has_index;
    base;
    stats_memo = Hashtbl.create 64;
    join_memo = Stats.Histogram.join_memo ();
    trace;
    plans_costed = 0;
    splits_considered = 0;
    plans_pruned = 0;
    subsets_created = 0;
    memo_hits = 0 }

let emit ctx e =
  match ctx.trace with None -> () | Some sink -> sink (e ())

let aliases_of ctx mask =
  List.rev (fold_bits (fun acc i -> ctx.rels.(i).Spj.alias :: acc) [] mask)

(* Join conjuncts crossing the (left, right) partition and fully contained
   in their union — two [land]s per conjunct against precomputed masks. *)
let crossing_preds ctx ~left ~right =
  let union = left lor right in
  List.rev
    (Array.fold_left
       (fun acc (p, m) ->
          if m land left <> 0 && m land right <> 0 && m land lnot union = 0
          then p :: acc
          else acc)
       [] ctx.pred_masks)

(* Union of the neighbor masks of [mask]'s relations, minus [mask]. *)
let neighbor_mask ctx mask =
  fold_bits (fun acc i -> acc lor ctx.neighbors.(i)) 0 mask land lnot mask

(* Does any conjunct cross (m1, m2) while staying contained in the union?
   Binary conjuncts reduce to one adjacency [land]; hyperedges still need
   the containment check. *)
let connected_masks ctx m1 m2 =
  neighbor_mask ctx m1 land m2 <> 0
  || (ctx.hyper <> [||]
      &&
      let union = m1 lor m2 in
      Array.exists
        (fun hm ->
           hm land m1 <> 0 && hm land m2 <> 0 && hm land lnot union = 0)
        ctx.hyper)

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

(* The pre-change connectivity test — alias lists rebuilt and every
   conjunct scanned per check — kept verbatim as the measured baseline for
   [exhaustive]. *)
let legacy_connected ctx m1 m2 =
  let left_aliases = aliases_of ctx m1
  and right_aliases = aliases_of ctx m2 in
  List.exists
    (fun p ->
       let rels = Expr.relations p in
       List.exists (fun r -> List.mem r left_aliases) rels
       && List.exists (fun r -> List.mem r right_aliases) rels
       && List.for_all
            (fun r -> List.mem r left_aliases || List.mem r right_aliases)
            rels)
    ctx.join_preds

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
        (fun acc (p, m) ->
           if m land foreign_bit = 0 && m land mask = m && popcount m >= 2
           then Stats.Feedback.canon_pred p :: acc
           else acc)
        [] ctx.pred_masks
    in
    Some (Stats.Feedback.key ~shape:"spj" ~rels ~preds:(local_preds @ join_preds))
  end

(* Canonical subset statistics: peel the highest relation and join it to the
   rest — the result is independent of which plan produced the subset
   (statistics are a logical property, Section 5).  When a feedback cache
   is configured and holds a fresh actual for the subset's logical
   subexpression, the observed cardinality replaces the derived one. *)
let rec stats_of ctx mask : Stats.Derive.rel_stats =
  match Hashtbl.find_opt ctx.stats_memo mask with
  | Some s ->
    ctx.memo_hits <- ctx.memo_hits + 1;
    s
  | None ->
    let s =
      if mask = 0 then invalid_arg "stats_of: empty subset"
      else if mask land (mask - 1) = 0 then
        snd ctx.base.(lowest_bit_index mask)
      else begin
        let top = highest_bit_index mask in
        let rest = mask land lnot (1 lsl top) in
        let ls = stats_of ctx rest in
        let rs = snd ctx.base.(top) in
        let preds = crossing_preds ctx ~left:rest ~right:(1 lsl top) in
        Stats.Derive.join ~asm:ctx.cfg.asm ~join_memo:ctx.join_memo
          Algebra.Inner ls rs (Pred.of_conjuncts preds)
      end
    in
    let s =
      match ctx.cfg.feedback with
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
    Hashtbl.replace ctx.stats_memo mask s;
    s

(* ------------------------------------------------------------------ *)
(* Join candidate construction *)

let col_order pairs side =
  List.map (fun (l, r) -> ((if side = `L then l else r), Algebra.Asc)) pairs

(* Build all join candidates combining [left] (composite) with [right]
   (composite when bushy; [right_base] set when it is one base relation). *)
let join_cands ctx ~(left : entry) ~left_mask ~(right : entry) ~right_mask
    ~right_base ~(out_stats : Stats.Derive.rel_stats) : Candidate.t list =
  let p = ctx.cfg.params in
  let preds = crossing_preds ctx ~left:left_mask ~right:right_mask in
  let left_aliases = aliases_of ctx left_mask
  and right_aliases = aliases_of ctx right_mask in
  let pred_expr = Pred.of_conjuncts preds in
  let pairs, residual_list = Pred.equi_pairs ~left:left_aliases ~right:right_aliases preds in
  let residual = Pred.of_conjuncts residual_list in
  let lstats = left.stats and rstats = right.stats in
  let lrows = lstats.Stats.Derive.card and rrows = rstats.Stats.Derive.card in
  let lpages = Stats.Derive.pages lstats and rpages = Stats.Derive.pages rstats in
  let out_rows = out_stats.Stats.Derive.card in
  let count c = ctx.plans_costed <- ctx.plans_costed + 1; c in
  let nl_cands () =
    match Candidate.cheapest right.cands with
    | None -> []
    | Some rc ->
      List.filter_map
        (fun (lc : Candidate.t) ->
           let inner, rescan_cost =
             match right_base with
             | Some _ ->
               ( rc.Candidate.plan,
                 Cost.Cost_model.nested_loop p ~outer_rows:lrows
                   ~inner_rows:rrows ~inner_pages:rpages )
             | None ->
               ( Exec.Plan.Materialize rc.Candidate.plan,
                 p.Cost.Cost_model.cpu_tuple *. lrows *. rrows )
           in
           Some
             (count
                { Candidate.plan =
                    Exec.Plan.Nested_loop
                      { kind = Algebra.Inner; pred = pred_expr;
                        outer = lc.Candidate.plan; inner };
                  cost = lc.Candidate.cost +. rc.Candidate.cost +. rescan_cost;
                  order = lc.Candidate.order }))
        left.cands
  in
  let inl_cands () =
    match right_base with
    | None -> []
    | Some ri ->
      let rel = ctx.rels.(ri) in
      let base_table = Storage.Catalog.table ctx.cat rel.Spj.table in
      let base_rows = float_of_int (Storage.Table.row_count base_table) in
      let base_pages = float_of_int (Storage.Table.page_count base_table) in
      List.concat_map
        (fun (idx : Storage.Btree.t) ->
           (* longest prefix of the index key covered by equi-join pairs *)
           let rec covered cols =
             match cols with
             | [] -> []
             | c :: rest -> (
               match
                 List.find_opt
                   (fun ((_ : Expr.col_ref), r) -> r.Expr.col = c)
                   pairs
               with
               | Some (lcol, _) -> (c, lcol) :: covered rest
               | None -> [])
           in
           let cov = covered idx.Storage.Btree.columns in
           match cov with
           | [] -> []
           | _ ->
             let probe_cols = List.map fst cov in
             let other_pairs =
               List.filter
                 (fun (_, (r : Expr.col_ref)) ->
                    not (List.mem r.Expr.col probe_cols))
                 pairs
             in
             let residual_all =
               Pred.of_conjuncts
                 (List.map
                    (fun ((l : Expr.col_ref), (r : Expr.col_ref)) ->
                       Expr.Cmp (Expr.Eq, Expr.Col l, Expr.Col r))
                    other_pairs
                  @ residual_list @ ctx.locals.(ri))
             in
             let col_ndv c =
               match
                 Stats.Table_stats.find ctx.db rel.Spj.table
                 |> Fun.flip Option.bind (fun ts -> Stats.Table_stats.col ts c)
               with
               | Some cs -> Float.max 1. cs.Stats.Table_stats.n_distinct
               | None -> Float.max 1. base_rows
             in
             let ndv =
               if List.length probe_cols = List.length idx.Storage.Btree.columns
               then
                 (* full key: use the exact distinct-combinations statistic *)
                 Float.max 1. (float_of_int idx.Storage.Btree.distinct_keys)
               else
                 Float.min base_rows
                   (List.fold_left
                      (fun acc c -> acc *. col_ndv c)
                      1. probe_cols)
             in
             List.map
               (fun (lc : Candidate.t) ->
                  count
                    { Candidate.plan =
                        Exec.Plan.Index_nl
                          { kind = Algebra.Inner; outer = lc.Candidate.plan;
                            table = rel.Spj.table; alias = rel.Spj.alias;
                            index = idx.Storage.Btree.name;
                            columns = probe_cols;
                            outer_keys =
                              List.map (fun (_, l) -> Expr.Col l) cov;
                            residual = residual_all };
                      cost =
                        lc.Candidate.cost
                        +. Cost.Cost_model.index_nl p ~outer_rows:lrows
                             ~inner_rows:base_rows ~inner_pages:base_pages
                             ~matches_per_probe:(base_rows /. ndv)
                             ~clustered:idx.Storage.Btree.clustered;
                      order = lc.Candidate.order })
               left.cands)
        (Storage.Catalog.indexes ctx.cat rel.Spj.table)
  in
  let smj_cands () =
    if pairs = [] then []
    else
      let want_l = col_order pairs `L and want_r = col_order pairs `R in
      let lc =
        Candidate.cheapest_with_order ~params:p ~rows:lrows ~pages:lpages
          ~want:want_l left.cands
      and rc =
        Candidate.cheapest_with_order ~params:p ~rows:rrows ~pages:rpages
          ~want:want_r right.cands
      in
      match lc, rc with
      | Some lc, Some rc ->
        [ count
            { Candidate.plan =
                Exec.Plan.Merge_join
                  { kind = Algebra.Inner; pairs; residual;
                    left = lc.Candidate.plan; right = rc.Candidate.plan };
              cost =
                lc.Candidate.cost +. rc.Candidate.cost
                +. Cost.Cost_model.merge_join p ~left_rows:lrows
                     ~right_rows:rrows ~out_rows;
              order = lc.Candidate.order } ]
      | _ -> []
  in
  let hj_cands () =
    if pairs = [] then []
    else
      match Candidate.cheapest right.cands with
      | None -> []
      | Some rc ->
        List.map
          (fun (lc : Candidate.t) ->
             count
               { Candidate.plan =
                   Exec.Plan.Hash_join
                     { kind = Algebra.Inner; pairs; residual;
                       left = lc.Candidate.plan; right = rc.Candidate.plan };
                 cost =
                   lc.Candidate.cost +. rc.Candidate.cost
                   +. Cost.Cost_model.hash_join p ~left_rows:lrows
                        ~right_rows:rrows ~left_pages:lpages
                        ~right_pages:rpages ~out_rows;
                 order = lc.Candidate.order })
          left.cands
  in
  List.concat_map
    (fun m ->
       match m with
       | Nl -> nl_cands ()
       | Inl -> inl_cands ()
       | Smj -> smj_cands ()
       | Hj -> hj_cands ())
    ctx.cfg.methods

(* ------------------------------------------------------------------ *)
(* Enumeration *)

(* Insert candidates, dropping any whose accumulated cost already exceeds
   [bound] — unless it carries an interesting order, which must survive
   pruning: a dearer ordered subplan can still win globally once a sort
   enforcer is priced in above it (Section 3.1). *)
let insert_all ?(bound = infinity) ctx entry cands =
  List.iter
    (fun (c : Candidate.t) ->
       if c.Candidate.cost > bound then
         if ctx.cfg.interesting_orders && c.Candidate.order <> [] then begin
           emit ctx (fun () ->
               Obs.Trace.Order_retained
                 { order = Cost.Physical_props.to_string c.Candidate.order;
                   cost = c.Candidate.cost;
                   bound });
           entry.cands <-
             Candidate.insert ~interesting_orders:ctx.cfg.interesting_orders
               entry.cands c
         end
         else ctx.plans_pruned <- ctx.plans_pruned + 1
       else
         entry.cands <-
           Candidate.insert ~interesting_orders:ctx.cfg.interesting_orders
             entry.cands c)
    cands

let counters_of ctx =
  { subsets = ctx.subsets_created;
    splits = ctx.splits_considered;
    costed = ctx.plans_costed;
    pruned = ctx.plans_pruned }

(* Cost of [e]'s best candidate with the required output order and the
   final projection applied — the cost [finish] would report. *)
let finished_cost ctx (q : Spj.t) (e : entry) : float =
  let rows = e.stats.Stats.Derive.card
  and pages = Stats.Derive.pages e.stats in
  match
    Candidate.cheapest_with_order ~params:ctx.cfg.params ~rows ~pages
      ~want:q.Spj.order_by e.cands
  with
  | None -> infinity
  | Some c ->
    c.Candidate.cost
    +.
    (match q.Spj.projections with
     | None -> 0.
     | Some _ -> Cost.Cost_model.project ctx.cfg.params ~rows)

(* A complete greedy left-deep plan: start from the cheapest access path,
   repeatedly join the connected extension (all extensions under
   [allow_cross] or as the cartesian rescue) yielding the cheapest
   intermediate.  Its *finished* cost — output order and projection
   included — is a sound branch-and-bound upper bound, since costs only
   grow as subplans compose. *)
let greedy_upper_bound ctx (q : Spj.t) : float =
  let n = Array.length ctx.rels in
  let entry_of i =
    let cands, stats = ctx.base.(i) in
    { stats; cands }
  in
  let start = ref 0 and start_cost = ref infinity in
  for i = 0 to n - 1 do
    match Candidate.cheapest (fst ctx.base.(i)) with
    | Some c when c.Candidate.cost < !start_cost ->
      start := i;
      start_cost := c.Candidate.cost
    | _ -> ()
  done;
  let mask = ref (1 lsl !start) and current = ref (entry_of !start) in
  (try
     for _ = 2 to n do
       let exts =
         List.filter
           (fun i -> !mask land (1 lsl i) = 0)
           (List.init n Fun.id)
       in
       let conn =
         List.filter (fun i -> connected_masks ctx !mask (1 lsl i)) exts
       in
       let chosen = if ctx.cfg.allow_cross || conn = [] then exts else conn in
       let step =
         List.fold_left
           (fun acc i ->
              let rmask = 1 lsl i in
              let union = !mask lor rmask in
              let out = { stats = stats_of ctx union; cands = [] } in
              let cands =
                join_cands ctx ~left:!current ~left_mask:!mask
                  ~right:(entry_of i) ~right_mask:rmask ~right_base:(Some i)
                  ~out_stats:out.stats
              in
              insert_all ctx out cands;
              match Candidate.cheapest out.cands, acc with
              | None, _ -> acc
              | Some c, Some (_, _, bc) when c.Candidate.cost >= bc -> acc
              | Some c, _ -> Some (union, out, c.Candidate.cost))
           None chosen
       in
       match step with
       | None -> raise Exit
       | Some (union, out, _) ->
         mask := union;
         current := out
     done
   with Exit -> ());
  if !mask = (1 lsl n) - 1 then finished_cost ctx q !current else infinity

let optimize_entry ?trace ?(config = default_config) cat db (q : Spj.t) :
  ctx * entry =
  let ctx = make_ctx ?trace config cat db q in
  let n = Array.length ctx.rels in
  if n = 0 then invalid_arg "Join_order.optimize: no relations";
  let entries : (int, entry) Hashtbl.t = Hashtbl.create 64 in
  (* masks of each size, in creation order, for the left-deep pass *)
  let by_size = Array.make (n + 1) [] in
  let add mask e =
    Hashtbl.replace entries mask e;
    let k = popcount mask in
    by_size.(k) <- mask :: by_size.(k);
    ctx.subsets_created <- ctx.subsets_created + 1
  in
  for i = 0 to n - 1 do
    let cands, stats = ctx.base.(i) in
    add (1 lsl i) { stats; cands }
  done;
  let full = (1 lsl n) - 1 in
  let get mask = Hashtbl.find_opt entries mask in
  let ensure mask =
    match get mask with
    | Some e -> e
    | None ->
      let e = { stats = stats_of ctx mask; cands = [] } in
      add mask e;
      e
  in
  let gconn = graph_connected ctx in
  (* Branch-and-bound bound, with a little relative slack so a plan
     costing exactly the bound can never be pruned by a float tie.  The
     bound is a complete greedy *left-deep* plan; on a disconnected graph
     the bushy enumerator's per-subset cartesian rescue excludes some
     join-then-cross shapes left-deep extension allows, so the greedy plan
     can fall outside the bushy search space and under-cut its optimum —
     skip pruning there. *)
  let ub =
    if config.exhaustive || n <= 1 || (config.bushy && not gconn) then
      infinity
    else
      let u = greedy_upper_bound ctx q in
      if u = infinity then infinity else u +. Float.max 1e-6 (1e-9 *. u)
  in
  (* One (left, right) combination: count it, apply the pair-level lower
     bound — the cheapest cost any plan of this combination can have —
     then cost and insert.  Index nested loop charges probes rather than a
     scan of the inner side, so the inner's cost only counts when no index
     path exists. *)
  let consider ~(left : entry) ~left_mask ~(right : entry) ~right_mask
      ~right_base out =
    match Candidate.cheapest left.cands, Candidate.cheapest right.cands with
    | None, _ | _, None -> ()
    | Some lc, Some rc ->
      ctx.splits_considered <- ctx.splits_considered + 1;
      let right_may_be_free =
        match right_base with
        | Some i -> ctx.has_index.(i) && List.mem Inl ctx.cfg.methods
        | None -> false
      in
      let lb =
        if right_may_be_free then lc.Candidate.cost
        else lc.Candidate.cost +. rc.Candidate.cost
      in
      if lb > ub then begin
        ctx.plans_pruned <- ctx.plans_pruned + 1;
        emit ctx (fun () ->
            Obs.Trace.Prune
              { left_mask; right_mask; lower_bound = lb; bound = ub })
      end
      else
        insert_all ~bound:ub ctx out
          (join_cands ctx ~left ~left_mask ~right ~right_mask ~right_base
             ~out_stats:out.stats)
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
    let rels = List.init n Fun.id in
    for size = 1 to n - 1 do
      let masks = List.sort Int.compare by_size.(size) in
      at_level (size + 1) @@ fun () ->
      List.iter
        (fun mask ->
           let left = Hashtbl.find entries mask in
           let exts = List.filter (fun i -> mask land (1 lsl i) = 0) rels in
           let connected_exts =
             List.filter
               (fun i ->
                  if config.exhaustive then legacy_connected ctx mask (1 lsl i)
                  else connected_masks ctx mask (1 lsl i))
               exts
           in
           let chosen =
             if config.allow_cross then exts
             else if connected_exts <> [] then connected_exts
             else exts (* rescue: disconnected graph needs a cross product *)
           in
           List.iter
             (fun i ->
                let rmask = 1 lsl i in
                let right = Hashtbl.find entries rmask in
                let out = ensure (mask lor rmask) in
                consider ~left ~left_mask:mask ~right ~right_mask:rmask
                  ~right_base:(Some i) out)
             chosen)
        masks
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
      (* every subset, every split — the pre-change enumerator, reached
         under [exhaustive] (the measured baseline), under
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
            List.filter
              (fun (s1, s2) ->
                 if config.exhaustive then legacy_connected ctx s1 s2
                 else connected_masks ctx s1 s2)
              !splits
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
            misses = Hashtbl.length ctx.stats_memo });
     let hits, misses = Stats.Histogram.join_memo_stats ctx.join_memo in
     sink (Obs.Trace.Memo_stats { table = "hist_join"; hits; misses }));
  (ctx, Hashtbl.find entries full)

let finish ctx (q : Spj.t) (final : entry) : result =
  let stats = final.stats in
  let rows = stats.Stats.Derive.card and pages = Stats.Derive.pages stats in
  let best =
    match
      Candidate.cheapest_with_order ~params:ctx.cfg.params ~rows ~pages
        ~want:q.Spj.order_by final.cands
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

let optimize ?trace ?config cat db (q : Spj.t) : result =
  let ctx, final = optimize_entry ?trace ?config cat db q in
  finish ctx q final
