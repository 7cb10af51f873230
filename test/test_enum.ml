(* Graph-aware enumeration tests: the bitset-graph + csg–cmp enumerator
   must find exactly the same best cost, and cost exactly the same pairs
   and candidates, as the all-splits enumerator ([Join_order.exhaustive])
   on random acyclic and cyclic query graphs, across tree shapes and
   pruning-sensitive configs;
   plus fixed regressions (disconnected rescue, single relation, counter
   sanity), the sorted Pareto-frontier invariant of [Candidate.insert],
   and the frontier and the lazily priced sort enforcer checked step by
   step against the list fold and eager enforcer they replaced. *)

open Relalg

(* ------------------------------------------------------------------ *)
(* Random query graphs: T1..Tn (20 rows, columns a b), a random spanning
   tree of Tparent.b = Tchild.a edges; cyclic graphs add extra
   Ti.a = Tj.a edges.  Even-numbered tables get an index on a so index
   nested loops (whose candidates omit the inner scan cost) participate. *)

type graph_query = {
  cat : Storage.Catalog.t;
  db : Stats.Table_stats.db;
  query : Systemr.Spj.t;
}

let name_of i = Printf.sprintf "T%d" (i + 1)

let random_graph ?(rows = 20) ~seed ~cyclic ~n () : graph_query =
  let st = Workload.Gen.rng seed in
  let cat = Storage.Catalog.create () in
  for i = 0 to n - 1 do
    let t =
      Storage.Catalog.create_table cat ~name:(name_of i)
        ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
    in
    for _ = 1 to rows do
      Storage.Table.insert t
        (Tuple.of_list
           [ Value.Int (Workload.Gen.uniform_int st ~lo:0 ~hi:5);
             Value.Int (Workload.Gen.uniform_int st ~lo:0 ~hi:5) ])
    done;
    if i mod 2 = 0 then
      ignore (Storage.Catalog.create_index cat ~table:(name_of i) ~column:"a" ())
  done;
  let col rel c = Expr.Col { Expr.rel; col = c } in
  let eq a b = Expr.Cmp (Expr.Eq, a, b) in
  let tree =
    List.init (n - 1) (fun i ->
        let child = i + 1 in
        let parent = Workload.Gen.uniform_int st ~lo:0 ~hi:i in
        eq (col (name_of parent) "b") (col (name_of child) "a"))
  in
  let extra =
    if not cyclic || n < 3 then []
    else
      List.init (1 + (n / 3)) (fun _ ->
          let i = Workload.Gen.uniform_int st ~lo:0 ~hi:(n - 2) in
          let j = Workload.Gen.uniform_int st ~lo:(i + 1) ~hi:(n - 1) in
          eq (col (name_of i) "a") (col (name_of j) "a"))
  in
  let query =
    Systemr.Spj.make
      ~relations:
        (List.init n (fun i ->
             { Systemr.Spj.alias = name_of i; table = name_of i;
               schema =
                 Schema.requalify
                   (Storage.Catalog.table cat (name_of i)).Storage.Table.schema
                   ~rel:(name_of i) }))
      ~predicates:(tree @ extra) ()
  in
  { cat; db = Stats.Table_stats.analyze_catalog cat; query }

(* ------------------------------------------------------------------ *)
(* Fast = exhaustive across the pruning-sensitive config grid *)

let configs =
  List.concat_map
    (fun bushy ->
       List.map
         (fun interesting_orders ->
            ( Printf.sprintf "%s io=%b"
                (if bushy then "bushy" else "left-deep")
                interesting_orders,
              { Systemr.Join_order.default_config with
                bushy; interesting_orders } ))
         [ true; false ])
    [ false; true ]

let costs_match cf cs = Float.abs (cf -. cs) <= 1e-6 *. Float.max 1. cs

(* csg–cmp pairing and the all-splits walk cost the same (left, right)
   pairs on a connected graph: the walk's other splits have a side with
   no candidates and are skipped uncounted. *)
let same_effort (a : Systemr.Join_order.counters)
    (b : Systemr.Join_order.counters) =
  a.Systemr.Join_order.splits = b.Systemr.Join_order.splits
  && a.Systemr.Join_order.costed = b.Systemr.Join_order.costed

let equiv_ok (g : graph_query) =
  List.for_all
    (fun (_, config) ->
       let fast = Systemr.Join_order.optimize ~config g.cat g.db g.query in
       let slow =
         Systemr.Join_order.optimize
           ~config:(Systemr.Join_order.exhaustive config) g.cat g.db g.query
       in
       costs_match fast.Systemr.Join_order.best.Systemr.Candidate.cost
         slow.Systemr.Join_order.best.Systemr.Candidate.cost
       && same_effort fast.Systemr.Join_order.counters
            slow.Systemr.Join_order.counters)
    configs

let check_equiv name (g : graph_query) =
  List.iter
    (fun (cfg_name, config) ->
       let fast = Systemr.Join_order.optimize ~config g.cat g.db g.query in
       let slow =
         Systemr.Join_order.optimize
           ~config:(Systemr.Join_order.exhaustive config) g.cat g.db g.query
       in
       let cf = fast.Systemr.Join_order.best.Systemr.Candidate.cost
       and cs = slow.Systemr.Join_order.best.Systemr.Candidate.cost in
       Alcotest.(check bool)
         (Printf.sprintf "%s %s: fast %.4f = exhaustive %.4f" name cfg_name
            cf cs)
         true (costs_match cf cs);
       Alcotest.(check bool)
         (Printf.sprintf "%s %s: same splits and costed" name cfg_name)
         true
         (same_effort fast.Systemr.Join_order.counters
            slow.Systemr.Join_order.counters))
    configs

let prop_fast_equals_exhaustive =
  QCheck.Test.make ~name:"graph-aware = exhaustive best cost and effort"
    ~count:10
    (QCheck.make
       QCheck.Gen.(pair bool (pair (int_range 2 7) (int_range 1 1000))))
    (fun (cyclic, (n, seed)) ->
       equiv_ok (random_graph ~seed ~cyclic ~n ()))

let test_acyclic_8 () =
  check_equiv "acyclic n=8" (random_graph ~seed:5 ~cyclic:false ~n:8 ())

let test_cyclic_8 () =
  check_equiv "cyclic n=8" (random_graph ~seed:9 ~cyclic:true ~n:8 ())

(* ------------------------------------------------------------------ *)
(* Fixed regressions *)

(* Three relations, one edge: the query graph is disconnected, so the
   enumeration must fall back to the Cartesian rescue — and still agree
   with the exhaustive enumerator on cost and produce the same rows. *)
let test_disconnected_rescue () =
  let g = random_graph ~seed:3 ~cyclic:false ~n:3 () in
  let query =
    { g.query with
      Systemr.Spj.predicates = [ List.hd g.query.Systemr.Spj.predicates ] }
  in
  let g = { g with query } in
  check_equiv "disconnected" g;
  let rows config =
    let res = Systemr.Join_order.optimize ~config g.cat g.db g.query in
    let out =
      Exec.Executor.run g.cat res.Systemr.Join_order.best.Systemr.Candidate.plan
    in
    Array.length out.Exec.Executor.rows
  in
  let config = { Systemr.Join_order.default_config with bushy = true } in
  Alcotest.(check int) "same result cardinality"
    (rows (Systemr.Join_order.exhaustive config))
    (rows config)

let test_single_relation () =
  let g = random_graph ~seed:1 ~cyclic:false ~n:1 () in
  let res = Systemr.Join_order.optimize g.cat g.db g.query in
  let out =
    Exec.Executor.run g.cat res.Systemr.Join_order.best.Systemr.Candidate.plan
  in
  Alcotest.(check int) "all rows" 20 (Array.length out.Exec.Executor.rows);
  Alcotest.(check bool) "finite cost" true
    (Float.is_finite res.Systemr.Join_order.best.Systemr.Candidate.cost)

let spj_of_pieces (p : Workload.Schemas.join_pieces) =
  Systemr.Spj.make
    ~relations:
      (List.map
         (fun (alias, table) ->
            { Systemr.Spj.alias; table;
              schema =
                Schema.requalify
                  (Storage.Catalog.table p.Workload.Schemas.jcat table)
                    .Storage.Table.schema ~rel:alias })
         p.Workload.Schemas.relations)
    ~predicates:p.Workload.Schemas.predicates ()

(* Chain, cycle and star of 8 and clique of 6, left-deep and bushy: the
   graph-aware enumerator costs exactly the splits and candidates of the
   exhaustive walk, and bushy on the chain
   creates exactly the n(n+1)/2 = 36 connected-interval DP entries. *)
let test_counters_sane () =
  let module J = Systemr.Join_order in
  List.iter
    (fun (shape, shape_name, n) ->
       let p = Workload.Schemas.join_shape ~rows:60 ~shape ~n () in
       let q = spj_of_pieces p in
       List.iter
         (fun bushy ->
            let config = { J.default_config with bushy } in
            let opt config =
              (J.optimize ~config p.Workload.Schemas.jcat
                 p.Workload.Schemas.jdb q)
                .J.counters
            in
            let fast = opt config and slow = opt (J.exhaustive config) in
            let label what =
              Printf.sprintf "%s n=%d %s: %s" shape_name n
                (if bushy then "bushy" else "left-deep")
                what
            in
            Alcotest.(check int) (label "splits = exhaustive")
              slow.J.splits fast.J.splits;
            Alcotest.(check int) (label "costed = exhaustive")
              slow.J.costed fast.J.costed;
            if bushy && shape = Workload.Schemas.Chain_q then
              Alcotest.(check int) (label "36 connected intervals") 36
                fast.J.subsets)
         [ false; true ])
    Workload.Schemas.
      [ (Chain_q, "chain", 8); (Cycle_q, "cycle", 8); (Star_q, "star", 8);
        (Clique_q, "clique", 6) ]

(* Star of 10: the histogram-join memo computes each of the 9 edges once
   and serves every other subset containing the edge from the memo; the
   full-set estimate matches a memo-free derivation bit for bit. *)
let test_hist_join_memo () =
  let p =
    Workload.Schemas.join_shape ~rows:60 ~shape:Workload.Schemas.Star_q ~n:10 ()
  in
  let q = spj_of_pieces p in
  let events = ref [] in
  let ctx, final =
    Systemr.Join_order.optimize_entry
      ~trace:(fun e -> events := e :: !events)
      p.Workload.Schemas.jcat p.Workload.Schemas.jdb q
  in
  (match
     List.find_map
       (function
         | Obs.Trace.Memo_stats { table = "hist_join"; hits; misses } ->
           Some (hits, misses)
         | _ -> None)
       !events
   with
   | None -> Alcotest.fail "no hist_join memo event"
   | Some (hits, misses) ->
     Alcotest.(check int) "one miss per edge" 9 misses;
     Alcotest.(check bool) (Printf.sprintf "hits (%d) > 0" hits) true
       (hits > 0));
  (* [stats_of]'s canonical derivation — add the highest relation to the
     rest — without the memo *)
  let n = Array.length ctx.Systemr.Join_order.rels in
  let derived = ref ctx.Systemr.Join_order.base.(0).Systemr.Join_order.stats in
  for top = 1 to n - 1 do
    let preds =
      Systemr.Join_order.crossing_preds ctx ~left:((1 lsl top) - 1)
        ~right:(1 lsl top)
    in
    derived :=
      Stats.Derive.join Algebra.Inner !derived
        ctx.Systemr.Join_order.base.(top).Systemr.Join_order.stats
        (Pred.of_conjuncts preds)
  done;
  Alcotest.(check int64) "full-set estimate unchanged by the memo"
    (Int64.bits_of_float !derived.Stats.Derive.card)
    (Int64.bits_of_float final.Systemr.Join_order.stats.Stats.Derive.card)

(* ------------------------------------------------------------------ *)
(* Candidate frontier invariant: sorted by ascending cost, an antichain
   under dominance, and the overall minimum cost always survives. *)

let dummy_plan = Exec.Plan.Seq_scan { table = "T"; alias = "T"; filter = None }

let orders_pool : Cost.Physical_props.order list =
  let a = { Expr.rel = "R"; col = "a" } and b = { Expr.rel = "R"; col = "b" } in
  [ []; [ (a, Algebra.Asc) ]; [ (a, Algebra.Asc); (b, Algebra.Asc) ];
    [ (b, Algebra.Desc) ] ]

(* Insert a stream into an empty frontier; its cost-sorted list. *)
let frontier_of ~interesting_orders cands =
  let f = Systemr.Candidate.frontier [] in
  List.iter (Systemr.Candidate.insert ~interesting_orders f) cands;
  f.Systemr.Candidate.cands

(* [a] dominates [b]: no dearer, and at least as strong an order. *)
let dominates (a : Systemr.Candidate.t) (b : Systemr.Candidate.t) =
  a.Systemr.Candidate.cost <= b.Systemr.Candidate.cost
  && Cost.Physical_props.satisfies ~have:a.Systemr.Candidate.order
       ~want:b.Systemr.Candidate.order

let prop_frontier_invariant =
  QCheck.Test.make ~name:"Candidate.insert keeps a sorted Pareto frontier"
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 12)
           (pair (int_range 0 50) (int_range 0 (List.length orders_pool - 1)))))
    (fun specs ->
       let cands =
         List.map
           (fun (c, oi) ->
              { Systemr.Candidate.plan = dummy_plan;
                cost = float_of_int c;
                order = List.nth orders_pool oi })
           specs
       in
       let frontier = frontier_of ~interesting_orders:true cands in
       let rec sorted = function
         | a :: (b :: _ as rest) ->
           a.Systemr.Candidate.cost <= b.Systemr.Candidate.cost && sorted rest
         | _ -> true
       in
       let antichain =
         List.for_all
           (fun c ->
              List.for_all (fun c' -> c == c' || not (dominates c' c)) frontier)
           frontier
       in
       let min_cost =
         List.fold_left
           (fun m c -> Float.min m c.Systemr.Candidate.cost) infinity cands
       in
       let head_is_min =
         match Systemr.Candidate.cheapest frontier with
         | Some c -> c.Systemr.Candidate.cost = min_cost
         | None -> false
       in
       sorted frontier && antichain && head_is_min)

(* The single-pass list insertion the indexed frontier replaced, kept
   verbatim as the reference. *)
let reference_insert ~interesting_orders (cands : Systemr.Candidate.t list)
    (c : Systemr.Candidate.t) =
  let open Systemr.Candidate in
  if not interesting_orders then
    match cands with
    | [] -> [ c ]
    | best :: _ -> if c.cost < best.cost then [ c ] else cands
  else
    let rec go acc = function
      | c' :: rest when c'.cost <= c.cost ->
        if Cost.Physical_props.satisfies ~have:c'.order ~want:c.order then
          cands
        else if
          c'.cost = c.cost
          && Cost.Physical_props.satisfies ~have:c.order ~want:c'.order
        then go acc rest
        else go (c' :: acc) rest
      | rest ->
        let rest' =
          List.filter
            (fun c' ->
               not (Cost.Physical_props.satisfies ~have:c.order ~want:c'.order))
            rest
        in
        List.rev_append acc (c :: rest')
    in
    go [] cands

(* The eager enforcer: the Sort plan is built before the comparison. *)
let reference_cheapest_with_order ~params ~rows ~pages ~want
    (cands : Systemr.Candidate.t list) =
  let open Systemr.Candidate in
  let direct =
    List.find_opt
      (fun c -> Cost.Physical_props.satisfies ~have:c.order ~want)
      cands
  in
  let enforced =
    match cheapest cands with
    | None -> None
    | Some c ->
      let keys =
        List.map
          (fun ((col : Expr.col_ref), d) ->
             { Exec.Plan.key = Expr.Col col;
               descending = (d = Algebra.Desc) })
          want
      in
      Some
        { plan = Exec.Plan.Sort (keys, c.plan);
          cost = c.cost +. Cost.Cost_model.sort params ~pages ~rows;
          order = want }
  in
  match direct, enforced with
  | None, x | x, None -> x
  | Some d, Some e -> Some (if d.cost <= e.cost then d else e)

(* Every order of up to three keys over R.a, R.b, R.b DESC and S.c — 85
   orders, many of them prefixes of others, so long streams grow
   frontiers past the size at which they switch to the order trie. *)
let wide_orders : Cost.Physical_props.order array =
  let keys =
    [ ({ Expr.rel = "R"; col = "a" }, Algebra.Asc);
      ({ Expr.rel = "R"; col = "b" }, Algebra.Asc);
      ({ Expr.rel = "R"; col = "b" }, Algebra.Desc);
      ({ Expr.rel = "S"; col = "c" }, Algebra.Asc) ]
  in
  let rec of_len n =
    if n = 0 then [ [] ]
    else List.concat_map (fun o -> List.map (fun k -> k :: o) keys) (of_len (n - 1))
  in
  Array.of_list (List.concat_map of_len [ 0; 1; 2; 3 ])

(* Streams with many equal costs, orders that are prefixes of one
   another, and the odd infinite or NaN cost (a sort enforcer over an
   empty input prices at NaN); each candidate's plan names its position in
   the stream, so the comparison sees which candidate survived, not just
   its cost.  Short streams over four orders, or long ones over all. *)
let stream_gen =
  QCheck.make
    ~print:(fun (wide, l) ->
        Printf.sprintf "wide=%b %s" wide
          (String.concat "; "
             (List.map (fun (c, o) -> Printf.sprintf "(%d,%d)" c o) l)))
    QCheck.Gen.(
      bool >>= fun wide ->
      let orders = if wide then Array.length wide_orders else 4 in
      list_size
        (if wide then int_range 0 150 else int_range 0 16)
        (pair (int_range 0 (if wide then 41 else 7)) (int_range 0 (orders - 1)))
      >|= fun l -> (wide, l))

let stream_of (wide, specs) =
  let top = if wide then 41 else 7 in
  List.mapi
    (fun i (c, oi) ->
       { Systemr.Candidate.plan =
           Exec.Plan.Seq_scan
             { table = string_of_int i; alias = "T"; filter = None };
         cost =
           (if c = top then Float.nan
            else if c = top - 1 then infinity
            else float_of_int c);
         order =
           (if wide then wide_orders.(oi) else List.nth orders_pool oi) })
    specs

(* Structural equality that treats NaN costs as equal. *)
let same_cands (a : Systemr.Candidate.t list) (b : Systemr.Candidate.t list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Systemr.Candidate.t) (y : Systemr.Candidate.t) ->
          x.Systemr.Candidate.plan = y.Systemr.Candidate.plan
          && Float.equal x.Systemr.Candidate.cost y.Systemr.Candidate.cost
          && x.Systemr.Candidate.order = y.Systemr.Candidate.order)
       a b

let prop_frontier_matches_reference =
  QCheck.Test.make ~name:"dominated + add = reference insert" ~count:500
    (QCheck.pair QCheck.bool stream_gen)
    (fun (interesting_orders, specs) ->
       let cands = stream_of specs in
       let expected =
         List.fold_left (reference_insert ~interesting_orders) [] cands
       in
       (* every prefix of the stream: the verdict of [dominated] and the
          resulting list agree with the reference at each step *)
       let f = Systemr.Candidate.frontier [] in
       let _, agree =
         List.fold_left
           (fun (reference, ok) (c : Systemr.Candidate.t) ->
              let reference' = reference_insert ~interesting_orders reference c in
              let rejected =
                Systemr.Candidate.dominated ~interesting_orders f
                  ~cost:c.Systemr.Candidate.cost
                  ~order:c.Systemr.Candidate.order
              in
              if not rejected then Systemr.Candidate.add ~interesting_orders f c;
              ( reference',
                ok
                && rejected = (reference' == reference)
                && same_cands reference' f.Systemr.Candidate.cands ))
           ([], true) cands
       in
       (* a frontier rebuilt from another's list carries on the same *)
       let evens = List.filteri (fun i _ -> i mod 2 = 0) cands
       and odds = List.filteri (fun i _ -> i mod 2 = 1) cands in
       let rebuilt =
         Systemr.Candidate.frontier (frontier_of ~interesting_orders evens)
       in
       List.iter (Systemr.Candidate.insert ~interesting_orders rebuilt) odds;
       agree
       && same_cands expected (frontier_of ~interesting_orders cands)
       && same_cands rebuilt.Systemr.Candidate.cands
            (List.fold_left (reference_insert ~interesting_orders) []
               (evens @ odds)))

(* Row counts below one give the sort enforcer a negative cost, so it can
   beat an already-ordered head; both versions must agree there too. *)
let prop_lazy_enforcer_matches_eager =
  QCheck.Test.make ~name:"lazily priced enforcer = eager enforcer" ~count:500
    (QCheck.triple stream_gen
       (QCheck.int_range 0 (Array.length wide_orders - 1))
       (QCheck.pair (QCheck.int_range 0 4000) (QCheck.int_range 0 300)))
    (fun (specs, wi, (rows10, pages)) ->
       let frontier =
         List.fold_left
           (reference_insert ~interesting_orders:true) [] (stream_of specs)
       in
       let params = Cost.Cost_model.default_params
       and rows = float_of_int rows10 /. 10.
       and pages = float_of_int pages
       and want = wide_orders.(wi) in
       match
         ( reference_cheapest_with_order ~params ~rows ~pages ~want frontier,
           Systemr.Candidate.cheapest_with_order ~params ~rows ~pages ~want
             frontier )
       with
       | None, None -> true
       | Some a, Some b -> same_cands [ a ] [ b ]
       | _ -> false)

let () =
  Alcotest.run "enum"
    [ ("equivalence",
       [ QCheck_alcotest.to_alcotest prop_fast_equals_exhaustive;
         Alcotest.test_case "acyclic n=8" `Quick test_acyclic_8;
         Alcotest.test_case "cyclic n=8" `Quick test_cyclic_8 ]);
      ("regressions",
       [ Alcotest.test_case "disconnected rescue" `Quick
           test_disconnected_rescue;
         Alcotest.test_case "single relation" `Quick test_single_relation;
         Alcotest.test_case "counters sane" `Quick test_counters_sane;
         Alcotest.test_case "hist_join memo" `Quick test_hist_join_memo ]);
      ("frontier",
       [ QCheck_alcotest.to_alcotest prop_frontier_invariant;
         QCheck_alcotest.to_alcotest prop_frontier_matches_reference;
         QCheck_alcotest.to_alcotest prop_lazy_enforcer_matches_eager ]) ]
