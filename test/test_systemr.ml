(* System-R optimizer tests: plan correctness by execution, DP = exhaustive
   best cost, interesting orders, bushy vs linear, Cartesian products. *)

open Relalg

let spj_of_pieces ?(projections = None) ?(order_by = [])
    (p : Workload.Schemas.join_pieces) : Systemr.Spj.t =
  Systemr.Spj.make ~projections ~order_by
    ~relations:
      (List.map
         (fun (alias, table) ->
            { Systemr.Spj.alias; table;
              schema =
                Schema.requalify
                  (Storage.Catalog.table p.Workload.Schemas.jcat table).Storage.Table.schema
                  ~rel:alias })
         p.Workload.Schemas.relations)
    ~predicates:p.Workload.Schemas.predicates ()

(* Hand-rolled reference plan: left-deep nested loops in declaration order,
   each predicate applied at the earliest point it becomes evaluable.
   Independent of the optimizer machinery. *)
let reference_plan (q : Systemr.Spj.t) : Exec.Plan.t =
  match q.Systemr.Spj.relations with
  | [] -> invalid_arg "reference_plan"
  | first :: rest ->
    let scan (r : Systemr.Spj.relation) =
      Exec.Plan.Seq_scan { table = r.Systemr.Spj.table; alias = r.Systemr.Spj.alias; filter = None }
    in
    let applicable aliases used =
      List.filter
        (fun p ->
           (not (List.memq p used))
           && Expr.relations p <> []
           && List.for_all (fun a -> List.mem a aliases) (Expr.relations p))
        q.Systemr.Spj.predicates
    in
    let start_preds = applicable [ first.Systemr.Spj.alias ] [] in
    let plan0 =
      match start_preds with
      | [] -> scan first
      | ps -> Exec.Plan.Filter (Pred.of_conjuncts ps, scan first)
    in
    let plan, _, used =
      List.fold_left
        (fun (plan, aliases, used) r ->
           let aliases' = aliases @ [ r.Systemr.Spj.alias ] in
           let ps = applicable aliases' used in
           ( Exec.Plan.Nested_loop
               { kind = Algebra.Inner; pred = Pred.of_conjuncts ps;
                 outer = plan; inner = scan r },
             aliases',
             used @ ps ))
        (plan0, [ first.Systemr.Spj.alias ], start_preds)
        rest
    in
    ignore used;
    match q.Systemr.Spj.projections with
    | None -> plan
    | Some items -> Exec.Plan.Project (items, plan)

let execute cat p = Exec.Executor.run cat p

let check_plan_correct name (pieces : Workload.Schemas.join_pieces) config =
  let q = spj_of_pieces pieces in
  let res = Systemr.Join_order.optimize ~config pieces.Workload.Schemas.jcat
      pieces.Workload.Schemas.jdb q in
  let optimized = execute pieces.Workload.Schemas.jcat res.Systemr.Join_order.best.Systemr.Candidate.plan in
  let reference = execute pieces.Workload.Schemas.jcat (reference_plan q) in
  Alcotest.(check bool) (name ^ ": plan produces correct result") true
    (Exec.Executor.same_multiset_modulo_columns optimized reference);
  res

let small_chain () = Workload.Schemas.join_shape ~rows:60 ~shape:Workload.Schemas.Chain_q ~n:4 ()
let small_star () = Workload.Schemas.join_shape ~rows:60 ~shape:Workload.Schemas.Star_q ~n:4 ()

let test_dp_correct_chain () =
  ignore (check_plan_correct "chain" (small_chain ()) Systemr.Join_order.default_config)

let test_dp_correct_star () =
  ignore (check_plan_correct "star" (small_star ()) Systemr.Join_order.default_config)

let test_dp_correct_bushy () =
  ignore
    (check_plan_correct "bushy chain" (small_chain ())
       { Systemr.Join_order.default_config with bushy = true })

let test_dp_correct_no_io () =
  ignore
    (check_plan_correct "no interesting orders" (small_chain ())
       { Systemr.Join_order.default_config with interesting_orders = false })

let test_dp_correct_with_indexes () =
  (* add indexes on join columns so index-NL and ordered scans participate *)
  let p = small_chain () in
  List.iter
    (fun (_, table) ->
       ignore
         (Storage.Catalog.create_index p.Workload.Schemas.jcat ~table ~column:"a" ()))
    p.Workload.Schemas.relations;
  ignore (check_plan_correct "with indexes" p Systemr.Join_order.default_config)

let test_dp_equals_naive () =
  (* same search space (left-deep, same methods): the DP must find the same
     best cost as exhaustive permutation enumeration *)
  List.iter
    (fun pieces ->
       let q = spj_of_pieces pieces in
       let config =
         { Systemr.Join_order.default_config with interesting_orders = true }
       in
       let dp = Systemr.Join_order.optimize ~config pieces.Workload.Schemas.jcat
           pieces.Workload.Schemas.jdb q in
       let naive = Systemr.Naive.optimize ~config pieces.Workload.Schemas.jcat
           pieces.Workload.Schemas.jdb q in
       Alcotest.(check (float 1e-6)) "same best cost"
         naive.Systemr.Naive.best.Systemr.Candidate.cost
         dp.Systemr.Join_order.best.Systemr.Candidate.cost)
    [ small_chain (); small_star () ]

let test_dp_cheaper_enumeration () =
  let pieces = Workload.Schemas.join_shape ~rows:30 ~shape:Workload.Schemas.Clique_q ~n:6 () in
  let q = spj_of_pieces pieces in
  let dp = Systemr.Join_order.optimize pieces.Workload.Schemas.jcat pieces.Workload.Schemas.jdb q in
  let naive = Systemr.Naive.optimize pieces.Workload.Schemas.jcat pieces.Workload.Schemas.jdb q in
  Alcotest.(check bool)
    (Printf.sprintf "dp costed %d < naive %d plans" dp.Systemr.Join_order.counters.Systemr.Join_order.costed
       naive.Systemr.Naive.plans_costed)
    true
    (dp.Systemr.Join_order.counters.Systemr.Join_order.costed < naive.Systemr.Naive.plans_costed)

let test_bushy_no_worse () =
  List.iter
    (fun pieces ->
       let q = spj_of_pieces pieces in
       let linear = Systemr.Join_order.optimize pieces.Workload.Schemas.jcat pieces.Workload.Schemas.jdb q in
       let bushy =
         Systemr.Join_order.optimize
           ~config:{ Systemr.Join_order.default_config with bushy = true }
           pieces.Workload.Schemas.jcat pieces.Workload.Schemas.jdb q
       in
       Alcotest.(check bool) "bushy best <= linear best" true
         (bushy.Systemr.Join_order.best.Systemr.Candidate.cost
          <= linear.Systemr.Join_order.best.Systemr.Candidate.cost +. 1e-6))
    [ small_chain (); small_star () ]

let test_interesting_orders_no_worse () =
  List.iter
    (fun pieces ->
       List.iter
         (fun (_, table) ->
            ignore
              (Storage.Catalog.create_index pieces.Workload.Schemas.jcat ~table
                 ~column:"a" ()))
         pieces.Workload.Schemas.relations;
       let q = spj_of_pieces pieces in
       let with_io = Systemr.Join_order.optimize pieces.Workload.Schemas.jcat pieces.Workload.Schemas.jdb q in
       let without =
         Systemr.Join_order.optimize
           ~config:{ Systemr.Join_order.default_config with interesting_orders = false }
           pieces.Workload.Schemas.jcat pieces.Workload.Schemas.jdb q
       in
       Alcotest.(check bool) "interesting orders never hurt" true
         (with_io.Systemr.Join_order.best.Systemr.Candidate.cost
          <= without.Systemr.Join_order.best.Systemr.Candidate.cost +. 1e-6))
    [ small_chain (); small_star () ]

let test_cross_products_no_worse () =
  let pieces = small_star () in
  let q = spj_of_pieces pieces in
  let no_cross = Systemr.Join_order.optimize pieces.Workload.Schemas.jcat pieces.Workload.Schemas.jdb q in
  let cross =
    Systemr.Join_order.optimize
      ~config:{ Systemr.Join_order.default_config with allow_cross = true; bushy = true }
      pieces.Workload.Schemas.jcat pieces.Workload.Schemas.jdb q
  in
  Alcotest.(check bool) "larger space never worse" true
    (cross.Systemr.Join_order.best.Systemr.Candidate.cost
     <= no_cross.Systemr.Join_order.best.Systemr.Candidate.cost +. 1e-6)

let test_disconnected_graph_still_plans () =
  (* two relations, no join predicate: needs the Cartesian rescue *)
  let pieces = Workload.Schemas.join_shape ~rows:20 ~shape:Workload.Schemas.Chain_q ~n:2 () in
  let pieces = { pieces with Workload.Schemas.predicates = [] } in
  let q = spj_of_pieces pieces in
  let res = Systemr.Join_order.optimize pieces.Workload.Schemas.jcat pieces.Workload.Schemas.jdb q in
  let out = execute pieces.Workload.Schemas.jcat res.Systemr.Join_order.best.Systemr.Candidate.plan in
  Alcotest.(check int) "cross product size" 400 (Array.length out.Exec.Executor.rows)

let test_order_by_enforced () =
  let pieces = small_chain () in
  let order_by = [ ({ Expr.rel = "R1"; col = "a" }, Algebra.Asc) ] in
  let q = spj_of_pieces ~order_by pieces in
  let res = Systemr.Join_order.optimize pieces.Workload.Schemas.jcat pieces.Workload.Schemas.jdb q in
  let out = execute pieces.Workload.Schemas.jcat res.Systemr.Join_order.best.Systemr.Candidate.plan in
  let schema = out.Exec.Executor.schema in
  let i = Schema.index_of schema ~rel:"R1" ~name:"a" in
  let keys = Array.to_list out.Exec.Executor.rows |> List.map (fun t -> Tuple.get t i) in
  Alcotest.(check bool) "output sorted" true
    (List.for_all2 Value.equal keys (List.sort Value.compare keys))

let test_projection_applied () =
  let pieces = small_chain () in
  let projections = Some [ (Expr.col ~rel:"R1" ~col:"a", "a1") ] in
  let q = spj_of_pieces ~projections pieces in
  let res = Systemr.Join_order.optimize pieces.Workload.Schemas.jcat pieces.Workload.Schemas.jdb q in
  let out = execute pieces.Workload.Schemas.jcat res.Systemr.Join_order.best.Systemr.Candidate.plan in
  Alcotest.(check int) "one column" 1 (Schema.arity out.Exec.Executor.schema)

(* property: for random small queries, DP (any config) produces plans with
   identical results to the reference *)
let prop_dp_always_correct =
  QCheck.Test.make ~name:"optimized plans always correct" ~count:15
    (QCheck.make
       QCheck.Gen.(
         pair (oneofl [ Workload.Schemas.Chain_q; Workload.Schemas.Star_q;
                        Workload.Schemas.Clique_q ])
           (pair (int_range 2 4) (int_range 1 1000))))
    (fun (shape, (n, seed)) ->
       let pieces = Workload.Schemas.join_shape ~seed ~rows:25 ~shape ~n () in
       let q = spj_of_pieces pieces in
       let res = Systemr.Join_order.optimize pieces.Workload.Schemas.jcat pieces.Workload.Schemas.jdb q in
       let optimized = execute pieces.Workload.Schemas.jcat res.Systemr.Join_order.best.Systemr.Candidate.plan in
       let reference = execute pieces.Workload.Schemas.jcat (reference_plan q) in
       Exec.Executor.same_multiset_modulo_columns optimized reference)

(* ------------------------------------------------------------------ *)
(* Subset statistics *)

(* The list-based subset statistics [Derive.join] built before it linked
   its inputs, kept as the reference: the concatenated column list with
   every distinct count capped at each derivation, and pages from the
   concatenated schema.  Selectivity is [Derive]'s own, read through one
   flat summary of the list. *)
type ref_stats = {
  card : float;
  schema : Schema.t;
  cols : (Stats.Derive.col_key * Stats.Table_stats.col_stats) list;
}

let flat (r : ref_stats) : Stats.Derive.rel_stats =
  { Stats.Derive.card = r.card; ndv_cap = infinity;
    width = Storage.Page.tuple_width r.schema;
    cols =
      Stats.Derive.Cols
        (r.schema, List.map (fun (k, cs) -> (k, Lazy.from_val cs)) r.cols) }

let cap_distinct card cols =
  let cap = Float.max 1. card in
  List.map
    (fun ((k, cs) as kc) ->
       let nd = Float.min cs.Stats.Table_stats.n_distinct cap in
       if Float.equal nd cs.Stats.Table_stats.n_distinct then kc
       else (k, { cs with Stats.Table_stats.n_distinct = nd }))
    cols

let ref_join (l : ref_stats) (r : ref_stats) pred : ref_stats =
  let combined =
    { card = l.card *. r.card; schema = Schema.concat l.schema r.schema;
      cols = l.cols @ r.cols }
  in
  let s = Stats.Derive.selectivity (flat combined) pred in
  let card = Float.max 0. (l.card *. r.card *. s) in
  let card =
    if
      List.exists
        (function Expr.Const (Value.Bool false) -> true | _ -> false)
        (Pred.conjuncts pred)
    then card
    else if combined.card > 0. then Float.max 1. card
    else Float.max 0. card
  in
  { combined with card; cols = cap_distinct card combined.cols }

let ref_find (r : ref_stats) rel col =
  let find rel =
    List.find_map
      (fun ((a, n), cs) -> if a = rel && n = col then Some cs else None)
      r.cols
  in
  match find rel with Some cs -> Some cs | None -> find ""

let bits = Int64.bits_of_float

(* Every subset's statistics, derived the way [stats_of] derives them
   (peel the highest relation), against the reference.  Returns the first
   mismatch. *)
let subset_stats_mismatch (ctx : Systemr.Join_order.ctx) =
  let n = Array.length ctx.Systemr.Join_order.rels in
  let base i =
    let s = ctx.Systemr.Join_order.base.(i).Systemr.Join_order.stats in
    { card = s.Stats.Derive.card; schema = Stats.Derive.schema s;
      cols = Stats.Derive.columns s }
  in
  let refs = Array.make (1 lsl n) None in
  let rec ref_of mask =
    match refs.(mask) with
    | Some r -> r
    | None ->
      let r =
        if mask land (mask - 1) = 0 then
          base (Systemr.Join_order.lowest_bit_index mask)
        else begin
          let top = ref 0 in
          while mask lsr (!top + 1) <> 0 do incr top done;
          let rest = mask land lnot (1 lsl !top) in
          ref_join (ref_of rest) (base !top)
            (Pred.of_conjuncts
               (Systemr.Join_order.crossing_preds ctx ~left:rest
                  ~right:(1 lsl !top)))
        end
      in
      refs.(mask) <- Some r;
      r
  in
  let check mask =
    let s = Systemr.Join_order.stats_of ctx mask and r = ref_of mask in
    let pages_ref =
      float_of_int
        (Storage.Page.pages_for ~rows:(int_of_float (Float.round r.card))
           r.schema)
    in
    if bits s.Stats.Derive.card <> bits r.card then Some "card"
    else if bits (Stats.Derive.pages s) <> bits pages_ref then Some "pages"
    else if List.map fst (Stats.Derive.columns s) <> List.map fst r.cols then
      Some "column order"
    else
      List.find_map
        (fun ((rel, col), _) ->
           let c = { Expr.rel; col } in
           match Stats.Derive.find_col s c, ref_find r rel col with
           | Some a, Some b
             when bits a.Stats.Table_stats.n_distinct
                  = bits b.Stats.Table_stats.n_distinct
                  && Option.equal ( == ) a.Stats.Table_stats.hist
                       b.Stats.Table_stats.hist ->
             None
           | _ -> Some (Printf.sprintf "column %s.%s" rel col))
        r.cols
  in
  let rec go mask =
    if mask >= 1 lsl n then None
    else
      match check mask with
      | Some what -> Some (Printf.sprintf "mask %d: %s" mask what)
      | None -> go (mask + 1)
  in
  go 1

let prop_subset_stats_match_reference =
  QCheck.Test.make ~name:"linked subset statistics = list-based reference"
    ~count:40
    (QCheck.make
       ~print:(fun (shape, (n, (seed, fs))) ->
           Printf.sprintf "%s n=%d seed=%d filters=[%s]"
             (match shape with
              | Workload.Schemas.Chain_q -> "chain"
              | Workload.Schemas.Cycle_q -> "cycle"
              | Workload.Schemas.Star_q -> "star"
              | Workload.Schemas.Clique_q -> "clique")
             n seed
             (String.concat "; "
                (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) fs)))
       QCheck.Gen.(
         pair
           (oneofl
              [ Workload.Schemas.Chain_q; Workload.Schemas.Cycle_q;
                Workload.Schemas.Star_q; Workload.Schemas.Clique_q ])
           (pair (int_range 2 7)
              (pair (int_range 1 1000)
                 (list_size (int_range 0 7)
                    (pair (int_range 0 3) (int_range 0 999)))))))
    (fun (shape, (n, (seed, fs))) ->
       let pieces = Workload.Schemas.join_shape ~seed ~rows:40 ~shape ~n () in
       (* filter kinds: none, c < v, a = v mod 9, b >= v mod 9 *)
       let filters =
         List.mapi
           (fun i (kind, v) ->
              let rel = Printf.sprintf "R%d" ((i mod n) + 1) in
              let cmp op col v =
                Some (Expr.Cmp (op, Expr.col ~rel ~col, Expr.int v))
              in
              match kind with
              | 1 -> cmp Expr.Lt "c" v
              | 2 -> cmp Expr.Eq "a" (v mod 9)
              | 3 -> cmp Expr.Ge "b" (v mod 9)
              | _ -> None)
           fs
         |> List.filter_map Fun.id
       in
       let pieces =
         { pieces with
           Workload.Schemas.predicates =
             pieces.Workload.Schemas.predicates @ filters }
       in
       let ctx =
         Systemr.Join_order.make_ctx Systemr.Join_order.default_config
           pieces.Workload.Schemas.jcat pieces.Workload.Schemas.jdb
           (spj_of_pieces pieces)
       in
       match subset_stats_mismatch ctx with
       | None -> true
       | Some what -> QCheck.Test.fail_report what)

(* A derivation links its inputs instead of copying their columns, so
   joining a ten-relation subset to one more relation allocates no more
   than joining two relations.  Both joins are one equi-join on a star's
   hub, each measured on a second run, once the histogram-join memo
   holds the edge. *)
let test_derive_join_words_flat () =
  let p =
    Workload.Schemas.join_shape ~rows:40 ~shape:Workload.Schemas.Star_q ~n:10 ()
  in
  let ctx =
    Systemr.Join_order.make_ctx Systemr.Join_order.default_config
      p.Workload.Schemas.jcat p.Workload.Schemas.jdb (spj_of_pieces p)
  in
  let words ~left ~top =
    let l = Systemr.Join_order.stats_of ctx left
    and r = ctx.Systemr.Join_order.base.(top).Systemr.Join_order.stats in
    let pred =
      Pred.of_conjuncts
        (Systemr.Join_order.crossing_preds ctx ~left ~right:(1 lsl top))
    in
    let join () =
      Stats.Derive.join ~join_memo:ctx.Systemr.Join_order.join_memo
        Algebra.Inner l r pred
    in
    ignore (join ());
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (join ()));
    Gc.minor_words () -. w0
  in
  let w2 = words ~left:1 ~top:1 and w10 = words ~left:((1 lsl 9) - 1) ~top:9 in
  Alcotest.(check bool)
    (Printf.sprintf "10 relations (%.0f words) <= 2 relations (%.0f words)"
       w10 w2)
    true (w10 <= w2)

(* Every conjunct lands in exactly one place: the local predicates of a
   single alias or the join predicates.  A constant conjunct goes to the
   first relation, a theta conjunct to the joins. *)
let test_spj_roundtrip () =
  let pieces = small_chain () in
  let q0 = spj_of_pieces pieces in
  let aliases = Systemr.Spj.relation_aliases q0 in
  let constant = Expr.Cmp (Expr.Eq, Expr.int 1, Expr.int 1) in
  let theta =
    match aliases with
    | a :: b :: _ ->
      Expr.Cmp (Expr.Lt, Expr.col ~rel:a ~col:"c", Expr.col ~rel:b ~col:"c")
    | _ -> Alcotest.fail "chain needs two relations"
  in
  let q =
    { q0 with
      Systemr.Spj.predicates = q0.Systemr.Spj.predicates @ [ constant; theta ] }
  in
  let count p l = List.length (List.filter (fun x -> x == p) l) in
  List.iter
    (fun p ->
       let local =
         List.map (fun a -> count p (Systemr.Spj.local_predicates q a)) aliases
       in
       let joins = count p (Systemr.Spj.join_predicates q) in
       Alcotest.(check int)
         (Fmt.str "%a placed once" Expr.pp p)
         1
         (List.fold_left ( + ) joins local))
    q.Systemr.Spj.predicates;
  Alcotest.(check int) "constant goes to the first relation" 1
    (count constant (Systemr.Spj.local_predicates q (List.hd aliases)));
  Alcotest.(check int) "theta conjunct joins" 1
    (count theta (Systemr.Spj.join_predicates q))

(* A filter on an alias the query does not join is an error naming the
   alias, not a conjunct silently dropped. *)
let test_spj_unknown_alias () =
  let q0 = spj_of_pieces (small_chain ()) in
  let stray = Expr.Cmp (Expr.Gt, Expr.col ~rel:"ghost" ~col:"c", Expr.int 0) in
  let q =
    { q0 with Systemr.Spj.predicates = q0.Systemr.Spj.predicates @ [ stray ] }
  in
  Alcotest.check_raises "unknown alias raises"
    (Invalid_argument "split_predicates: unknown relation ghost") (fun () ->
      ignore (Systemr.Spj.split_predicates q))

let test_counting_formulas () =
  Alcotest.(check int) "3! = 6" 6 (Systemr.Naive.linear_sequences 3);
  Alcotest.(check int) "6! = 720" 720 (Systemr.Naive.linear_sequences 6);
  (* DP extension count for n=3: C(3,1)*2 + C(3,2)*1 = 6+3 = 9 *)
  Alcotest.(check int) "dp n=3" 9 (Systemr.Naive.dp_extensions 3);
  Alcotest.(check bool) "dp grows much slower" true
    (Systemr.Naive.dp_extensions 8 < Systemr.Naive.linear_sequences 8)

let () =
  Alcotest.run "systemr"
    [ ("correctness",
       [ Alcotest.test_case "chain" `Quick test_dp_correct_chain;
         Alcotest.test_case "star" `Quick test_dp_correct_star;
         Alcotest.test_case "bushy" `Quick test_dp_correct_bushy;
         Alcotest.test_case "no interesting orders" `Quick test_dp_correct_no_io;
         Alcotest.test_case "with indexes" `Quick test_dp_correct_with_indexes;
         Alcotest.test_case "order by enforced" `Quick test_order_by_enforced;
         Alcotest.test_case "projection" `Quick test_projection_applied;
         Alcotest.test_case "disconnected graph" `Quick test_disconnected_graph_still_plans;
         QCheck_alcotest.to_alcotest prop_dp_always_correct ]);
      ("optimality",
       [ Alcotest.test_case "dp = naive best cost" `Quick test_dp_equals_naive;
         Alcotest.test_case "dp enumerates fewer plans" `Quick test_dp_cheaper_enumeration;
         Alcotest.test_case "bushy no worse" `Quick test_bushy_no_worse;
         Alcotest.test_case "interesting orders no worse" `Quick test_interesting_orders_no_worse;
         Alcotest.test_case "cross products no worse" `Quick test_cross_products_no_worse ]);
      ("spj",
       [ Alcotest.test_case "roundtrip" `Quick test_spj_roundtrip;
         Alcotest.test_case "unknown alias raises" `Quick test_spj_unknown_alias;
         Alcotest.test_case "counting formulas" `Quick test_counting_formulas ]);
      ("subset statistics",
       [ QCheck_alcotest.to_alcotest prop_subset_stats_match_reference;
         Alcotest.test_case "join words flat in columns" `Quick
           test_derive_join_words_flat ]) ]
