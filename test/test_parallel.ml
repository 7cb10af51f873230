(* Two-phase parallel optimization tests: segment decomposition, speedup
   behaviour, communication-aware partitioning; nested queries agree
   across dop, estimator and lint. *)

open Relalg

let star_plan () =
  (* a 3-dim star join plan with hash joins (build = dimensions) *)
  let w = Workload.Schemas.star ~fact_rows:20000 ~dim_rows:50 ~dims:3 () in
  let scan t = Exec.Plan.Seq_scan { table = t; alias = t; filter = None } in
  let jp dim =
    ( { Expr.rel = "Sales"; col = String.lowercase_ascii dim ^ "_id" },
      { Expr.rel = dim; col = "id" } )
  in
  let plan =
    List.fold_left
      (fun acc dim ->
         Exec.Plan.Hash_join
           { kind = Algebra.Inner; pairs = [ jp dim ]; residual = Expr.ftrue;
             left = acc; right = scan dim })
      (scan "Sales") w.Workload.Schemas.dims
  in
  (w, plan)

let test_decomposition () =
  let w, plan = star_plan () in
  let segs =
    Parallel.Two_phase.decompose Parallel.Two_phase.default_config
      w.Workload.Schemas.cat w.Workload.Schemas.db plan
  in
  (* 3 build segments + 1 probe pipeline *)
  Alcotest.(check int) "segments" 4 (List.length segs);
  let final = List.nth segs 3 in
  Alcotest.(check int) "probe depends on all builds" 3
    (List.length final.Parallel.Two_phase.deps);
  Alcotest.(check bool) "work positive" true
    (List.for_all (fun s -> s.Parallel.Two_phase.work > 0.) segs)

let test_speedup_monotone_and_saturating () =
  let w, plan = star_plan () in
  let response p =
    (Parallel.Two_phase.run
       ~config:{ Parallel.Two_phase.default_config with processors = p }
       w.Workload.Schemas.cat w.Workload.Schemas.db plan).Parallel.Two_phase.response_time
  in
  let r1 = response 1 and r4 = response 4 and r16 = response 16
  and r256 = response 256 in
  Alcotest.(check bool) "more processors never slower" true
    (r4 <= r1 +. 1e-9 && r16 <= r4 +. 1e-9 && r256 <= r16 +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "speedup at 4: %.2f" (r1 /. r4))
    true (r1 /. r4 > 1.5);
  (* parallelism caps: speedup saturates well below 256x *)
  Alcotest.(check bool)
    (Printf.sprintf "saturates: %.1fx at 256 procs" (r1 /. r256))
    true (r1 /. r256 < 256.)

let test_parallel_increases_total_work_not_response () =
  (* response <= work at 1 processor; with p processors response shrinks
     while total work stays the same (the paper's footnote 5) *)
  let w, plan = star_plan () in
  let s1 =
    Parallel.Two_phase.run
      ~config:{ Parallel.Two_phase.default_config with processors = 1 }
      w.Workload.Schemas.cat w.Workload.Schemas.db plan
  in
  let s8 =
    Parallel.Two_phase.run
      ~config:{ Parallel.Two_phase.default_config with processors = 8 }
      w.Workload.Schemas.cat w.Workload.Schemas.db plan
  in
  Alcotest.(check (float 1e-6)) "same total work"
    s1.Parallel.Two_phase.total_work s8.Parallel.Two_phase.total_work;
  Alcotest.(check bool) "response shrinks" true
    (s8.Parallel.Two_phase.response_time < s1.Parallel.Two_phase.response_time)

let test_partition_awareness_helps () =
  (* chain of hash joins all on the same key: partition-aware phase 2 reuses
     the partitioning; the oblivious one repartitions at every join *)
  let p = Workload.Schemas.join_shape ~rows:5000 ~shape:Workload.Schemas.Star_q ~n:4 () in
  let scan t = Exec.Plan.Seq_scan { table = t; alias = t; filter = None } in
  let pair l r = ({ Expr.rel = l; col = "a" }, { Expr.rel = r; col = "a" }) in
  let plan =
    Exec.Plan.Hash_join
      { kind = Algebra.Inner; pairs = [ pair "R1" "R4" ]; residual = Expr.ftrue;
        left =
          Exec.Plan.Hash_join
            { kind = Algebra.Inner; pairs = [ pair "R1" "R3" ];
              residual = Expr.ftrue;
              left =
                Exec.Plan.Hash_join
                  { kind = Algebra.Inner; pairs = [ pair "R1" "R2" ];
                    residual = Expr.ftrue; left = scan "R1"; right = scan "R2" };
              right = scan "R3" };
        right = scan "R4" }
  in
  let run aware =
    Parallel.Two_phase.run
      ~config:
        { Parallel.Two_phase.processors = 8; partition_aware = aware }
      p.Workload.Schemas.jcat p.Workload.Schemas.jdb plan
  in
  let aware = run true and naive = run false in
  Alcotest.(check bool)
    (Printf.sprintf "comm: aware %.1f < naive %.1f"
       aware.Parallel.Two_phase.comm_cost naive.Parallel.Two_phase.comm_cost)
    true
    (aware.Parallel.Two_phase.comm_cost < naive.Parallel.Two_phase.comm_cost);
  Alcotest.(check bool) "response no worse" true
    (aware.Parallel.Two_phase.response_time
     <= naive.Parallel.Two_phase.response_time +. 1e-9)

let test_blocking_operators_segment () =
  let w, _ = star_plan () in
  let scan = Exec.Plan.Seq_scan { table = "Sales"; alias = "Sales"; filter = None } in
  let sorted =
    Exec.Plan.Sort
      ([ { Exec.Plan.key = Expr.col ~rel:"Sales" ~col:"amount";
           descending = false } ], scan)
  in
  let segs =
    Parallel.Two_phase.decompose Parallel.Two_phase.default_config
      w.Workload.Schemas.cat w.Workload.Schemas.db sorted
  in
  (* scan pipeline closed by the sort; sort is its own segment *)
  Alcotest.(check int) "two segments" 2 (List.length segs)

(* A plan over tables with no statistics: the schedule falls back to
   the tables' row counts, so every node still gets a dop. *)
let test_node_dop_without_stats () =
  let w, star = star_plan () in
  let cat = w.Workload.Schemas.cat in
  ignore (Storage.Catalog.create_index cat ~table:"Sales" ~column:"amount" ());
  let scan t = Exec.Plan.Seq_scan { table = t; alias = t; filter = None } in
  let amount = Expr.col ~rel:"Sales" ~col:"amount" in
  let dim = List.hd w.Workload.Schemas.dims in
  let id = Expr.col ~rel:dim ~col:"id" in
  let by_id input =
    Exec.Plan.Sort ([ { Exec.Plan.key = id; descending = false } ], input)
  in
  let sales =
    Exec.Plan.Index_scan
      { table = "Sales"; alias = "Sales"; column = "amount";
        lo = Exec.Plan.Incl (Value.Int 1); hi = Exec.Plan.Unbounded;
        filter = Some (Expr.Cmp (Expr.Gt, amount, Expr.int 2)) }
  in
  let counts =
    Exec.Plan.Hash_agg
      { keys = [ (amount, "amount") ]; aggs = [ (Expr.Count_star, "n") ];
        input = Exec.Plan.Filter (Expr.Cmp (Expr.Gt, amount, Expr.int 0), star) }
  in
  let plan =
    Exec.Plan.Hash_distinct
      (Exec.Plan.Project
         ( [ (id, "id") ],
           by_id
             (Exec.Plan.Nested_loop
                { kind = Algebra.Semi; pred = Expr.Cmp (Expr.Le, id, Expr.int 3);
                  outer =
                    Exec.Plan.Merge_join
                      { kind = Algebra.Inner;
                        pairs =
                          [ ({ Expr.rel = dim; col = "id" },
                             { Expr.rel = "Sales"; col = "amount" }) ];
                        residual = Expr.ftrue; left = by_id (scan dim);
                        right = sales };
                  inner = Exec.Plan.Materialize counts }) ))
  in
  let dop =
    Parallel.Two_phase.node_dop
      { Parallel.Two_phase.default_config with processors = 4 }
      cat (Stats.Table_stats.create_db ()) plan
  in
  List.iter
    (fun node ->
       let d = dop node in
       Alcotest.(check bool) (Exec.Plan.describe node ^ ": dop in [1, 4]") true
         (d >= 1 && d <= 4))
    (Exec.Plan.preorder plan)

(* A repartitioned join input moves the rows the plan estimator gives
   it: a bounded index scan's range and an index-NL join's probe keys
   both narrow that estimate. *)
let test_comm_rows_from_estimates () =
  let w = Workload.Schemas.emp_dept ~emps:2000 ~depts:40 () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  let emp_did =
    Option.get (Storage.Catalog.index_on cat ~table:"Emp" ~column:"did")
  in
  let probe =
    Exec.Plan.Index_nl
      { kind = Algebra.Inner;
        outer =
          Exec.Plan.Seq_scan { table = "Dept"; alias = "Dept"; filter = None };
        table = "Emp"; alias = "Emp"; index = emp_did.Storage.Btree.name;
        columns = [ "did" ]; outer_keys = [ Expr.col ~rel:"Dept" ~col:"did" ];
        residual = Expr.ftrue }
  in
  let build =
    Exec.Plan.Index_scan
      { table = "Dept"; alias = "D2"; column = "did";
        lo = Exec.Plan.Incl (Value.Int 1); hi = Exec.Plan.Incl (Value.Int 4);
        filter = None }
  in
  let plan =
    Exec.Plan.Hash_join
      { kind = Algebra.Inner;
        pairs =
          [ ({ Expr.rel = "Emp"; col = "did" }, { Expr.rel = "D2"; col = "did" }) ];
        residual = Expr.ftrue; left = probe; right = build }
  in
  let segs =
    Parallel.Two_phase.decompose
      { Parallel.Two_phase.default_config with partition_aware = false }
      cat db plan
  in
  let est = Obs.Est.annotate cat db plan in
  let card n = Option.get (Obs.Est.card est n) in
  let seg_ending op =
    List.find
      (fun s -> List.hd (List.rev s.Parallel.Two_phase.ops) = op)
      segs
  in
  Alcotest.(check (float 1e-9)) "index-scan build side moves its estimate"
    (card build) (seg_ending "build").Parallel.Two_phase.comm_rows;
  Alcotest.(check (float 1e-9)) "index-NL probe side moves its estimate"
    (card probe) (seg_ending "hash join").Parallel.Two_phase.comm_rows

(* Segment work partitions the plan's work: summed over segments it is
   each operator's own cost-model work summed over the plan. *)
let test_segment_work_sums_operators () =
  let w = Workload.Schemas.star ~fact_rows:200000 ~dim_rows:100 ~dims:3 () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  let scan t = Exec.Plan.Seq_scan { table = t; alias = t; filter = None } in
  let plan =
    List.fold_left
      (fun acc dim ->
         Exec.Plan.Hash_join
           { kind = Algebra.Inner;
             pairs =
               [ ( { Expr.rel = "Sales";
                     col = String.lowercase_ascii dim ^ "_id" },
                   { Expr.rel = dim; col = "id" } ) ];
             residual = Expr.ftrue; left = acc; right = scan dim })
      (scan "Sales") w.Workload.Schemas.dims
  in
  let module Cm = Cost.Cost_model in
  let params = Cm.default_params in
  let est = Obs.Est.annotate cat db plan in
  let rows n = Option.get (Obs.Est.card est n) in
  let pages n = Option.get (Obs.Est.pages est n) in
  let own (n : Exec.Plan.t) =
    match n with
    | Exec.Plan.Seq_scan { table; _ } ->
      let t = Storage.Catalog.table cat table in
      Cm.seq_scan params
        ~pages:(float_of_int (Storage.Table.page_count t))
        ~rows:
          (Option.get (Stats.Table_stats.find db table)).Stats.Table_stats.rows
    | Exec.Plan.Hash_join { left; right; _ } ->
      Cm.hash_join params ~left_rows:(rows left) ~right_rows:(rows right)
        ~left_pages:(pages left) ~right_pages:(pages right) ~out_rows:(rows n)
    | _ -> Alcotest.fail "star plan has only scans and hash joins"
  in
  let expected =
    List.fold_left (fun a n -> a +. own n) 0. (Exec.Plan.preorder plan)
  in
  let segs =
    Parallel.Two_phase.decompose Parallel.Two_phase.default_config cat db plan
  in
  let total =
    List.fold_left (fun a s -> a +. s.Parallel.Two_phase.work) 0. segs
  in
  Alcotest.(check (float (1e-9 *. expected))) "segment work = operator work"
    expected total

(* The nested-query shapes of the whole-query benchmark (correlated
   aggregates, the count bug, EXISTS / NOT EXISTS, IN, views, a non-equi
   magic set, UNION) give the same rows, in order, and the same cost
   counters at dop 1 and 2, under the histogram and (cold) sketch
   estimators, with the lint on and off. *)
let nested_sqls =
  [ "SELECT D.name FROM Dept D WHERE D.budget > \
     (SELECT AVG(E.sal) FROM Emp E WHERE E.did = D.did AND E.age > 32)";
    "SELECT D.name FROM Dept D WHERE D.budget > 75000 AND \
     D.num_machines >= (SELECT COUNT(*) FROM Emp E WHERE D.name = E.dept_name)";
    "SELECT D.name FROM Dept D WHERE EXISTS \
     (SELECT * FROM Emp E WHERE E.did = D.did AND E.sal > 150000)";
    "SELECT D.name FROM Dept D WHERE NOT EXISTS \
     (SELECT * FROM Emp E WHERE E.did = D.did AND E.age > 60)";
    "SELECT E.name, E.sal FROM Emp E WHERE E.did IN \
     (SELECT D.did FROM Dept D WHERE D.budget > 400000)";
    "CREATE VIEW dept_pay AS \
     SELECT E.did, AVG(E.sal) AS avg_sal FROM Emp E GROUP BY E.did; \
     SELECT E.name, E.sal FROM Emp E, dept_pay V \
     WHERE E.did = V.did AND E.sal > V.avg_sal AND E.age < 28";
    "SELECT V.did, V.n FROM (SELECT E.did AS did, COUNT(*) AS n FROM Emp E \
     GROUP BY E.did) AS V, Dept D WHERE V.did = D.did AND D.budget > 100000";
    "SELECT D.name FROM Dept D WHERE D.budget < \
     (SELECT MAX(E.sal) FROM Emp E WHERE E.did < D.did AND E.sal > 150000)";
    "SELECT E.name FROM Emp E WHERE E.sal > 170000 \
     UNION SELECT E.name FROM Emp E WHERE E.age < 23" ]

let test_nested_grid () =
  let w = Workload.Schemas.emp_dept ~emps:1500 ~depts:40 () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  List.iter
    (fun sql ->
       let q = Sql.Binder.query_of_string cat sql in
       let run ~dop ~sketch ~lint =
         let ctx = Exec.Context.create () in
         let estimator =
           if sketch then `Sketch (Stats.Sketch.registry_create ())
           else `Histogram
         in
         let config =
           { Core.Pipeline.default_config with
             dop; morsel_rows = 64; estimator; lint }
         in
         let result, reports = Core.Pipeline.run_query ~ctx ~config cat db q in
         List.iter
           (fun (r : Core.Pipeline.report) ->
              Alcotest.(check int) (sql ^ ": lint errors") 0
                (List.length (Verify.Diag.errors r.Core.Pipeline.diags)))
           reports;
         (result.Exec.Executor.rows, Exec.Context.snapshot ctx)
       in
       let rows, counters = run ~dop:1 ~sketch:false ~lint:false in
       List.iter
         (fun (dop, sketch, lint) ->
            let label =
              Printf.sprintf "%s [dop %d, %s, lint %b]" sql dop
                (if sketch then "sketch" else "histogram")
                lint
            in
            let rows', counters' = run ~dop ~sketch ~lint in
            Alcotest.(check bool) (label ^ ": rows") true
              (Array.length rows = Array.length rows'
               && Array.for_all2 Tuple.equal rows rows');
            Alcotest.(check string) (label ^ ": counters")
              (Fmt.str "%a" Exec.Context.pp_snapshot counters)
              (Fmt.str "%a" Exec.Context.pp_snapshot counters'))
         [ (1, false, true); (1, true, false); (1, true, true);
           (2, false, false); (2, false, true); (2, true, false);
           (2, true, true) ])
    nested_sqls

(* View temporaries' statistics are computed when they are first read;
   every read must happen on the planning domain.  For each planned block
   at dop 2: plan it (executing its views), annotate it and price the
   two-phase schedule, then run it on the morsel workers.  No column of
   a temporary is forced during that execution. *)
let test_execution_forces_no_statistics () =
  let w = Workload.Schemas.emp_dept ~emps:1500 ~depts:40 () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  let config =
    { Core.Pipeline.default_config with dop = 2; morsel_rows = 64 }
  in
  let forced snap temps =
    List.map
      (fun tmp ->
         match Stats.Table_stats.find snap tmp with
         | None -> (tmp, [])
         | Some ts ->
           ( tmp,
             List.filter_map
               (fun (n, c) -> if Lazy.is_val c then Some n else None)
               ts.Stats.Table_stats.cols ))
      temps
  in
  let views = ref 0 in
  List.iter
    (fun sql ->
       let q = Sql.Binder.query_of_string cat sql in
       let _, reports = Core.Pipeline.run_query ~config cat db q in
       List.iter
         (fun (r : Core.Pipeline.report) ->
            if r.Core.Pipeline.path = Core.Pipeline.Planned then begin
              let ctx = Exec.Context.create () in
              let snap = Hashtbl.copy db in
              let plan, _, _, temps =
                Core.Pipeline.plan_block ctx config cat snap
                  r.Core.Pipeline.rewritten
              in
              Fun.protect
                ~finally:(fun () ->
                  List.iter (Storage.Catalog.remove_table cat) temps)
                (fun () ->
                   views := !views + List.length temps;
                   let est = Obs.Est.annotate cat snap plan in
                   let schedule =
                     Parallel.Two_phase.node_dop ~est
                       { Parallel.Two_phase.default_config with
                         processors = 2 }
                       cat snap plan
                   in
                   let before = forced snap temps in
                   ignore
                     (Exec.Morsel.run ~ctx ~schedule ~morsel:64 ~dop:2 cat
                        plan);
                   Alcotest.(check (list (pair string (list string))))
                     (sql ^ ": forced during execution") before
                     (forced snap temps))
            end)
         reports)
    nested_sqls;
  Alcotest.(check bool) "views were materialized" true (!views > 0)

let () =
  Alcotest.run "parallel"
    [ ("two-phase",
       [ Alcotest.test_case "decomposition" `Quick test_decomposition;
         Alcotest.test_case "speedup monotone + saturating" `Quick
           test_speedup_monotone_and_saturating;
         Alcotest.test_case "work vs response" `Quick
           test_parallel_increases_total_work_not_response;
         Alcotest.test_case "partition awareness" `Quick
           test_partition_awareness_helps;
         Alcotest.test_case "blocking operators" `Quick
           test_blocking_operators_segment;
         Alcotest.test_case "schedule without statistics" `Quick
           test_node_dop_without_stats;
         Alcotest.test_case "comm rows are plan estimates" `Quick
           test_comm_rows_from_estimates;
         Alcotest.test_case "segment work sums operators" `Quick
           test_segment_work_sums_operators ]);
      ("nested queries",
       [ Alcotest.test_case "dop, estimator and lint grid" `Quick
           test_nested_grid;
         Alcotest.test_case "execution forces no statistics" `Quick
           test_execution_forces_no_statistics ]) ]
