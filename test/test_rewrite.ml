(* Rewrite-layer tests: every transformation must be semantics-preserving,
   verified by executing both sides (interpreter as ground truth, pipeline
   as system under test).  Includes the count-bug regression. *)

open Relalg
module Q = Rewrite.Qgm

let ed () = Workload.Schemas.emp_dept ~emps:400 ~depts:20 ~empty_dept_frac:0.25 ()

let base cat ?alias name : Q.source =
  let alias = Option.value alias ~default:name in
  Q.Base
    { table = name; alias;
      schema =
        Schema.requalify (Storage.Catalog.table cat name).Storage.Table.schema
          ~rel:alias }

let col r c = Expr.col ~rel:r ~col:c
let eq a b = Expr.Cmp (Expr.Eq, a, b)

let run_both ?(config = Core.Pipeline.default_config) (w : Workload.Schemas.emp_dept) block =
  let interp = Rewrite.Qgm_eval.run w.Workload.Schemas.cat block in
  let planned, report =
    Core.Pipeline.run ~config w.Workload.Schemas.cat w.Workload.Schemas.db block
  in
  (interp, planned, report)

let check_equiv name ?config w block =
  let interp, planned, report = run_both ?config w block in
  Alcotest.(check bool)
    (Printf.sprintf "%s: pipeline == interpreter (%d rows)" name
       (Array.length interp.Exec.Executor.rows))
    true
    (Exec.Executor.same_multiset interp planned);
  report

(* ---------- view merging ---------- *)

let test_view_merge () =
  let w = ed () in
  (* SELECT V.name, V.sal FROM (SELECT E.name, E.sal, E.did FROM Emp E WHERE E.age < 40) V, Dept D
     WHERE V.did = D.did AND D.loc = 'Denver' *)
  let view =
    Q.simple
      ~select:[ (col "E" "name", "name"); (col "E" "sal", "sal"); (col "E" "did", "did") ]
      ~from:[ base w.Workload.Schemas.cat ~alias:"E" "Emp" ]
      ~where:[ Expr.Cmp (Expr.Lt, col "E" "age", Expr.int 40) ] ()
  in
  let q =
    Q.simple
      ~select:[ (col "V" "name", "name"); (col "V" "sal", "sal") ]
      ~from:[ Q.Derived { block = view; alias = "V" };
              base w.Workload.Schemas.cat ~alias:"D" "Dept" ]
      ~where:[ eq (col "V" "did") (col "D" "did");
               eq (col "D" "loc") (Expr.str "Denver") ] ()
  in
  let report = check_equiv "view merge" w q in
  Alcotest.(check bool) "view_merge fired" true
    (List.mem_assoc "view_merge" report.Core.Pipeline.trace);
  (* after merging, the view is gone: both relations joined in one block *)
  Alcotest.(check int) "merged into single block" 2
    (List.length report.Core.Pipeline.rewritten.Q.from)

(* ---------- IN unnesting (the paper's Section 4.2.2 example) ---------- *)

let in_query (w : Workload.Schemas.emp_dept) =
  (* SELECT E.name FROM Emp E WHERE E.did IN
       (SELECT D.did FROM Dept D WHERE D.loc='Denver' AND E.eid = D.mgr) *)
  let sub =
    Q.simple
      ~select:[ (col "D" "did", "did") ]
      ~from:[ base w.Workload.Schemas.cat ~alias:"D" "Dept" ]
      ~where:[ eq (col "D" "loc") (Expr.str "Denver");
               eq (col "E" "eid") (col "D" "mgr") ] ()
  in
  { (Q.simple ~select:[ (col "E" "name", "name") ]
       ~from:[ base w.Workload.Schemas.cat ~alias:"E" "Emp" ] ())
    with Q.where = [ Q.In_sub (col "E" "did", sub) ] }

let test_unnest_in_correlated () =
  let w = ed () in
  let report = check_equiv "correlated IN" w (in_query w) in
  Alcotest.(check bool) "unnest fired" true
    (List.mem_assoc "unnest_in_exists" report.Core.Pipeline.trace);
  Alcotest.(check bool) "planned, not interpreted" true
    (report.Core.Pipeline.path = Core.Pipeline.Planned)

let test_unnest_in_uncorrelated () =
  let w = ed () in
  let sub =
    Q.simple
      ~select:[ (col "D" "did", "did") ]
      ~from:[ base w.Workload.Schemas.cat ~alias:"D" "Dept" ]
      ~where:[ eq (col "D" "loc") (Expr.str "Denver") ] ()
  in
  let q =
    { (Q.simple ~select:[ (col "E" "name", "name") ]
         ~from:[ base w.Workload.Schemas.cat ~alias:"E" "Emp" ] ())
      with Q.where = [ Q.In_sub (col "E" "did", sub) ] }
  in
  ignore (check_equiv "uncorrelated IN" w q)

let test_unnest_exists () =
  let w = ed () in
  let mk positive =
    let sub =
      Q.simple
        ~select:[ (Expr.int 1, "one") ]
        ~from:[ base w.Workload.Schemas.cat ~alias:"D" "Dept" ]
        ~where:[ eq (col "D" "did") (col "E" "did");
                 Expr.Cmp (Expr.Gt, col "D" "budget", Expr.int 200_000) ] ()
    in
    { (Q.simple ~select:[ (col "E" "eid", "eid") ]
         ~from:[ base w.Workload.Schemas.cat ~alias:"E" "Emp" ] ())
      with Q.where = [ Q.Exists_sub (positive, sub) ] }
  in
  let r1 = check_equiv "EXISTS" w (mk true) in
  let r2 = check_equiv "NOT EXISTS" w (mk false) in
  Alcotest.(check bool) "both planned" true
    (r1.Core.Pipeline.path = Core.Pipeline.Planned
     && r2.Core.Pipeline.path = Core.Pipeline.Planned);
  (* sanity: EXISTS rows + NOT EXISTS rows = all emps *)
  let i1, _, _ = run_both w (mk true) in
  let i2, _, _ = run_both w (mk false) in
  Alcotest.(check int) "partition"
    w.Workload.Schemas.emps
    (Array.length i1.Exec.Executor.rows + Array.length i2.Exec.Executor.rows)

(* ---------- the count bug (E5's regression test) ---------- *)

let count_query (w : Workload.Schemas.emp_dept) =
  (* SELECT D.name FROM Dept D WHERE D.num_machines >=
       (SELECT COUNT-star FROM Emp E WHERE D.name = E.dept_name) *)
  let sub =
    { (Q.simple ~select:[ (Expr.col ~rel:"" ~col:"n", "n") ]
         ~from:[ base w.Workload.Schemas.cat ~alias:"E" "Emp" ]
         ~where:[ eq (col "D" "name") (col "E" "dept_name") ]
         ~aggs:[ (Expr.Count_star, "n") ] ())
      with Q.select = [ (Expr.col ~rel:"" ~col:"n", "n") ] }
  in
  { (Q.simple ~select:[ (col "D" "name", "name") ]
       ~from:[ base w.Workload.Schemas.cat ~alias:"D" "Dept" ] ())
    with Q.where = [ Q.Cmp_sub (Expr.Ge, col "D" "num_machines", sub) ] }

let test_count_bug_correct_rewrite () =
  let w = ed () in
  let report = check_equiv "correlated COUNT subquery" w (count_query w) in
  Alcotest.(check bool) "outerjoin rewrite fired" true
    (List.mem_assoc "unnest_scalar_correlated" report.Core.Pipeline.trace)

let test_count_bug_naive_rewrite_wrong () =
  let w = ed () in
  let q = count_query w in
  let truth = Rewrite.Qgm_eval.run w.Workload.Schemas.cat q in
  let naive_cfg =
    { Core.Pipeline.default_config with
      rewrites = [ [ Rewrite.Unnest.naive_cmp_rule ] ] }
  in
  let naive, _ =
    Core.Pipeline.run ~config:naive_cfg w.Workload.Schemas.cat
      w.Workload.Schemas.db q
  in
  (* the naive inner-join rewrite loses departments with zero employees
     (they satisfy num_machines >= 0 = COUNT of empty) *)
  Alcotest.(check bool)
    (Printf.sprintf "naive loses rows: %d < %d"
       (Array.length naive.Exec.Executor.rows)
       (Array.length truth.Exec.Executor.rows))
    true
    (Array.length naive.Exec.Executor.rows
     < Array.length truth.Exec.Executor.rows)

(* COUNT in a grouped outer block: the outerjoin shape fires under the
   grouping (the old outer-regrouping rewrite refused it) and keeps the
   zero-employee departments in their groups. *)
let test_count_grouped_outer () =
  let w = ed () in
  let sub =
    { (Q.simple ~select:[ (Expr.col ~rel:"" ~col:"n", "n") ]
         ~from:[ base w.Workload.Schemas.cat ~alias:"E" "Emp" ]
         ~where:[ eq (col "E" "did") (col "D" "did") ]
         ~aggs:[ (Expr.Count_star, "n") ] ())
      with Q.select = [ (Expr.col ~rel:"" ~col:"n", "n") ] }
  in
  let q =
    { (Q.simple
         ~select:
           [ (Expr.col ~rel:"" ~col:"loc", "loc");
             (Expr.col ~rel:"" ~col:"cnt", "cnt") ]
         ~from:[ base w.Workload.Schemas.cat ~alias:"D" "Dept" ]
         ~group_by:[ (col "D" "loc", "loc") ]
         ~aggs:[ (Expr.Count_star, "cnt") ] ())
      with Q.where = [ Q.Cmp_sub (Expr.Ge, col "D" "num_machines", sub) ] }
  in
  let report = check_equiv "COUNT in a grouped block" w q in
  Alcotest.(check bool) "planned" true
    (report.Core.Pipeline.path = Core.Pipeline.Planned);
  Alcotest.(check bool) "unnest_scalar_correlated fired" true
    (List.mem_assoc "unnest_scalar_correlated" report.Core.Pipeline.trace)

(* Non-equality correlation goes through the magic set.  The outer table
   repeats a row and has NULL correlation values (and a NULL compared
   value); the inner one has NULL keys and arguments. *)
let magic_db =
  {|table o
col k int
col v int
row 1 5
row 1 5
row 2 1
row NULL 3
row 3 NULL
row 4 7
row 0 0
end
table i
col k int
col w int
row 0 2
row 1 3
row 1 NULL
row 2 4
row 3 9
row NULL 1
end
query SELECT a.k AS k FROM o AS a
|}

let rec distinct_view (b : Q.block) =
  List.exists
    (function
      | Q.Derived { block; _ } -> block.Q.distinct || distinct_view block
      | Q.Base _ -> false)
    (b.Q.from @ List.map (fun (o : Q.outerjoin) -> o.Q.o_source) b.Q.outerjoins)

let test_magic_nonequi () =
  let spec = (Fuzz.Repro.of_string magic_db).Fuzz.Repro.spec in
  let cat, db = Fuzz.Dbspec.build spec in
  List.iter
    (fun (agg, op) ->
       let sql =
         Printf.sprintf
           "SELECT a.k AS k, a.v AS v FROM o AS a WHERE a.v %s (SELECT %s AS \
            x FROM i AS b WHERE b.k < a.k)"
           op agg
       in
       let q =
         match Sql.Binder.query_of_string cat sql with
         | Q.Q_block b -> b
         | Q.Q_union _ -> assert false
       in
       let truth = Rewrite.Qgm_eval.run cat q in
       let planned, report = Core.Pipeline.run cat db q in
       Alcotest.(check bool)
         (Printf.sprintf "%s: pipeline == interpreter (%d rows)" agg
            (Array.length truth.Exec.Executor.rows))
         true
         (Exec.Executor.same_multiset truth planned);
       Alcotest.(check bool) (agg ^ ": planned") true
         (report.Core.Pipeline.path = Core.Pipeline.Planned);
       Alcotest.(check bool) (agg ^ ": through a DISTINCT magic set") true
         (distinct_view report.Core.Pipeline.rewritten))
    [ ("MIN(b.w)", ">"); ("SUM(b.w)", ">="); ("COUNT(*)", ">=");
      ("COUNT(b.w)", ">"); ("AVG(b.w)", "<") ]

let test_scalar_uncorrelated () =
  let w = ed () in
  let sub =
    { (Q.simple ~select:[ (Expr.col ~rel:"" ~col:"m", "m") ]
         ~from:[ base w.Workload.Schemas.cat ~alias:"E2" "Emp" ]
         ~aggs:[ (Expr.Avg (col "E2" "sal"), "m") ] ())
      with Q.select = [ (Expr.col ~rel:"" ~col:"m", "m") ] }
  in
  let q =
    { (Q.simple ~select:[ (col "E" "eid", "eid") ]
         ~from:[ base w.Workload.Schemas.cat ~alias:"E" "Emp" ] ())
      with Q.where = [ Q.Cmp_sub (Expr.Gt, col "E" "sal", sub) ] }
  in
  let report = check_equiv "uncorrelated scalar" w q in
  Alcotest.(check bool) "planned" true
    (report.Core.Pipeline.path = Core.Pipeline.Planned)

(* ---------- eager group-by (Figure 4) ---------- *)

let groupby_query (w : Workload.Schemas.emp_dept) =
  (* total salary per department:
     SELECT E.did, SUM(E.sal) FROM Emp E, Dept D WHERE E.did = D.did
     GROUP BY E.did  -- keys include E's join column *)
  Q.simple
    ~select:[ (Expr.col ~rel:"" ~col:"did", "did");
              (Expr.col ~rel:"" ~col:"total", "total") ]
    ~from:[ base w.Workload.Schemas.cat ~alias:"E" "Emp";
            base w.Workload.Schemas.cat ~alias:"D" "Dept" ]
    ~where:[ eq (col "E" "did") (col "D" "did") ]
    ~group_by:[ (col "E" "did", "did") ]
    ~aggs:[ (Expr.Sum (col "E" "sal"), "total") ] ()

let test_eager_groupby () =
  let w = ed () in
  let q = groupby_query w in
  (* without the rule *)
  ignore (check_equiv "group-by baseline" w q);
  (* with the rule *)
  let config =
    { Core.Pipeline.default_config with
      rewrites = [ [ Rewrite.Groupby.rule ] ] }
  in
  let report = check_equiv "eager group-by" ~config w q in
  Alcotest.(check bool) "eager rule fired" true
    (List.mem_assoc "eager_groupby" report.Core.Pipeline.trace)

let test_eager_groupby_minmax_count () =
  let w = ed () in
  let q =
    { (groupby_query w) with
      Q.aggs =
        [ (Expr.Sum (col "E" "sal"), "total");
          (Expr.Min (col "E" "sal"), "lo");
          (Expr.Max (col "E" "sal"), "hi");
          (Expr.Count_star, "cnt") ];
      select =
        [ (Expr.col ~rel:"" ~col:"did", "did");
          (Expr.col ~rel:"" ~col:"total", "total");
          (Expr.col ~rel:"" ~col:"lo", "lo");
          (Expr.col ~rel:"" ~col:"hi", "hi");
          (Expr.col ~rel:"" ~col:"cnt", "cnt") ] }
  in
  let config =
    { Core.Pipeline.default_config with rewrites = [ [ Rewrite.Groupby.rule ] ] }
  in
  let report = check_equiv "eager with min/max/count" ~config w q in
  Alcotest.(check bool) "fired" true
    (List.mem_assoc "eager_groupby" report.Core.Pipeline.trace)

(* ---------- magic decorrelation (the DepAvgSal example) ---------- *)

let dep_avg_sal_query (w : Workload.Schemas.emp_dept) =
  let view =
    Q.simple
      ~select:[ (Expr.col ~rel:"" ~col:"did", "did");
                (Expr.col ~rel:"" ~col:"avgsal", "avgsal") ]
      ~from:[ base w.Workload.Schemas.cat ~alias:"E2" "Emp" ]
      ~group_by:[ (col "E2" "did", "did") ]
      ~aggs:[ (Expr.Avg (col "E2" "sal"), "avgsal") ] ()
  in
  Q.simple
    ~select:[ (col "E" "eid", "eid"); (col "E" "sal", "sal") ]
    ~from:[ base w.Workload.Schemas.cat ~alias:"E" "Emp";
            base w.Workload.Schemas.cat ~alias:"D" "Dept";
            Q.Derived { block = view; alias = "V" } ]
    ~where:[ eq (col "E" "did") (col "D" "did");
             eq (col "V" "did") (col "E" "did");
             Expr.Cmp (Expr.Lt, col "E" "age", Expr.int 30);
             Expr.Cmp (Expr.Gt, col "D" "budget", Expr.int 100_000);
             Expr.Cmp (Expr.Gt, col "E" "sal", col "V" "avgsal") ] ()

let test_magic () =
  let w = ed () in
  let q = dep_avg_sal_query w in
  ignore (check_equiv "DepAvgSal without magic" w q);
  let config =
    { Core.Pipeline.default_config with rewrites = [ [ Rewrite.Magic.rule ] ] }
  in
  let report = check_equiv "DepAvgSal with magic" ~config w q in
  Alcotest.(check bool) "magic fired" true
    (List.mem_assoc "magic_decorrelation" report.Core.Pipeline.trace)

(* ---------- join/outerjoin association ---------- *)

let test_outerjoin_normalize () =
  let w = ed () in
  let cat = w.Workload.Schemas.cat in
  let scan alias name = Storage.Catalog.scan cat ~alias name in
  (* Join(R, S LOJ T): R=Dept D1, S=Emp E, T=Dept D2 via E.mgr *)
  let tree =
    Algebra.Join
      (Algebra.Inner,
       eq (col "D1" "did") (col "E" "did"),
       scan "D1" "Dept",
       Algebra.Join
         (Algebra.Left_outer,
          eq (col "E" "mgr") (col "E2" "eid"),
          scan "E" "Emp", scan "E2" "Emp"))
  in
  let norm = Rewrite.Outerjoin.normalize tree in
  Alcotest.(check bool) "was not normal" false (Rewrite.Outerjoin.normalized tree);
  Alcotest.(check bool) "now normal" true (Rewrite.Outerjoin.normalized norm);
  (* execute both through naive lowering *)
  let exec_tree t =
    (* interpret algebra by direct construction of an equivalent plan *)
    let rec to_plan = function
      | Algebra.Scan { table; alias; _ } ->
        Exec.Plan.Seq_scan { table; alias; filter = None }
      | Algebra.Join (k, p, l, r) ->
        Exec.Plan.Nested_loop { kind = k; pred = p; outer = to_plan l; inner = to_plan r }
      | Algebra.Select (p, i) -> Exec.Plan.Filter (p, to_plan i)
      | _ -> Alcotest.fail "unexpected node"
    in
    Exec.Executor.run cat (to_plan t)
  in
  Alcotest.(check bool) "identity holds under execution" true
    (Exec.Executor.same_multiset_modulo_columns (exec_tree tree) (exec_tree norm))

(* ---------- fallback path ---------- *)

let test_interpreter_fallback () =
  let w = ed () in
  (* correlated subquery with aggregation inside HAVING-less but with
     grouping — no rewrite applies, must fall back *)
  let sub =
    { (Q.simple ~select:[ (Expr.col ~rel:"" ~col:"m", "m") ]
         ~from:[ base w.Workload.Schemas.cat ~alias:"E2" "Emp" ]
         ~where:[ eq (col "E2" "did") (col "E" "did") ]
         ~group_by:[ (col "E2" "did", "d") ]
         ~aggs:[ (Expr.Max (col "E2" "sal"), "m") ] ())
      with Q.select = [ (Expr.col ~rel:"" ~col:"m", "m") ] }
  in
  let q =
    { (Q.simple ~select:[ (col "E" "eid", "eid") ]
         ~from:[ base w.Workload.Schemas.cat ~alias:"E" "Emp" ] ())
      with Q.where = [ Q.Cmp_sub (Expr.Eq, col "E" "sal", sub) ] }
  in
  let _, report =
    Core.Pipeline.run w.Workload.Schemas.cat w.Workload.Schemas.db q
  in
  Alcotest.(check bool) "interpreted" true
    (report.Core.Pipeline.path = Core.Pipeline.Interpreted)

(* ---------- property: random nested queries ---------- *)

let prop_pipeline_equiv_interpreter =
  let w = ed () in
  let gen =
    let open QCheck.Gen in
    let* kind = oneofl [ `In; `Exists; `Not_exists; `Count ] in
    let* loc = oneofl Workload.Gen.city_pool in
    let* budget = int_range 50 400 in
    let sub_where corr =
      [ eq (col "D" "loc") (Expr.str loc) ]
      @ (if corr then [ eq (col "E" "eid") (col "D" "mgr") ] else [])
      @ [ Expr.Cmp (Expr.Gt, col "D" "budget", Expr.int (budget * 1000)) ]
    in
    let* corr = bool in
    let q =
      match kind with
      | `In ->
        let sub =
          Q.simple ~select:[ (col "D" "did", "did") ]
            ~from:[ base w.Workload.Schemas.cat ~alias:"D" "Dept" ]
            ~where:(sub_where corr) ()
        in
        { (Q.simple ~select:[ (col "E" "name", "name") ]
             ~from:[ base w.Workload.Schemas.cat ~alias:"E" "Emp" ] ())
          with Q.where = [ Q.In_sub (col "E" "did", sub) ] }
      | `Exists | `Not_exists ->
        let sub =
          Q.simple ~select:[ (Expr.int 1, "one") ]
            ~from:[ base w.Workload.Schemas.cat ~alias:"D" "Dept" ]
            ~where:(eq (col "D" "did") (col "E" "did") :: sub_where false) ()
        in
        { (Q.simple ~select:[ (col "E" "eid", "eid") ]
             ~from:[ base w.Workload.Schemas.cat ~alias:"E" "Emp" ] ())
          with Q.where = [ Q.Exists_sub (kind = `Exists, sub) ] }
      | `Count ->
        let sub =
          { (Q.simple ~select:[ (Expr.col ~rel:"" ~col:"n", "n") ]
               ~from:[ base w.Workload.Schemas.cat ~alias:"E2" "Emp" ]
               ~where:[ eq (col "D" "did") (col "E2" "did") ]
               ~aggs:[ (Expr.Count_star, "n") ] ())
            with Q.select = [ (Expr.col ~rel:"" ~col:"n", "n") ] }
        in
        { (Q.simple ~select:[ (col "D" "name", "name") ]
             ~from:[ base w.Workload.Schemas.cat ~alias:"D" "Dept" ] ())
          with Q.where = [ Q.Cmp_sub (Expr.Ge, col "D" "num_machines", sub) ] }
    in
    return q
  in
  QCheck.Test.make ~name:"pipeline == interpreter on random nested queries"
    ~count:25
    (QCheck.make ~print:Q.block_to_string gen)
    (fun q ->
       let truth = Rewrite.Qgm_eval.run w.Workload.Schemas.cat q in
       let planned, _ =
         Core.Pipeline.run w.Workload.Schemas.cat w.Workload.Schemas.db q
       in
       Exec.Executor.same_multiset truth planned)

let () =
  Alcotest.run "rewrite"
    [ ("view-merge", [ Alcotest.test_case "merge + equivalence" `Quick test_view_merge ]);
      ("unnest",
       [ Alcotest.test_case "correlated IN" `Quick test_unnest_in_correlated;
         Alcotest.test_case "uncorrelated IN" `Quick test_unnest_in_uncorrelated;
         Alcotest.test_case "EXISTS / NOT EXISTS" `Quick test_unnest_exists;
         Alcotest.test_case "count bug: correct rewrite" `Quick test_count_bug_correct_rewrite;
         Alcotest.test_case "count bug: naive rewrite is wrong" `Quick test_count_bug_naive_rewrite_wrong;
         Alcotest.test_case "COUNT in a grouped outer block" `Quick test_count_grouped_outer;
         Alcotest.test_case "non-equality through the magic set" `Quick test_magic_nonequi;
         Alcotest.test_case "uncorrelated scalar" `Quick test_scalar_uncorrelated ]);
      ("group-by",
       [ Alcotest.test_case "eager sum" `Quick test_eager_groupby;
         Alcotest.test_case "eager min/max/count" `Quick test_eager_groupby_minmax_count ]);
      ("magic", [ Alcotest.test_case "DepAvgSal" `Quick test_magic ]);
      ("outerjoin", [ Alcotest.test_case "associativity" `Quick test_outerjoin_normalize ]);
      ("pipeline",
       [ Alcotest.test_case "interpreter fallback" `Quick test_interpreter_fallback;
         QCheck_alcotest.to_alcotest prop_pipeline_equiv_interpreter ]) ]
