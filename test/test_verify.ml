(* Plan Lint tests.

   Two halves, matching the linter's contract:
   - mutation harness: every seeded corruption (renamed column, dropped
     Sort, wrong index prefix, naive unnest without outerjoin, ...) must
     be caught — no false negatives;
   - false-positive guard: every plan produced by the real System-R,
     Cascades and rewrite pipelines must lint clean. *)

open Relalg
module Q = Rewrite.Qgm
module P = Exec.Plan
module D = Verify.Diag

let ed () =
  Workload.Schemas.emp_dept ~emps:300 ~depts:15 ~empty_dept_frac:0.25 ()

let col r c = Expr.col ~rel:r ~col:c
let eq a b = Expr.Cmp (Expr.Eq, a, b)
let cref r c = { Expr.rel = r; col = c }

let base cat ?alias name : Q.source =
  let alias = Option.value alias ~default:name in
  Q.Base
    { table = name; alias;
      schema =
        Schema.requalify (Storage.Catalog.table cat name).Storage.Table.schema
          ~rel:alias }

let check_has name code diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s flags [%s] (got: %s)" name code
       (Fmt.str "%a" D.pp_list diags))
    true (D.mem ~code diags)

let check_clean name diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s lints clean (got: %s)" name
       (Fmt.str "%a" D.pp_list diags))
    true (diags = [])

(* ------------------------------------------------------------------ *)
(* Expression and scoping mutations, over physical plans and QGM blocks *)

let seq table alias = P.Seq_scan { table; alias; filter = None }

let spj_plan pred =
  P.Project
    ( [ (col "E" "name", "name") ],
      P.Filter
        ( pred,
          P.Hash_join
            { kind = Algebra.Inner;
              pairs = [ (cref "E" "did", cref "D" "did") ];
              residual = Expr.ftrue; left = seq "Emp" "E";
              right = seq "Dept" "D" } ) )

let lint_spj pred =
  let w = ed () in
  Verify.physical w.Workload.Schemas.cat (spj_plan pred)

let test_logical_clean () =
  check_clean "well-formed SPJ plan"
    (lint_spj (Expr.Cmp (Expr.Gt, col "E" "sal", Expr.int 1000)))

let test_logical_renamed_column () =
  (* mutation: E.sal -> E.salary *)
  check_has "renamed column" "unknown-column"
    (lint_spj (Expr.Cmp (Expr.Gt, col "E" "salary", Expr.int 1000)))

let test_logical_out_of_scope () =
  (* mutation: predicate references alias X bound nowhere *)
  check_has "out-of-scope alias" "out-of-scope"
    (lint_spj (eq (col "X" "did") (Expr.int 1)))

let test_logical_non_boolean_predicate () =
  (* mutation: arithmetic expression used as a predicate *)
  check_has "arithmetic as predicate" "non-boolean-predicate"
    (lint_spj (Expr.Binop (Expr.Add, col "E" "sal", Expr.int 1)))

let test_logical_type_mismatch () =
  (* mutation: string column compared with an integer *)
  check_has "string > int" "type-mismatch"
    (lint_spj (Expr.Cmp (Expr.Gt, col "E" "name", Expr.int 5)))

let test_logical_ambiguous_column () =
  (* both Emp and Dept carry a column [mgr] *)
  check_has "unqualified mgr over Emp x Dept" "ambiguous-column"
    (lint_spj (Expr.Cmp (Expr.Gt, col "" "mgr", Expr.int 0)))

let test_logical_duplicate_projection_alias () =
  let w = ed () in
  let plan =
    P.Project ([ (col "E" "name", "x"); (col "E" "sal", "x") ], seq "Emp" "E")
  in
  check_has "two outputs named x" "duplicate-alias"
    (Verify.physical w.Workload.Schemas.cat plan);
  (* a view's outputs are referenced by name, a block's own are not *)
  let cat = w.Workload.Schemas.cat in
  let two_x =
    Q.simple
      ~select:[ (col "E" "name", "x"); (col "E" "sal", "x") ]
      ~from:[ base cat ~alias:"E" "Emp" ] ()
  in
  check_has "view with two outputs named x" "duplicate-alias"
    (Verify.block
       (Q.simple ~select:[ (Expr.int 1, "one") ]
          ~from:[ Q.Derived { block = two_x; alias = "V" } ] ()));
  check_clean "block with two outputs named x" (Verify.block two_x)

let test_logical_duplicate_relation_alias () =
  let w = ed () in
  let cat = w.Workload.Schemas.cat in
  let b =
    Q.simple
      ~select:[ (col "E" "name", "name") ]
      ~from:[ base cat ~alias:"E" "Emp"; base cat ~alias:"E" "Dept" ] ()
  in
  check_has "alias E bound twice" "duplicate-relation-alias" (Verify.block b)

let test_logical_bad_agg_arg () =
  let w = ed () in
  let plan =
    P.Hash_agg
      { keys = [ (col "E" "did", "did") ];
        aggs = [ (Expr.Sum (col "E" "wage"), "total") ];
        input = seq "Emp" "E" }
  in
  check_has "SUM over missing column" "unknown-column"
    (Verify.physical w.Workload.Schemas.cat plan);
  let plan =
    P.Hash_agg
      { keys = [ (col "E" "did", "did") ];
        aggs = [ (Expr.Sum (col "E" "name"), "total") ];
        input = seq "Emp" "E" }
  in
  check_has "SUM over a string column" "type-mismatch"
    (Verify.physical w.Workload.Schemas.cat plan)

(* ------------------------------------------------------------------ *)
(* Physical mutations *)

let sort1 r c input =
  P.Sort ([ { P.key = Expr.Col (cref r c); descending = false } ], input)

let merge_emp_dept ~left ~right =
  P.Merge_join
    { kind = Algebra.Inner;
      pairs = [ (cref "E" "did", cref "D" "did") ];
      residual = Expr.ftrue; left; right }

let test_physical_clean_merge () =
  let w = ed () in
  let plan =
    merge_emp_dept
      ~left:(sort1 "E" "did" (seq "Emp" "E"))
      ~right:(sort1 "D" "did" (seq "Dept" "D"))
  in
  check_clean "merge join with both Sorts"
    (Verify.physical w.Workload.Schemas.cat plan)

let test_physical_dropped_sort () =
  let w = ed () in
  (* mutation: the left Sort enforcer is dropped *)
  let plan =
    merge_emp_dept ~left:(seq "Emp" "E")
      ~right:(sort1 "D" "did" (seq "Dept" "D"))
  in
  check_has "dropped left Sort" "unsorted-input"
    (Verify.physical w.Workload.Schemas.cat plan)

let test_physical_wrong_sort_column () =
  let w = ed () in
  (* mutation: left sorted, but on the wrong column *)
  let plan =
    merge_emp_dept
      ~left:(sort1 "E" "sal" (seq "Emp" "E"))
      ~right:(sort1 "D" "did" (seq "Dept" "D"))
  in
  check_has "Sort on wrong column" "unsorted-input"
    (Verify.physical w.Workload.Schemas.cat plan)

let test_physical_index_scan_delivers_order () =
  let w = ed () in
  (* Emp has an index on did: an index scan needs no Sort enforcer *)
  let plan =
    merge_emp_dept
      ~left:
        (P.Index_scan
           { table = "Emp"; alias = "E"; column = "did"; lo = P.Unbounded;
             hi = P.Unbounded; filter = None })
      ~right:(sort1 "D" "did" (seq "Dept" "D"))
  in
  check_clean "index scan satisfies merge order"
    (Verify.physical w.Workload.Schemas.cat plan)

let test_physical_stream_agg_unsorted () =
  let w = ed () in
  let agg input =
    P.Stream_agg
      { keys = [ (col "E" "did", "did") ];
        aggs = [ (Expr.Sum (col "E" "sal"), "total") ]; input }
  in
  check_has "Stream_agg without Sort" "unsorted-input"
    (Verify.physical w.Workload.Schemas.cat (agg (seq "Emp" "E")));
  check_clean "Stream_agg with Sort"
    (Verify.physical w.Workload.Schemas.cat
       (agg (sort1 "E" "did" (seq "Emp" "E"))))

let test_physical_unknown_index () =
  let w = ed () in
  (* mutation: index scan on a column with no index *)
  let plan =
    P.Index_scan
      { table = "Emp"; alias = "E"; column = "sal"; lo = P.Unbounded;
        hi = P.Unbounded; filter = None }
  in
  check_has "index scan on unindexed column" "unknown-index"
    (Verify.physical w.Workload.Schemas.cat plan)

let inl ~index ~columns ~outer_keys =
  P.Index_nl
    { kind = Algebra.Inner; outer = seq "Dept" "D"; table = "Emp";
      alias = "E"; index; columns; outer_keys; residual = Expr.ftrue }

let test_physical_index_nl () =
  let w = ed () in
  let cat = w.Workload.Schemas.cat in
  check_clean "valid index nested loop"
    (Verify.physical cat
       (inl ~index:"idx_Emp_did" ~columns:[ "did" ]
          ~outer_keys:[ col "D" "did" ]));
  (* mutation: index name rot *)
  check_has "wrong index name" "unknown-index"
    (Verify.physical cat
       (inl ~index:"idx_Emp_salary" ~columns:[ "did" ]
          ~outer_keys:[ col "D" "did" ]))

let test_physical_index_prefix_mismatch () =
  let w = ed () in
  let cat = w.Workload.Schemas.cat in
  ignore (Storage.Catalog.create_index cat ~table:"Emp"
            ~columns:[ "age"; "sal" ] ());
  (* mutation: probing (sal), which is not a prefix of (age, sal) *)
  check_has "non-prefix probe" "index-prefix-mismatch"
    (Verify.physical cat
       (inl ~index:"idx_Emp_age_sal" ~columns:[ "sal" ]
          ~outer_keys:[ col "D" "num_machines" ]));
  (* mutation: two probe expressions for one probed column *)
  check_has "probe arity" "probe-arity"
    (Verify.physical cat
       (inl ~index:"idx_Emp_age_sal" ~columns:[ "age" ]
          ~outer_keys:[ col "D" "num_machines"; col "D" "budget" ]))

let test_physical_key_type_mismatch () =
  let w = ed () in
  (* mutation: hash join of a string key against an int key *)
  let plan =
    P.Hash_join
      { kind = Algebra.Inner;
        pairs = [ (cref "E" "name", cref "D" "did") ];
        residual = Expr.ftrue; left = seq "Emp" "E"; right = seq "Dept" "D" }
  in
  check_has "string = int hash keys" "key-type-mismatch"
    (Verify.physical w.Workload.Schemas.cat plan)

let test_physical_unknown_table () =
  let w = ed () in
  check_has "scan of missing table" "unknown-table"
    (Verify.physical w.Workload.Schemas.cat (seq "Nonesuch" "N"))

let test_physical_renamed_filter_column () =
  let w = ed () in
  let plan =
    P.Seq_scan
      { table = "Emp"; alias = "E";
        filter = Some (Expr.Cmp (Expr.Gt, col "E" "salary", Expr.int 0)) }
  in
  check_has "filter on renamed column" "unknown-column"
    (Verify.physical w.Workload.Schemas.cat plan)

(* ------------------------------------------------------------------ *)
(* The rewrite oracle: count-bug regression *)

let count_query (w : Workload.Schemas.emp_dept) =
  (* SELECT D.name FROM Dept D WHERE D.num_machines >=
       (SELECT COUNT(..) FROM Emp E WHERE D.name = E.dept_name) *)
  let sub =
    { (Q.simple
         ~select:[ (Expr.col ~rel:"" ~col:"n", "n") ]
         ~from:[ base w.Workload.Schemas.cat ~alias:"E" "Emp" ]
         ~where:[ eq (col "D" "name") (col "E" "dept_name") ]
         ~aggs:[ (Expr.Count_star, "n") ] ())
      with Q.select = [ (Expr.col ~rel:"" ~col:"n", "n") ] }
  in
  { (Q.simple ~select:[ (col "D" "name", "name") ]
       ~from:[ base w.Workload.Schemas.cat ~alias:"D" "Dept" ] ())
    with Q.where = [ Q.Cmp_sub (Expr.Ge, col "D" "num_machines", sub) ] }

let run_checked classes q =
  let diags = ref [] in
  let check ~rule ~before ~after =
    diags := !diags @ Verify.check_rewrite ~rule ~before ~after
  in
  let b, trace = Rewrite.Rules.run ~check classes q in
  (b, trace, !diags)

let test_count_bug_naive_flagged () =
  let w = ed () in
  let _, trace, diags =
    run_checked [ [ Rewrite.Unnest.naive_cmp_rule ] ] (count_query w)
  in
  Alcotest.(check bool) "naive rule fired" true
    (List.mem_assoc "unnest_scalar_correlated_NAIVE" trace);
  check_has "naive unnest" "count-bug" diags;
  (* the offending rule is named in the diagnostic path *)
  Alcotest.(check bool) "rule named in path" true
    (List.exists
       (fun d -> List.mem "rule unnest_scalar_correlated_NAIVE" d.D.path)
       (D.errors diags))

let test_count_bug_correct_rule_clean () =
  let w = ed () in
  let _, trace, diags =
    run_checked [ Rewrite.Unnest.default_rules ] (count_query w)
  in
  Alcotest.(check bool) "outerjoin rewrite fired" true
    (List.mem_assoc "unnest_scalar_correlated" trace);
  check_clean "count-bug-safe unnesting" diags

let test_default_rules_clean_on_views () =
  let w = ed () in
  let cat = w.Workload.Schemas.cat in
  let view =
    Q.simple
      ~select:[ (col "E" "name", "name"); (col "E" "sal", "sal");
                (col "E" "did", "did") ]
      ~from:[ base cat ~alias:"E" "Emp" ]
      ~where:[ Expr.Cmp (Expr.Lt, col "E" "age", Expr.int 40) ] ()
  in
  let q =
    Q.simple
      ~select:[ (col "V" "name", "name"); (col "V" "sal", "sal") ]
      ~from:[ Q.Derived { block = view; alias = "V" };
              base cat ~alias:"D" "Dept" ]
      ~where:[ eq (col "V" "did") (col "D" "did");
               eq (col "D" "loc") (Expr.str "Denver") ] ()
  in
  let _, trace, diags = run_checked Core.Pipeline.default_rewrites q in
  Alcotest.(check bool) "view_merge fired" true
    (List.mem_assoc "view_merge" trace);
  check_clean "view merge under the oracle" diags

let test_schema_change_detected () =
  let w = ed () in
  (* a deliberately broken rule: drops the second select item *)
  let broken =
    { Rewrite.Rules.name = "drop_column";
      apply =
        (fun b ->
           match b.Q.select with
           | [ _ ] | [] -> None
           | s :: _ -> Some { b with Q.select = [ s ] }) }
  in
  let q =
    Q.simple
      ~select:[ (col "E" "name", "name"); (col "E" "sal", "sal") ]
      ~from:[ base w.Workload.Schemas.cat ~alias:"E" "Emp" ] ()
  in
  let _, _, diags = run_checked [ [ broken ] ] q in
  check_has "column-dropping rule" "schema-change" diags

(* ------------------------------------------------------------------ *)
(* False-positive guard: every real optimizer output lints clean *)

let spj_of_pieces ?(order_by = []) (p : Workload.Schemas.join_pieces) :
  Systemr.Spj.t =
  Systemr.Spj.make ~order_by
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

let systemr_configs =
  [ ("default", Systemr.Join_order.default_config);
    ("bushy", { Systemr.Join_order.default_config with bushy = true });
    ("no interesting orders",
     { Systemr.Join_order.default_config with interesting_orders = false });
    ("1979", Systemr.Join_order.system_r_1979) ]

let test_systemr_plans_clean () =
  List.iter
    (fun (shape_name, shape) ->
       let p = Workload.Schemas.join_shape ~rows:60 ~shape ~n:5 () in
       let order_by = [ (cref "R1" "a", Algebra.Asc) ] in
       let q = spj_of_pieces ~order_by p in
       List.iter
         (fun (cfg_name, config) ->
            let res =
              Systemr.Join_order.optimize ~config p.Workload.Schemas.jcat
                p.Workload.Schemas.jdb q
            in
            check_clean
              (Printf.sprintf "System-R %s/%s plan" shape_name cfg_name)
              (Verify.physical p.Workload.Schemas.jcat
                 res.Systemr.Join_order.best.Systemr.Candidate.plan))
         systemr_configs)
    [ ("chain", Workload.Schemas.Chain_q);
      ("star", Workload.Schemas.Star_q);
      ("clique", Workload.Schemas.Clique_q) ]

let test_systemr_emp_dept_clean () =
  let w = ed () in
  let cat = w.Workload.Schemas.cat in
  let rel alias table =
    { Systemr.Spj.alias; table;
      schema =
        Schema.requalify (Storage.Catalog.table cat table).Storage.Table.schema
          ~rel:alias }
  in
  (* indexed equi-join with an interesting order: exercises Index_scan,
     Index_nl, Merge_join and Sort enforcers *)
  let q =
    Systemr.Spj.make
      ~relations:[ rel "E" "Emp"; rel "D" "Dept" ]
      ~predicates:[ eq (col "E" "did") (col "D" "did");
                    Expr.Cmp (Expr.Gt, col "E" "sal", Expr.int 1000) ]
      ~order_by:[ (cref "E" "did", Algebra.Asc) ] ()
  in
  List.iter
    (fun (cfg_name, config) ->
       let res =
         Systemr.Join_order.optimize ~config cat w.Workload.Schemas.db q
       in
       check_clean ("System-R emp/dept " ^ cfg_name)
         (Verify.physical cat res.Systemr.Join_order.best.Systemr.Candidate.plan))
    systemr_configs

let test_cascades_plans_clean () =
  List.iter
    (fun (shape_name, shape) ->
       let p = Workload.Schemas.join_shape ~rows:60 ~shape ~n:5 () in
       let q = spj_of_pieces p in
       let res =
         Cascades.Search.optimize p.Workload.Schemas.jcat
           p.Workload.Schemas.jdb q
       in
       check_clean
         (Printf.sprintf "Cascades %s plan" shape_name)
         (Verify.physical p.Workload.Schemas.jcat
            res.Cascades.Search.best.Systemr.Candidate.plan))
    [ ("chain", Workload.Schemas.Chain_q);
      ("star", Workload.Schemas.Star_q);
      ("clique", Workload.Schemas.Clique_q) ]

(* Rewrite + pipeline scenarios from the rewrite test suite, re-run with
   lint on: the oracle checks every rule application and every plan
   (including materialized view sub-plans). *)
let lint_pipeline name ?(config = Core.Pipeline.default_config)
    (w : Workload.Schemas.emp_dept) q =
  let config = { config with Core.Pipeline.lint = true } in
  let _, report =
    Core.Pipeline.run ~config w.Workload.Schemas.cat w.Workload.Schemas.db q
  in
  check_clean name report.Core.Pipeline.diags

let test_pipeline_lint_clean () =
  let w = ed () in
  let cat = w.Workload.Schemas.cat in
  (* correlated IN (unnests to a semijoin) *)
  let in_sub =
    Q.simple
      ~select:[ (col "D" "did", "did") ]
      ~from:[ base cat ~alias:"D" "Dept" ]
      ~where:[ eq (col "D" "loc") (Expr.str "Denver");
               eq (col "E" "eid") (col "D" "mgr") ] ()
  in
  let in_query =
    { (Q.simple ~select:[ (col "E" "name", "name") ]
         ~from:[ base cat ~alias:"E" "Emp" ] ())
      with Q.where = [ Q.In_sub (col "E" "did", in_sub) ] }
  in
  lint_pipeline "correlated IN pipeline" w in_query;
  (* correlated COUNT (the count-bug query, correct rules) *)
  lint_pipeline "correlated COUNT pipeline" w (count_query w);
  (* grouped join with an ORDER BY *)
  let grouped =
    Q.simple
      ~select:[ (Expr.col ~rel:"" ~col:"did", "did");
                (Expr.col ~rel:"" ~col:"total", "total") ]
      ~from:[ base cat ~alias:"E" "Emp"; base cat ~alias:"D" "Dept" ]
      ~where:[ eq (col "E" "did") (col "D" "did") ]
      ~group_by:[ (col "E" "did", "did") ]
      ~aggs:[ (Expr.Sum (col "E" "sal"), "total") ] ()
  in
  lint_pipeline "group-by pipeline" w grouped;
  lint_pipeline "eager group-by pipeline"
    ~config:
      { Core.Pipeline.default_config with
        rewrites = [ [ Rewrite.Groupby.rule ] ] }
    w grouped

let test_pipeline_lint_magic_clean () =
  let w = ed () in
  let cat = w.Workload.Schemas.cat in
  let view =
    Q.simple
      ~select:[ (Expr.col ~rel:"" ~col:"did", "did");
                (Expr.col ~rel:"" ~col:"avgsal", "avgsal") ]
      ~from:[ base cat ~alias:"E2" "Emp" ]
      ~group_by:[ (col "E2" "did", "did") ]
      ~aggs:[ (Expr.Avg (col "E2" "sal"), "avgsal") ] ()
  in
  let q =
    Q.simple
      ~select:[ (col "E" "eid", "eid"); (col "E" "sal", "sal") ]
      ~from:[ base cat ~alias:"E" "Emp"; base cat ~alias:"D" "Dept";
              Q.Derived { block = view; alias = "V" } ]
      ~where:[ eq (col "E" "did") (col "D" "did");
               eq (col "V" "did") (col "E" "did");
               Expr.Cmp (Expr.Lt, col "E" "age", Expr.int 30);
               Expr.Cmp (Expr.Gt, col "D" "budget", Expr.int 100_000);
               Expr.Cmp (Expr.Gt, col "E" "sal", col "V" "avgsal") ] ()
  in
  lint_pipeline "magic decorrelation pipeline"
    ~config:
      { Core.Pipeline.default_config with
        rewrites = [ [ Rewrite.Magic.rule ] ] }
    w q

let test_interpreted_path_lint_clean () =
  let w = ed () in
  (* no rewrites: the correlated query falls back to the interpreter, and
     lint checks the QGM block statically instead of a plan *)
  lint_pipeline "interpreted correlated query"
    ~config:Core.Pipeline.naive_config w (count_query w)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "verify"
    [ ( "logical",
        [ Alcotest.test_case "clean tree" `Quick test_logical_clean;
          Alcotest.test_case "renamed column" `Quick
            test_logical_renamed_column;
          Alcotest.test_case "out of scope" `Quick test_logical_out_of_scope;
          Alcotest.test_case "non-boolean predicate" `Quick
            test_logical_non_boolean_predicate;
          Alcotest.test_case "type mismatch" `Quick
            test_logical_type_mismatch;
          Alcotest.test_case "ambiguous column" `Quick
            test_logical_ambiguous_column;
          Alcotest.test_case "duplicate projection alias" `Quick
            test_logical_duplicate_projection_alias;
          Alcotest.test_case "duplicate relation alias" `Quick
            test_logical_duplicate_relation_alias;
          Alcotest.test_case "bad aggregate argument" `Quick
            test_logical_bad_agg_arg ] );
      ( "physical",
        [ Alcotest.test_case "clean merge join" `Quick
            test_physical_clean_merge;
          Alcotest.test_case "dropped Sort" `Quick test_physical_dropped_sort;
          Alcotest.test_case "wrong Sort column" `Quick
            test_physical_wrong_sort_column;
          Alcotest.test_case "index scan delivers order" `Quick
            test_physical_index_scan_delivers_order;
          Alcotest.test_case "stream agg ordering" `Quick
            test_physical_stream_agg_unsorted;
          Alcotest.test_case "unknown index" `Quick
            test_physical_unknown_index;
          Alcotest.test_case "index nested loop" `Quick
            test_physical_index_nl;
          Alcotest.test_case "index prefix mismatch" `Quick
            test_physical_index_prefix_mismatch;
          Alcotest.test_case "key type mismatch" `Quick
            test_physical_key_type_mismatch;
          Alcotest.test_case "unknown table" `Quick
            test_physical_unknown_table;
          Alcotest.test_case "renamed filter column" `Quick
            test_physical_renamed_filter_column ] );
      ( "rewrite-oracle",
        [ Alcotest.test_case "count bug flagged" `Quick
            test_count_bug_naive_flagged;
          Alcotest.test_case "correct unnest clean" `Quick
            test_count_bug_correct_rule_clean;
          Alcotest.test_case "view merge clean" `Quick
            test_default_rules_clean_on_views;
          Alcotest.test_case "schema change detected" `Quick
            test_schema_change_detected ] );
      ( "no-false-positives",
        [ Alcotest.test_case "System-R shapes" `Quick
            test_systemr_plans_clean;
          Alcotest.test_case "System-R emp/dept" `Quick
            test_systemr_emp_dept_clean;
          Alcotest.test_case "Cascades shapes" `Quick
            test_cascades_plans_clean;
          Alcotest.test_case "pipeline scenarios" `Quick
            test_pipeline_lint_clean;
          Alcotest.test_case "magic decorrelation" `Quick
            test_pipeline_lint_magic_clean;
          Alcotest.test_case "interpreted fallback" `Quick
            test_interpreted_path_lint_clean ] ) ]
