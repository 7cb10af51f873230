(* Static-analyzer tests: per-operator transfer-function goldens (scans,
   selections, outer joins, GROUP BY, UNION, empty tables), an
   envelope-containment property against the interpreter, the
   contradictory-predicate fold checked across the full oracle grid, and
   the seeded-corruption mutation test for the provable-bound lints. *)

open Relalg
module A = Analysis.Absint
module D = Analysis.Domain
module Q = Rewrite.Qgm

let col r c = Expr.col ~rel:r ~col:c
let eq a b = Expr.Cmp (Expr.Eq, a, b)
let gt a b = Expr.Cmp (Expr.Gt, a, b)
let lt a b = Expr.Cmp (Expr.Lt, a, b)

let base cat ?alias name : Q.source =
  let alias = Option.value alias ~default:name in
  Q.Base
    { table = name; alias;
      schema =
        Schema.requalify (Storage.Catalog.table cat name).Storage.Table.schema
          ~rel:alias }

(* Hand-built catalog with fully-known contents, so the analyzer's facts
   (which come from exact full-scan statistics) have checkable goldens:

   R(a NOT NULL, b): (1,10) (2,20) (2,NULL) (3,30)   -- a in [1,3]
   S(a NOT NULL, c NOT NULL): (2,200) (3,300) (5,500) -- a in [2,5]
   Void(x): empty *)
let mk_db () =
  let cat = Storage.Catalog.create () in
  let r =
    Storage.Catalog.create_table cat ~name:"R" ~non_null:[ "a" ]
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
  in
  let s =
    Storage.Catalog.create_table cat ~name:"S" ~non_null:[ "a"; "c" ]
      ~columns:[ ("a", Value.Tint); ("c", Value.Tint) ]
  in
  ignore
    (Storage.Catalog.create_table cat ~name:"Void"
       ~columns:[ ("x", Value.Tint) ]);
  List.iter
    (fun (a, b) -> Storage.Table.insert r (Tuple.of_list [ a; b ]))
    [ (Value.Int 1, Value.Int 10); (Value.Int 2, Value.Int 20);
      (Value.Int 2, Value.Null); (Value.Int 3, Value.Int 30) ];
  List.iter
    (fun (a, c) -> Storage.Table.insert s (Tuple.of_list [ a; c ]))
    [ (Value.Int 2, Value.Int 200); (Value.Int 3, Value.Int 300);
      (Value.Int 5, Value.Int 500) ];
  (cat, Stats.Table_stats.analyze_catalog cat)

let rel_schema cat ?alias name =
  let alias = Option.value alias ~default:name in
  Schema.requalify (Storage.Catalog.table cat name).Storage.Table.schema
    ~rel:alias

let aval st name =
  match A.col_aval st name with
  | Some a -> a
  | None -> Alcotest.failf "no abstract value for column %s" name

let check_null name expect (a : D.aval) =
  Alcotest.(check bool) name true (a.D.null = expect)

(* ---------- scans ---------- *)

let test_scan () =
  let cat, db = mk_db () in
  let st = A.scan ~db ~table:"R" ~alias:"R" (rel_schema cat "R") in
  Alcotest.(check bool) "R scan: envelope is exactly 4 rows" true
    (st.A.env = D.env_exact 4.);
  let a = aval st "a" and b = aval st "b" in
  check_null "R.a is provably non-null" D.Non_null a;
  check_null "R.b may be null" D.Maybe_null b;
  Alcotest.(check bool) "R.a interval covers the data" true
    (D.contains a.D.itv 1. && D.contains a.D.itv 3.);
  Alcotest.(check bool) "R.a interval excludes 0 and 4" true
    (not (D.contains a.D.itv 0.) && not (D.contains a.D.itv 4.));
  (* without statistics only declared nullability is known *)
  let dry = A.scan ~table:"R" ~alias:"R" (rel_schema cat "R") in
  Alcotest.(check bool) "db-less scan: envelope is top" true
    (dry.A.env = D.env_top);
  check_null "db-less scan still proves NOT NULL" D.Non_null (aval dry "a")

let test_empty_table () =
  let cat, db = mk_db () in
  let st = A.scan ~db ~table:"Void" ~alias:"V" (rel_schema cat ~alias:"V" "Void") in
  Alcotest.(check bool) "empty table scan: provably empty" true
    (D.env_is_empty st.A.env);
  (* joining anything against a provably-empty table stays empty *)
  let blk =
    Q.simple
      ~select:[ (col "R" "a", "a"); (col "V" "x", "x") ]
      ~from:[ base cat "R"; base cat ~alias:"V" "Void" ]
      ~where:[ eq (col "R" "a") (col "V" "x") ] ()
  in
  Alcotest.(check bool) "join against empty table: provably empty" true
    (D.env_is_empty (A.of_block ~db blk).A.env)

(* ---------- selection ---------- *)

let test_select () =
  let cat, db = mk_db () in
  let blk =
    Q.simple
      ~select:[ (col "R" "a", "a"); (col "R" "b", "b") ]
      ~from:[ base cat "R" ]
      ~where:[ gt (col "R" "a") (Expr.int 2) ] ()
  in
  let st = A.of_block ~db blk in
  let actual =
    float_of_int (Array.length (Rewrite.Qgm_eval.run cat blk).Exec.Executor.rows)
  in
  Alcotest.(check bool) "a > 2: envelope contains the actual count" true
    (D.env_contains st.A.env actual);
  Alcotest.(check bool) "a > 2: upper bound never exceeds the input" true
    (st.A.env.D.e_hi <= 4.);
  let a = aval st "a" in
  Alcotest.(check bool) "a > 2 refines the interval" true
    (D.contains a.D.itv 3. && not (D.contains a.D.itv 2.));
  check_null "predicate on a proves it non-null" D.Non_null a

let test_contradiction () =
  let cat, db = mk_db () in
  let blk =
    Q.simple
      ~select:[ (col "R" "a", "a") ]
      ~from:[ base cat "R" ]
      ~where:[ gt (col "R" "a") (Expr.int 2); lt (col "R" "a") (Expr.int 2) ] ()
  in
  Alcotest.(check bool) "a > 2 AND a < 2: provably empty" true
    (D.env_is_empty (A.of_block ~db blk).A.env);
  (* integer tightening: a > 1 AND a < 2 has no integer solution *)
  let blk' =
    { blk with
      Q.where = [ Q.P (gt (col "R" "a") (Expr.int 1));
                  Q.P (lt (col "R" "a") (Expr.int 2)) ] }
  in
  Alcotest.(check bool) "1 < a < 2 on an int column: provably empty" true
    (D.env_is_empty (A.of_block ~db blk').A.env)

(* ---------- joins ---------- *)

let test_inner_join () =
  let cat, db = mk_db () in
  let blk =
    Q.simple
      ~select:[ (col "R" "a", "a"); (col "S" "c", "c") ]
      ~from:[ base cat "R"; base cat "S" ]
      ~where:[ eq (col "R" "a") (col "S" "a") ] ()
  in
  let st = A.of_block ~db blk in
  let actual =
    float_of_int (Array.length (Rewrite.Qgm_eval.run cat blk).Exec.Executor.rows)
  in
  Alcotest.(check (float 0.)) "inner join actual" 3. actual;
  Alcotest.(check bool) "inner join: envelope contains the actual count" true
    (D.env_contains st.A.env actual);
  Alcotest.(check bool) "inner join: bounded by the cross product" true
    (st.A.env.D.e_hi <= 12.);
  check_null "join column stays non-null" D.Non_null (aval st "a")

let test_left_outer_join () =
  let cat, db = mk_db () in
  let l = A.scan ~db ~table:"R" ~alias:"R" (rel_schema cat "R") in
  let r = A.scan ~db ~table:"S" ~alias:"S" (rel_schema cat "S") in
  let st = A.left_outer_join l r (eq (col "R" "a") (col "S" "a")) in
  (* every left row appears at least once *)
  Alcotest.(check bool) "left outer: at least the left input's rows" true
    (st.A.env.D.e_lo >= 4.);
  Alcotest.(check bool) "left outer: envelope contains the actual count" true
    (D.env_contains st.A.env 4.);
  (* NULL padding demotes the right side, even declared-NOT NULL columns;
     both sides expose an [a], so look up by qualified key *)
  check_null "padded right column loses non-null" D.Maybe_null
    (List.assoc ("S", "c") st.A.cols);
  check_null "left column keeps non-null" D.Non_null
    (List.assoc ("R", "a") st.A.cols)

(* ---------- grouping ---------- *)

let test_group_by () =
  let cat, db = mk_db () in
  let gcol c = (Expr.col ~rel:"" ~col:c, c) in
  let blk =
    Q.simple
      ~select:[ gcol "a"; gcol "cnt"; gcol "mn"; gcol "sm" ]
      ~group_by:[ (col "R" "a", "a") ]
      ~aggs:
        [ (Expr.Count_star, "cnt"); (Expr.Min (col "R" "b"), "mn");
          (Expr.Sum (col "R" "b"), "sm") ]
      ~from:[ base cat "R" ] ()
  in
  let st = A.of_block ~db blk in
  let actual =
    float_of_int (Array.length (Rewrite.Qgm_eval.run cat blk).Exec.Executor.rows)
  in
  Alcotest.(check (float 0.)) "group by actual" 3. actual;
  Alcotest.(check bool) "group by: envelope contains the group count" true
    (D.env_contains st.A.env actual);
  Alcotest.(check bool) "group by: no more groups than input rows" true
    (st.A.env.D.e_hi <= 4.);
  let cnt = aval st "cnt" in
  check_null "COUNT(*) is non-null" D.Non_null cnt;
  Alcotest.(check bool) "COUNT(*) of a keyed group is >= 1" true
    (not (D.contains cnt.D.itv 0.));
  (* b holds NULL, so MIN(b)/SUM(b) may be NULL within a group *)
  check_null "MIN over a nullable column may be null" D.Maybe_null
    (aval st "mn");
  (* scalar aggregate over a non-empty input yields exactly one row *)
  let scalar =
    Q.simple
      ~select:[ (Expr.col ~rel:"" ~col:"cnt", "cnt") ]
      ~aggs:[ (Expr.Count_star, "cnt") ]
      ~from:[ base cat "R" ] ()
  in
  let sst = A.of_block ~db scalar in
  Alcotest.(check bool) "scalar aggregate: exactly one row" true
    (sst.A.env = D.env_exact 1.)

(* ---------- union ---------- *)

let test_union () =
  let cat, db = mk_db () in
  let arm () =
    Q.simple
      ~select:[ (col "R" "a", "a"); (col "R" "b", "b") ]
      ~from:[ base cat "R" ] ()
  in
  let all =
    Q.Q_union { all = true; left = Q.Q_block (arm ()); right = Q.Q_block (arm ()) }
  in
  let st = A.of_query ~db all in
  Alcotest.(check bool) "UNION ALL of two exact arms is exact" true
    (st.A.env = D.env_exact 8.);
  let dis =
    Q.Q_union { all = false; left = Q.Q_block (arm ()); right = Q.Q_block (arm ()) }
  in
  let dst = A.of_query ~db dis in
  let actual =
    float_of_int
      (Array.length (Rewrite.Qgm_eval.run_query cat dis).Exec.Executor.rows)
  in
  Alcotest.(check bool) "UNION: envelope contains the deduplicated count" true
    (D.env_contains dst.A.env actual);
  Alcotest.(check bool) "UNION arms' nullability joins" true
    ((aval dst "b").D.null = D.Maybe_null
     && (aval dst "a").D.null = D.Non_null)

(* ------------------------------------------------------------------ *)
(* Envelope containment property: over random range/equality predicates
   on the emp_dept workload, the interpreter's actual row count must lie
   inside the analyzer's envelope, claimed-non-null output columns must
   hold no NULLs, and non-null values must lie inside claimed
   intervals. *)

let prop_envelope_contains =
  let w = Workload.Schemas.emp_dept ~emps:300 ~depts:12 ~empty_dept_frac:0.25 () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  let gen =
    QCheck.Gen.(
      tup4 (int_range 0 200_000) (int_range 0 200_000)
        (oneofl [ "sal"; "age"; "did" ])
        bool)
  in
  QCheck.Test.make ~name:"analyzer envelope contains interpreter actuals"
    ~count:120
    (QCheck.make gen)
    (fun (x, y, c, with_join) ->
       let lo = min x y and hi = max x y in
       let from, where0 =
         if with_join then
           ( [ base cat ~alias:"E" "Emp"; base cat ~alias:"D" "Dept" ],
             [ eq (col "E" "did") (col "D" "did") ] )
         else ([ base cat ~alias:"E" "Emp" ], [])
       in
       let blk =
         Q.simple
           ~select:[ (col "E" "eid", "eid"); (col "E" c, "v") ]
           ~from
           ~where:
             (where0
              @ [ Expr.Cmp (Expr.Ge, col "E" c, Expr.int lo);
                  Expr.Cmp (Expr.Le, col "E" c, Expr.int hi) ]) ()
       in
       let st = A.of_block ~db blk in
       let rows = (Rewrite.Qgm_eval.run cat blk).Exec.Executor.rows in
       let actual = float_of_int (Array.length rows) in
       if not (D.env_contains st.A.env actual) then
         QCheck.Test.fail_reportf
           "actual %g outside envelope %a for %s in [%d,%d] join=%b" actual
           D.pp_envelope st.A.env c lo hi with_join;
       List.iteri
         (fun j (_, (a : D.aval)) ->
            Array.iter
              (fun t ->
                 let v = Tuple.get t j in
                 match Value.to_float v with
                 | _ when Value.is_null v ->
                   if a.D.null = D.Non_null then
                     QCheck.Test.fail_reportf
                       "column %d: NULL despite a non-null claim" j
                 | Some f ->
                   if not (D.contains a.D.itv f) then
                     QCheck.Test.fail_reportf
                       "column %d: value %g outside interval %a" j f
                       D.pp_interval a.D.itv
                 | None -> ())
              rows)
         st.A.cols;
       true)

(* ------------------------------------------------------------------ *)
(* Acceptance: a contradictory-predicate query must fold to a provably
   empty plan under [analysis] and return identical (zero-row) results
   across every engine x optimizer configuration of the oracle grid. *)

let test_contradiction_grid () =
  let w = Workload.Schemas.emp_dept ~emps:400 ~depts:20 () in
  let blk () =
    Q.simple
      ~select:[ (col "E" "name", "name"); (col "D" "name", "dept") ]
      ~from:[ base w.Workload.Schemas.cat ~alias:"E" "Emp";
              base w.Workload.Schemas.cat ~alias:"D" "Dept" ]
      ~where:
        [ eq (col "E" "did") (col "D" "did");
          gt (col "E" "sal") (Expr.int 100_000);
          lt (col "E" "sal") (Expr.int 50_000) ] ()
  in
  Alcotest.(check bool) "grid has at least six configurations" true
    (List.length Fuzz.Oracle.full_grid >= 6);
  List.iter
    (fun (cfg : Fuzz.Oracle.cfg) ->
       let res, report =
         Core.Pipeline.run ~config:cfg.Fuzz.Oracle.config
           w.Workload.Schemas.cat w.Workload.Schemas.db (blk ())
       in
       Alcotest.(check int)
         (Printf.sprintf "%s: contradictory query returns no rows"
            cfg.Fuzz.Oracle.cname)
         0
         (Array.length res.Exec.Executor.rows);
       (* under analysis, the fold is syntactic: WHERE collapses to FALSE *)
       if cfg.Fuzz.Oracle.config.Core.Pipeline.analysis then
         Alcotest.(check bool)
           (Printf.sprintf "%s: rewritten WHERE is the false constant"
              cfg.Fuzz.Oracle.cname)
           true
           (match report.Core.Pipeline.rewritten.Q.where with
            | [ Q.P (Expr.Const (Value.Bool false)) ] -> true
            | _ -> false))
    Fuzz.Oracle.full_grid

(* ------------------------------------------------------------------ *)
(* Mutation test: corrupting the cardinality estimator must trip the
   provable-bound lint, and the honest estimator must not. *)

let test_est_mutation () =
  let w = Workload.Schemas.emp_dept ~emps:400 ~depts:20 () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  let blk =
    Q.simple
      ~select:[ (col "E" "eid", "eid"); (col "E" "sal", "sal") ]
      ~from:[ base cat ~alias:"E" "Emp" ] ()
  in
  let _, report = Core.Pipeline.run cat db blk in
  let plan =
    match report.Core.Pipeline.plan with
    | Some p -> p
    | None -> Alcotest.fail "base-table scan was not planned"
  in
  let corrupted =
    Analysis.Lint.physical ~est:(fun _ -> Some 0.) cat db plan
  in
  Alcotest.(check bool)
    "zeroed estimator trips est-zero-nonempty" true
    (Verify.Diag.mem ~code:"est-zero-nonempty" corrupted);
  let inflated =
    Analysis.Lint.physical ~est:(fun _ -> Some 1e12) cat db plan
  in
  Alcotest.(check bool)
    "inflated estimator trips est-above-envelope" true
    (Verify.Diag.mem ~code:"est-above-envelope" inflated);
  let honest =
    Analysis.Lint.physical
      ~est:(Obs.Est.card (Obs.Est.annotate cat db plan))
      cat db plan
  in
  Alcotest.(check int) "honest estimator is clean on an exact-stats scan" 0
    (List.length honest)

(* A plan the analyzer cannot digest is reported at the failing node,
   never dropped silently, and the lint does not raise. *)
let test_analysis_failed () =
  let cat, db = mk_db () in
  let scan =
    Exec.Plan.Seq_scan { table = "Missing"; alias = "M"; filter = None }
  in
  let plan = Exec.Plan.Filter (gt (col "M" "x") (Expr.int 0), scan) in
  match Analysis.Lint.physical ~est:(fun _ -> Some 1.) cat db plan with
  | [ d ] ->
    Alcotest.(check string) "code" "analysis-failed" d.Verify.Diag.code;
    Alcotest.(check (list string)) "names the failing node"
      [ Exec.Plan.describe scan ] d.Verify.Diag.path;
    Alcotest.(check string) "carries the exception text"
      "plan analysis failed: \
       Invalid_argument(\"Catalog.find: no such table Missing\")"
      d.Verify.Diag.message
  | ds ->
    Alcotest.failf "expected one analysis-failed diagnostic, got %d"
      (List.length ds)

(* The lint checks the estimates the planner used: a feedback entry far
   above the provable envelope for Emp ⋈ Dept overrides the planner's
   estimate, so the lint must see it too. *)
let test_lint_reads_feedback () =
  let w = Workload.Schemas.emp_dept ~emps:400 ~depts:20 () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  let blk =
    Q.simple
      ~select:[ (col "E" "eid", "eid"); (col "D" "did", "did") ]
      ~from:[ base cat ~alias:"E" "Emp"; base cat ~alias:"D" "Dept" ]
      ~where:[ eq (col "E" "did") (col "D" "did") ] ()
  in
  let config fb =
    { Core.Pipeline.default_config with
      analysis = true; estimator = `Feedback fb }
  in
  let _, report =
    Core.Pipeline.run ~config:(config (Stats.Feedback.create ())) cat db blk
  in
  let plan = Option.get report.Core.Pipeline.plan in
  let key, tables =
    snd
      (List.find
         (fun (_, (_, tables)) -> List.sort compare tables = [ "Dept"; "Emp" ])
         (Obs.Est.feedback_keys plan))
  in
  let fb = Stats.Feedback.create () in
  Stats.Feedback.record fb ~db ~tables key 1e9;
  let _, report = Core.Pipeline.run ~config:(config fb) cat db blk in
  Alcotest.(check bool) "feedback estimate escapes the envelope" true
    (Verify.Diag.mem ~code:"est-above-envelope" report.Core.Pipeline.diags)

let () =
  Alcotest.run "analysis"
    [ ("transfer functions",
       [ Alcotest.test_case "scan" `Quick test_scan;
         Alcotest.test_case "empty table" `Quick test_empty_table;
         Alcotest.test_case "selection" `Quick test_select;
         Alcotest.test_case "contradiction" `Quick test_contradiction;
         Alcotest.test_case "inner join" `Quick test_inner_join;
         Alcotest.test_case "left outer join" `Quick test_left_outer_join;
         Alcotest.test_case "group by" `Quick test_group_by;
         Alcotest.test_case "union" `Quick test_union ]);
      ("soundness",
       [ QCheck_alcotest.to_alcotest prop_envelope_contains ]);
      ("acceptance",
       [ Alcotest.test_case "contradiction folds across the grid" `Quick
           test_contradiction_grid;
         Alcotest.test_case "estimator-corruption lint" `Quick
           test_est_mutation;
         Alcotest.test_case "analysis-failed diagnostic" `Quick
           test_analysis_failed;
         Alcotest.test_case "lint reads planner feedback" `Quick
           test_lint_reads_feedback ]) ]
