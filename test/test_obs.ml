(* Observability tests: q-error arithmetic, EXPLAIN ANALYZE golden output
   on the paper's Emp/Dept schema, cross-engine agreement of per-operator
   actuals, and well-formedness of the hand-built trace JSON. *)

open Relalg

(* ------------------------------------------------------------------ *)
(* q-error arithmetic *)

let test_q_error () =
  let q = Obs.Analyze.q_error in
  Alcotest.(check (float 1e-9)) "exact" 1.0 (q ~est:5. ~act:5.);
  Alcotest.(check (float 1e-9)) "underestimate" 2.0 (q ~est:5. ~act:10.);
  Alcotest.(check (float 1e-9)) "overestimate" 4.0 (q ~est:20. ~act:5.);
  Alcotest.(check (float 1e-9)) "both zero" 1.0 (q ~est:0. ~act:0.);
  Alcotest.(check bool) "est zero, rows produced" true
    (q ~est:0. ~act:3. = infinity);
  Alcotest.(check bool) "rows estimated, none produced" true
    (q ~est:3. ~act:0. = infinity)

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE goldens on Emp/Dept (deterministic workload data;
   [show_wall:false] drops the only nondeterministic column) *)

let emp_dept () =
  let w = Workload.Schemas.emp_dept ~emps:200 ~depts:10 () in
  (w.Workload.Schemas.cat, w.Workload.Schemas.db)

let analyze_text ?(engine = `Batch) sql =
  let cat, db = emp_dept () in
  let q = Sql.Binder.query_of_string cat sql in
  let config = { Core.Pipeline.default_config with engine } in
  let _, _, text =
    Core.Pipeline.analyze_query ~config ~show_wall:false cat db q
  in
  text

let test_analyze_golden_join () =
  Alcotest.(check string) "annotated join plan"
    "[ 0] Project Emp.name AS name, Dept.name AS name      \
     est=200.0 act=200 q=1.00 rescans=0 seq=0 rand=0 spill=0 cpu=200\n\
     [ 1]   Hash Join (Emp.did = Dept.did)                 \
     est=200.0 act=200 q=1.00 rescans=0 seq=0 rand=0 spill=0 cpu=410\n\
     [ 2]     Table Scan Emp                               \
     est=200.0 act=200 q=1.00 rescans=0 seq=3 rand=0 spill=0 cpu=200\n\
     [ 3]     Table Scan Dept                              \
     est=10.0 act=10 q=1.00 rescans=0 seq=1 rand=0 spill=0 cpu=10\n\
     max q-error: 1.00 at op 0 (Project Emp.name AS name, Dept.name AS \
     name)\n"
    (analyze_text
       "SELECT Emp.name, Dept.name FROM Emp, Dept WHERE Emp.did = Dept.did")

let test_analyze_golden_agg () =
  Alcotest.(check string) "annotated aggregate plan"
    "[ 0] Project name, agg0                               \
     est=10.0 act=9 q=1.11 rescans=0 seq=0 rand=0 spill=0 cpu=9\n\
     [ 1]   Hash Aggregate [Dept.name | COUNT(*) AS agg0]  \
     est=10.0 act=9 q=1.11 rescans=0 seq=0 rand=0 spill=0 cpu=170\n\
     [ 2]     Hash Join (Emp.did = Dept.did)               \
     est=170.0 act=170 q=1.00 rescans=0 seq=0 rand=0 spill=0 cpu=350\n\
     [ 3]       Table Scan Emp [Emp.sal > 60000]           \
     est=170.0 act=170 q=1.00 rescans=0 seq=3 rand=0 spill=0 cpu=200\n\
     [ 4]       Table Scan Dept                            \
     est=10.0 act=10 q=1.00 rescans=0 seq=1 rand=0 spill=0 cpu=10\n\
     max q-error: 1.11 at op 0 (Project name, agg0)\n"
    (analyze_text
       "SELECT Dept.name, COUNT(*) FROM Emp, Dept \
        WHERE Emp.did = Dept.did AND Emp.sal > 60000 GROUP BY Dept.name")

(* Engine choice must not change the analyzed actuals (wall clock aside). *)
let test_analyze_engine_independent () =
  let sql =
    "SELECT Emp.name, Dept.name FROM Emp, Dept WHERE Emp.did = Dept.did"
  in
  Alcotest.(check string) "same text under both engines"
    (analyze_text ~engine:`Interpreted sql)
    (analyze_text ~engine:`Batch sql)

(* ------------------------------------------------------------------ *)
(* Property: both engines report identical per-operator actuals — same
   operator ids, same cold row counts, same rescan counts — on random
   data across every plan shape. *)

let mk_catalog rs ss =
  let cat = Storage.Catalog.create () in
  let r = Storage.Catalog.create_table cat ~name:"R"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ] in
  let s = Storage.Catalog.create_table cat ~name:"S"
      ~columns:[ ("a", Value.Tint); ("c", Value.Tint) ] in
  List.iter (fun (a, b) -> Storage.Table.insert r (Tuple.of_list [ a; b ])) rs;
  List.iter (fun (a, c) -> Storage.Table.insert s (Tuple.of_list [ a; c ])) ss;
  cat

let scan t = Exec.Plan.Seq_scan { table = t; alias = t; filter = None }
let pair = ({ Expr.rel = "R"; col = "a" }, { Expr.rel = "S"; col = "a" })

let join_pred =
  Expr.Cmp (Expr.Eq, Expr.col ~rel:"R" ~col:"a", Expr.col ~rel:"S" ~col:"a")

let sort_on rel col input =
  Exec.Plan.Sort
    ([ { Exec.Plan.key = Expr.col ~rel ~col; descending = false } ], input)

let actuals_of run cat plan =
  let ctx = Exec.Context.create ~buffer_pages:4 ~work_mem_pages:2 () in
  let obs = Exec.Instrument.create plan in
  let (_ : Exec.Executor.result) = run ~ctx ~obs cat plan in
  List.map
    (fun (o : Exec.Instrument.op) ->
       (o.Exec.Instrument.id, o.Exec.Instrument.act_rows,
        o.Exec.Instrument.rescans, o.Exec.Instrument.executed))
    (Exec.Instrument.ops obs)

let actuals_agree cat plan =
  actuals_of (fun ~ctx ~obs -> Exec.Executor.run ~ctx ~obs) cat plan
  = actuals_of (fun ~ctx ~obs cat plan -> Exec.Batch.run ~ctx ~obs cat plan)
      cat plan

let kinds = [ Algebra.Inner; Algebra.Semi; Algebra.Anti; Algebra.Left_outer ]

let arb_rows =
  QCheck.(list_of_size Gen.(int_range 0 25)
            (pair (int_range 0 6) (int_range 0 60)))

let prop_actuals_cross_engine =
  QCheck.Test.make ~name:"engines report identical per-operator actuals"
    ~count:50
    (QCheck.pair arb_rows arb_rows)
    (fun (rs, ss) ->
       let mk (a, b) = (Value.Int a, Value.Int b) in
       let cat = mk_catalog (List.map mk rs) (List.map mk ss) in
       let plans =
         List.map
           (fun kind ->
              Exec.Plan.Nested_loop
                { kind; pred = join_pred; outer = scan "R"; inner = scan "S" })
           kinds
         @ List.map
             (fun kind ->
                Exec.Plan.Nested_loop
                  { kind; pred = join_pred; outer = scan "R";
                    inner =
                      Exec.Plan.Filter
                        ( Expr.Cmp
                            (Expr.Ge, Expr.col ~rel:"S" ~col:"c", Expr.int 30),
                          scan "S" ) })
             kinds
         @ List.map
             (fun kind ->
                Exec.Plan.Hash_join
                  { kind; pairs = [ pair ]; residual = Expr.ftrue;
                    left = scan "R"; right = scan "S" })
             kinds
         @ [ Exec.Plan.Nested_loop
               { kind = Algebra.Inner; pred = join_pred; outer = scan "R";
                 inner = Exec.Plan.Materialize (scan "S") };
             Exec.Plan.Merge_join
               { kind = Algebra.Inner; pairs = [ pair ];
                 residual = Expr.ftrue; left = sort_on "R" "a" (scan "R");
                 right = sort_on "S" "a" (scan "S") };
             Exec.Plan.Hash_agg
               { keys = [ (Expr.col ~rel:"R" ~col:"a", "a") ];
                 aggs = [ (Expr.Count_star, "n") ]; input = scan "R" };
             Exec.Plan.Hash_distinct
               (Exec.Plan.Project
                  ([ (Expr.col ~rel:"R" ~col:"a", "a") ], scan "R")) ]
       in
       List.for_all (actuals_agree cat) plans)

(* ------------------------------------------------------------------ *)
(* Trace JSON: every event the pipeline emits must pass the independent
   well-formedness checker, including non-finite floats. *)

let test_trace_json_wellformed () =
  let cat, db = emp_dept () in
  let sql =
    "SELECT Emp.name, Dept.name FROM Emp, Dept \
     WHERE Emp.did = Dept.did AND Emp.sal > 60000 ORDER BY Emp.name"
  in
  let q = Sql.Binder.query_of_string cat sql in
  let r = Obs.Span.create () in
  let config = { Core.Pipeline.default_config with telemetry = Some r } in
  let _ = Core.Pipeline.run_query ~config cat db q in
  let events = Obs.Span.events (Obs.Span.finish r) in
  Alcotest.(check bool) "pipeline emitted trace events" true (events <> []);
  let lines = String.concat "\n" (List.map Obs.Trace.to_json events) in
  (match Obs.Json.validate_lines lines with
   | Ok () -> ()
   | Error m -> Alcotest.failf "malformed trace JSON: %s" m);
  (* non-finite floats must serialize as null, not as "inf" *)
  let e =
    Obs.Trace.Feedback_override
      { digest = "00000000"; est = infinity; act = 3.5 }
  in
  let j = Obs.Trace.to_json e in
  (match Obs.Json.validate j with
   | Ok () -> ()
   | Error m -> Alcotest.failf "malformed JSON for infinite estimate: %s" m);
  Alcotest.(check bool) "infinity rendered as null" true
    (String.length j >= 4
     && (let found = ref false in
         String.iteri
           (fun i _ ->
              if i + 4 <= String.length j && String.sub j i 4 = "null" then
                found := true)
           j;
         !found))

let test_trace_events_off_by_default () =
  let cat, db = emp_dept () in
  let sql = "SELECT Emp.name FROM Emp WHERE Emp.sal > 60000" in
  let q = Sql.Binder.query_of_string cat sql in
  let _, reports = Core.Pipeline.run_query cat db q in
  Alcotest.(check bool) "telemetry off" true
    (Core.Pipeline.default_config.Core.Pipeline.telemetry = None);
  List.iter
    (fun r ->
       Alcotest.(check bool) "no span tree" true (r.Core.Pipeline.span = None);
       Alcotest.(check int) "no recorder" 0
         (List.length
            (Option.fold ~none:[] ~some:Obs.Span.recorders
               r.Core.Pipeline.span)))
    reports

(* A block handed to the tuple interpreter says so on its own span, naming
   the predicate that blocked planning; a planned block records no such
   event. *)
let test_fallback_event () =
  let cat, db = emp_dept () in
  let sql =
    "SELECT Dept.name FROM Dept WHERE EXISTS \
     (SELECT * FROM Emp WHERE Emp.did = Dept.did)"
  in
  let q = Sql.Binder.query_of_string cat sql in
  let fallbacks config =
    let r = Obs.Span.create () in
    let _, reports =
      Core.Pipeline.run_query ~config:{ config with Core.Pipeline.telemetry = Some r }
        cat db q
    in
    ignore (Obs.Span.finish r);
    List.concat_map
      (fun rep ->
         List.filter_map
           (function
             | Obs.Trace.Interpreted_fallback { reason } -> Some reason
             | _ -> None)
           (Option.get rep.Core.Pipeline.span).Obs.Span.events)
      reports
  in
  (match fallbacks Core.Pipeline.naive_config with
   | [ reason ] ->
     Alcotest.(check bool)
       (Printf.sprintf "reason names the EXISTS predicate: %s" reason)
       true
       (let prefix = "subquery predicate EXISTS (" in
        String.length reason > String.length prefix
        && String.sub reason 0 (String.length prefix) = prefix)
   | l -> Alcotest.failf "expected one fallback event, got %d" (List.length l));
  Alcotest.(check int) "planned: no fallback event" 0
    (List.length (fallbacks Core.Pipeline.default_config))

(* Regression: per-node estimates must be re-synthesized from the
   plan-time statistics snapshot ([report.stats_at_plan]), not the live
   registry.  [Obs.Est.annotate] rebuilds index-scan bound selectivities
   and scan cardinalities from whatever stats it is handed — against a
   registry refreshed after planning it reports numbers the planner
   never produced. *)
let test_annotate_uses_plan_time_stats () =
  let cat, db = emp_dept () in
  let sql =
    "SELECT Emp.name FROM Emp WHERE Emp.eid < 50 AND Emp.sal > 60000"
  in
  let q = Sql.Binder.query_of_string cat sql in
  let config =
    { Core.Pipeline.default_config with telemetry = Some (Obs.Span.create ()) }
  in
  let _, reports = Core.Pipeline.run_query ~config cat db q in
  let r = List.hd reports in
  let plan = Option.get r.Core.Pipeline.plan in
  let snap = Option.get r.Core.Pipeline.stats_at_plan in
  let ops =
    List.concat_map Exec.Instrument.ops
      (Obs.Span.recorders (Option.get r.Core.Pipeline.span))
  in
  (* grow the table and refresh the live registry behind the plan's back *)
  let t = Storage.Catalog.table cat "Emp" in
  for i = 0 to 399 do
    Storage.Table.insert t
      (Tuple.of_list
         [ Value.Int (10000 + i); Value.Str "late"; Value.Int (i mod 10);
           Value.Str "dept"; Value.Int 90000; Value.Int 33; Value.Int 1 ])
  done;
  Hashtbl.replace db "Emp" (Stats.Table_stats.analyze t);
  let against dbx =
    let est = Obs.Est.annotate cat dbx plan in
    List.map
      (fun (o : Exec.Instrument.op) -> Obs.Est.card est o.Exec.Instrument.node)
      ops
  in
  let planned =
    List.map
      (fun (o : Exec.Instrument.op) -> o.Exec.Instrument.est_rows)
      ops
  in
  Alcotest.(check bool) "snapshot annotation reproduces planner estimates"
    true
    (against snap = planned);
  Alcotest.(check bool) "live-registry annotation diverges after refresh"
    true
    (against db <> planned)

(* A view temporary's column statistics are computed when a reader asks
   for them: after a query whose outer block reads one view column, the
   temporary's other columns are still unforced in [stats_at_plan].  The
   snapshot stays usable once the temporary has left the catalog: its
   deferred columns read the temporary's rows, not the catalog's table of
   that name, so annotating against it reproduces the planner's
   estimates, and forcing a column late gives what eager ANALYZE of the
   view's rows gives. *)
let test_view_stats_on_demand () =
  let cat, db = emp_dept () in
  let view =
    "SELECT E.did AS did, COUNT(*) AS n, SUM(E.sal) AS total FROM Emp E \
     GROUP BY E.did"
  in
  let sql = "SELECT V.did FROM (" ^ view ^ ") AS V" in
  let config =
    { Core.Pipeline.default_config with telemetry = Some (Obs.Span.create ()) }
  in
  let _, reports =
    Core.Pipeline.run_query ~config cat db (Sql.Binder.query_of_string cat sql)
  in
  let r = List.hd reports in
  let snap = Option.get r.Core.Pipeline.stats_at_plan in
  let tmp, ts =
    match
      Hashtbl.fold
        (fun name ts acc ->
           if Storage.Catalog.is_temp_table name then (name, ts) :: acc
           else acc)
        snap []
    with
    | [ t ] -> t
    | l -> Alcotest.failf "expected one view temporary, got %d" (List.length l)
  in
  let forced () =
    List.filter_map
      (fun (n, c) -> if Lazy.is_val c then Some n else None)
      ts.Stats.Table_stats.cols
  in
  Alcotest.(check (list string)) "only the read column is computed" [ "did" ]
    (forced ());
  Alcotest.(check bool) "temporary left the catalog" false
    (Storage.Catalog.mem cat tmp);
  (* an empty stand-in under the temporary's name *)
  let stand_in =
    Storage.Catalog.create_table cat ~name:tmp
      ~columns:[ ("did", Value.Tint); ("n", Value.Tint); ("total", Value.Tint) ]
  in
  let plan = Option.get r.Core.Pipeline.plan in
  let est = Obs.Est.annotate cat snap plan in
  List.iter
    (fun (o : Exec.Instrument.op) ->
       Alcotest.(check (option (float 0.))) "planner estimate"
         o.Exec.Instrument.est_rows (Obs.Est.card est o.Exec.Instrument.node))
    (List.concat_map Exec.Instrument.ops
       (Obs.Span.recorders (Option.get r.Core.Pipeline.span)));
  let scan_n =
    Exec.Plan.Seq_scan
      { table = tmp; alias = "V";
        filter =
          Some (Expr.Cmp (Expr.Gt, Expr.col ~rel:"V" ~col:"n", Expr.int 3)) }
  in
  ignore (Obs.Est.annotate cat snap scan_n);
  Alcotest.(check (list string)) "a late read computes its column"
    [ "did"; "n" ] (forced ());
  (* eager ANALYZE of the view's rows *)
  let rows, _ =
    Core.Pipeline.run_query cat db (Sql.Binder.query_of_string cat view)
  in
  Array.iter (Storage.Table.insert stand_in) rows.Exec.Executor.rows;
  let want = Stats.Table_stats.analyze stand_in in
  Storage.Catalog.remove_table cat tmp;
  List.iter
    (fun name ->
       let a = Option.get (Stats.Table_stats.col want name)
       and b = Option.get (Stats.Table_stats.col ts name) in
       Alcotest.(check bool) (name ^ " = eager ANALYZE") true
         (compare a b = 0))
    [ "did"; "n"; "total" ]

(* Digests are stable fingerprints: equal inputs agree, different inputs
   (here) differ, and the format is 8 hex digits. *)
let test_digest () =
  let d1 = Obs.Trace.digest "select * from Emp" in
  let d2 = Obs.Trace.digest "select * from Emp" in
  let d3 = Obs.Trace.digest "select * from Dept" in
  Alcotest.(check string) "deterministic" d1 d2;
  Alcotest.(check bool) "discriminates" true (d1 <> d3);
  Alcotest.(check int) "8 hex chars" 8 (String.length d1);
  String.iter
    (fun c ->
       Alcotest.(check bool) "hex digit" true
         ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    d1

(* ------------------------------------------------------------------ *)
(* Span recorder: golden tree shape on the join query, nesting
   invariants, exception safety. *)

let join_sql =
  "SELECT Emp.name, Dept.name FROM Emp, Dept WHERE Emp.did = Dept.did"

let run_with_spans ?(config = Core.Pipeline.default_config) sql =
  let cat, db = emp_dept () in
  let q = Sql.Binder.query_of_string cat sql in
  let r = Obs.Span.create () in
  let config = { config with Core.Pipeline.telemetry = Some r } in
  let result, reports = Core.Pipeline.run_query ~config cat db q in
  (result, reports, Obs.Span.finish r)

(* The tree is the query's whole telemetry record: stage spans, the
   optimizer events each stage emitted, and the execute span's operators
   with estimated and actual rows.  Enumeration totals live in the
   always-on [report.enum]. *)
let test_span_golden_text () =
  let _, reports, root = run_with_spans join_sql in
  Alcotest.(check string) "span tree"
    "[ 0] query\n\
     [ 1]   block\n\
     [ 2]     rewrite\n\
     \           ! rewrite view_merge rejected\n\
     \           ! rewrite unnest_in_exists rejected\n\
     \           ! rewrite unnest_scalar_uncorrelated rejected\n\
     \           ! rewrite unnest_scalar_correlated rejected\n\
     \           ! rewrite view_merge rejected\n\
     \           ! rewrite constant_propagation rejected\n\
     \           ! rewrite predicate_pushdown rejected\n\
     [ 3]     optimize\n\
     [ 4]       enumerate {relations=2}\n\
     \             ! enum level 2: 1 subsets, 2 splits, 17 plans costed, 9 pruned\n\
     \             ! memo subset_stats: 0 hits, 2 misses\n\
     \             ! memo hist_join: 0 hits, 1 misses\n\
     [ 5]     execute {engine=batch, dop=1}\n\
     \           op 0 Project Emp.name AS name, Dept.name AS name: est=200.0 act=200\n\
     \           op 1 Hash Join (Emp.did = Dept.did): est=200.0 act=200\n\
     \           op 2 Table Scan Emp: est=200.0 act=200\n\
     \           op 3 Table Scan Dept: est=10.0 act=10\n"
    (Obs.Span.render ~show_wall:false root);
  let c = (List.hd reports).Core.Pipeline.enum in
  Alcotest.(check (list int)) "enumeration totals" [ 3; 17; 9 ]
    Systemr.Join_order.[ c.subsets; c.costed; c.pruned ]

let test_span_golden_json () =
  let _, _, root = run_with_spans join_sql in
  let json = Obs.Span.to_json_lines ~show_wall:false root in
  Alcotest.(check string) "span NDJSON"
    ({|{"id":0,"parent":-1,"depth":0,"name":"query"}|} ^ "\n"
    ^ {|{"id":1,"parent":0,"depth":1,"name":"block"}|} ^ "\n"
    ^ {|{"id":2,"parent":1,"depth":2,"name":"rewrite","events":[{"event":"rewrite_rejected","rule":"view_merge"},{"event":"rewrite_rejected","rule":"unnest_in_exists"},{"event":"rewrite_rejected","rule":"unnest_scalar_uncorrelated"},{"event":"rewrite_rejected","rule":"unnest_scalar_correlated"},{"event":"rewrite_rejected","rule":"view_merge"},{"event":"rewrite_rejected","rule":"constant_propagation"},{"event":"rewrite_rejected","rule":"predicate_pushdown"}]}|} ^ "\n"
    ^ {|{"id":3,"parent":1,"depth":2,"name":"optimize"}|} ^ "\n"
    ^ {|{"id":4,"parent":3,"depth":3,"name":"enumerate","attrs":{"relations":"2"},"events":[{"event":"enum_level","level":2,"subsets":1,"splits":2,"costed":17,"pruned":9},{"event":"memo_stats","table":"subset_stats","hits":0,"misses":2},{"event":"memo_stats","table":"hist_join","hits":0,"misses":1}]}|} ^ "\n"
    ^ {|{"id":5,"parent":1,"depth":2,"name":"execute","attrs":{"engine":"batch","dop":"1"},"ops":[{"id":0,"op":"Project Emp.name AS name, Dept.name AS name","est_rows":200,"act_rows":200},{"id":1,"op":"Hash Join (Emp.did = Dept.did)","est_rows":200,"act_rows":200},{"id":2,"op":"Table Scan Emp","est_rows":200,"act_rows":200},{"id":3,"op":"Table Scan Dept","est_rows":10,"act_rows":10}]}|} ^ "\n")
    json;
  (match Obs.Json.validate_lines json with
   | Ok () -> ()
   | Error m -> Alcotest.fail ("span JSON malformed: " ^ m));
  (* with wall clock on, every line must still be well-formed JSON *)
  match Obs.Json.validate_lines (Obs.Span.to_json_lines root) with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("timed span JSON malformed: " ^ m)

(* Stage spans nest: every span is closed, no child outlasts its parent,
   and sequential children never sum past their parent — so per-stage
   latencies are bounded by (and approximately cover) the query total. *)
let test_span_nesting_invariants () =
  let _, _, root = run_with_spans join_sql in
  Obs.Span.iter
    (fun ~depth:_ (s : Obs.Span.t) ->
       Alcotest.(check bool)
         (Printf.sprintf "span %s closed" s.Obs.Span.name)
         true
         (s.Obs.Span.dur_s >= 0.);
       Alcotest.(check bool)
         (Printf.sprintf "children of %s fit inside it" s.Obs.Span.name)
         true
         (Obs.Span.children_dur s <= s.Obs.Span.dur_s +. 1e-9);
       List.iter
         (fun (c : Obs.Span.t) ->
            Alcotest.(check bool) "child starts after parent" true
              (c.Obs.Span.start_s >= s.Obs.Span.start_s))
         s.Obs.Span.children)
    root;
  List.iter
    (fun stage ->
       Alcotest.(check bool) (stage ^ " stage present") true
         (Obs.Span.dur_by_name root stage >= 0.
          && Obs.Span.dur_by_name root stage <= root.Obs.Span.dur_s +. 1e-9))
    [ "rewrite"; "optimize"; "execute" ]

let test_span_exception_safety () =
  let r = Obs.Span.create () in
  (try
     Obs.Span.with_span r "outer" (fun () ->
         let _inner = Obs.Span.enter r "inner" in
         (* [inner] is never stopped: the exception unwinds past it *)
         failwith "boom")
   with Failure _ -> ());
  let root = Obs.Span.finish r in
  Obs.Span.iter
    (fun ~depth:_ (s : Obs.Span.t) ->
       Alcotest.(check bool) (s.Obs.Span.name ^ " closed") true
         (s.Obs.Span.dur_s >= 0.))
    root;
  Alcotest.(check string) "tree intact"
    "[ 0] query\n[ 1]   outer\n[ 2]     inner\n"
    (Obs.Span.render ~show_wall:false root)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event profile: well-formed JSON (checked by the
   independent reader), and at dop > 1 the worker task timelines appear
   on their own threads. *)

let test_profile_trace () =
  let dop = if Domain_pool.available then 4 else 1 in
  let config =
    { Core.Pipeline.default_config with dop; morsel_rows = 16 }
  in
  let _, _, root = run_with_spans ~config join_sql in
  Alcotest.(check bool) "instrumented" true (Obs.Span.recorders root <> []);
  let json = Obs.Profile.render root in
  match Obs.Json.parse json with
  | Error m -> Alcotest.fail ("profile JSON malformed: " ^ m)
  | Ok v -> (
    match Obs.Json.member "traceEvents" v with
    | Some (Obs.Json.Arr evs) ->
      Alcotest.(check bool) "has events" true (evs <> []);
      let worker_tasks = ref 0 and instants = ref 0 in
      List.iter
        (fun ev ->
           let mem k = Obs.Json.member k ev in
           (match (mem "name", mem "ph", mem "pid", mem "tid") with
            | Some (Obs.Json.Str _), Some (Obs.Json.Str ph),
              Some (Obs.Json.Num _), Some (Obs.Json.Num tid) ->
              Alcotest.(check bool) "ph is X, i or M" true
                (ph = "X" || ph = "i" || ph = "M");
              if ph = "X" && tid >= 1. then incr worker_tasks;
              if ph = "i" then incr instants;
              if ph = "X" then (
                match (mem "ts", mem "dur") with
                | Some (Obs.Json.Num ts), Some (Obs.Json.Num dur) ->
                  Alcotest.(check bool) "ts/dur non-negative" true
                    (ts >= 0. && dur >= 0.)
                | _ -> Alcotest.fail "complete event missing ts/dur")
            | _ -> Alcotest.fail "event missing name/ph/pid/tid"))
        evs;
      Alcotest.(check bool) "optimizer events as instant events" true
        (!instants > 0);
      if dop > 1 then
        (* Emp has 200 rows and morsel_rows is 16: the scan must have
           run as parallel tasks, each on a worker thread *)
        Alcotest.(check bool) "worker timeline events present" true
          (!worker_tasks > 0)
    | _ -> Alcotest.fail "profile missing traceEvents")

(* ------------------------------------------------------------------ *)
(* Histogram buckets and percentiles *)

let test_hist_buckets () =
  Obs.Metrics.reset ();
  let name = "test_latency" in
  List.iter (Obs.Metrics.observe_hist name) [ 0.75; 1.0; 1.5; 3.0; 1000.0 ];
  match Obs.Metrics.find_hist name with
  | None -> Alcotest.fail "histogram not registered"
  | Some h ->
    Alcotest.(check int) "count" 5 h.Obs.Metrics.count;
    Alcotest.(check (float 1e-9)) "sum" 1006.25 h.Obs.Metrics.sum;
    (* power-of-two upper bounds; exact powers land in their own bucket;
       counts are cumulative *)
    Alcotest.(check (list (pair (float 1e-9) int)))
      "cumulative buckets"
      [ (1., 2); (2., 3); (4., 4); (1024., 5) ]
      h.Obs.Metrics.buckets;
    let pct p =
      match Obs.Metrics.percentile h p with
      | Some v -> v
      | None -> Alcotest.fail "percentile on non-empty histogram"
    in
    Alcotest.(check (float 1e-9)) "p0 = first bucket" 1. (pct 0.);
    Alcotest.(check (float 1e-9)) "p50" 2. (pct 0.5);
    Alcotest.(check (float 1e-9)) "p99" 1024. (pct 0.99);
    Alcotest.(check bool) "empty histogram has no percentile" true
      (Obs.Metrics.percentile
         { Obs.Metrics.count = 0; sum = 0.; buckets = [] }
         0.5
       = None)

(* Extreme and invalid observations clamp to the edge buckets instead of
   raising. *)
let test_hist_clamping () =
  Obs.Metrics.reset ();
  let name = "test_clamp" in
  List.iter (Obs.Metrics.observe_hist name) [ 0.; -3.; 1e300; Float.nan ];
  match Obs.Metrics.find_hist name with
  | None -> Alcotest.fail "histogram not registered"
  | Some h ->
    Alcotest.(check int) "all observations kept" 4 h.Obs.Metrics.count;
    Alcotest.(check int) "final cumulative = count" 4
      (snd (List.nth h.Obs.Metrics.buckets
              (List.length h.Obs.Metrics.buckets - 1)))

let hist_seq = ref 0

let prop_percentile_monotone =
  let arb =
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range 1e-6 1e6))
  in
  QCheck.Test.make ~name:"percentile is monotone in p and 2x-accurate"
    ~count:100 arb (fun vs ->
      incr hist_seq;
      let name = Printf.sprintf "prop_hist_%d" !hist_seq in
      List.iter (Obs.Metrics.observe_hist name) vs;
      match Obs.Metrics.find_hist name with
      | None -> false
      | Some h ->
        let ps = [ 0.; 0.25; 0.5; 0.75; 0.9; 0.99; 1. ] in
        let vals =
          List.map
            (fun p ->
               match Obs.Metrics.percentile h p with
               | Some v -> v
               | None -> QCheck.Test.fail_report "no percentile")
            ps
        in
        let rec mono = function
          | a :: (b :: _ as rest) -> a <= b && mono rest
          | _ -> true
        in
        let vmin = List.fold_left Float.min infinity vs in
        let vmax = List.fold_left Float.max neg_infinity vs in
        (* every percentile is a bucket upper bound: at least the bucket
           holding the minimum, at most 2x the maximum *)
        mono vals
        && List.for_all (fun v -> v >= vmin /. 2. && v <= vmax *. 2.) vals)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition *)

let contains_line text line =
  List.exists (String.equal line) (String.split_on_char '\n' text)

let test_prometheus_render () =
  Obs.Metrics.reset ();
  Obs.Metrics.incr ~by:3 "widgets";
  Obs.Metrics.observe_max "depth" 2.5;
  List.iter
    (Obs.Metrics.observe_hist (Obs.Metrics.stage_seconds "x"))
    [ 0.5; 0.5; 2.0 ];
  let text = Obs.Prometheus.render () in
  List.iter
    (fun l ->
       Alcotest.(check bool) ("exposition has: " ^ l) true
         (contains_line text l))
    [ "# TYPE qopt_widgets_total counter";
      "qopt_widgets_total 3";
      "qopt_depth 2.5";
      "qopt_stage_seconds_bucket{stage=\"x\",le=\"0.5\"} 2";
      "qopt_stage_seconds_bucket{stage=\"x\",le=\"2\"} 3";
      "qopt_stage_seconds_bucket{stage=\"x\",le=\"+Inf\"} 3";
      "qopt_stage_seconds_count{stage=\"x\"} 3" ];
  Alcotest.(check bool) "histogram sum line present" true
    (List.exists
       (fun l ->
          String.length l > 30
          && String.sub l 0 30 = "qopt_stage_seconds_sum{stage=\"")
       (String.split_on_char '\n' text))

(* The renderer reads typed cells only: hostile metric names (label
   braces, spaces, quotes) must never make it raise. *)
let test_prometheus_never_raises () =
  Obs.Metrics.reset ();
  Obs.Metrics.incr "weird name{with=\"label\", and junk";
  Obs.Metrics.observe_max "another{unclosed" 1.;
  Obs.Metrics.observe_hist "spaces in name" 0.1;
  let text = try Obs.Prometheus.render () with e -> raise e in
  Alcotest.(check bool) "rendered something" true (String.length text > 0)

(* ------------------------------------------------------------------ *)
(* Query log round-trip *)

let qlog_testable =
  Alcotest.testable
    (fun ppf r -> Fmt.string ppf (Obs.Qlog.to_json r))
    ( = )

let test_qlog_roundtrip () =
  let r =
    { Obs.Qlog.ts_us = 1754600000123456;
      query_digest = "e94493f3";
      plan_digest = "82e74e93";
      estimator = "feed\"back\n";
      (* escaping must survive *)
      engine = "batch";
      dop = 4;
      rows = 90;
      total_us = 13111.8;
      stages = [ ("parse", 27.9); ("optimize", 223.2); ("execute", 12743.9) ];
      est_rows = Some 100.;
      act_rows = None;
      max_qerror = Some 1.147;
      feedback_hits = 2;
      feedback_misses = 5 }
  in
  (match Obs.Json.validate (Obs.Qlog.to_json r) with
   | Ok () -> ()
   | Error m -> Alcotest.fail ("qlog JSON malformed: " ^ m));
  match Obs.Qlog.of_json (Obs.Qlog.to_json r) with
  | Ok r' -> Alcotest.check qlog_testable "round-trip" r r'
  | Error m -> Alcotest.fail ("qlog parse failed: " ^ m)

let test_qlog_append () =
  let path = Filename.temp_file "qlog" ".ndjson" in
  let mk i =
    { Obs.Qlog.ts_us = i; query_digest = "q"; plan_digest = "p";
      estimator = "histogram"; engine = "batch"; dop = 1; rows = i;
      total_us = float_of_int i; stages = []; est_rows = None;
      act_rows = None; max_qerror = None; feedback_hits = 0;
      feedback_misses = 0 }
  in
  Obs.Qlog.append ~path (mk 1);
  Obs.Qlog.append ~path (mk 2);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let parsed =
    List.rev_map
      (fun l ->
         match Obs.Qlog.of_json l with
         | Ok r -> r
         | Error m -> Alcotest.fail ("qlog line unparseable: " ^ m))
      !lines
  in
  Alcotest.(check (list qlog_testable)) "append accumulates records"
    [ mk 1; mk 2 ] parsed

(* A query log built from a plain telemetry run — no EXPLAIN ANALYZE —
   carries the root estimate, the actual rows and the worst q-error, and
   its plan digest fingerprints the executed plan. *)
let test_qlog_of_span () =
  let result, reports, root = run_with_spans join_sql in
  let r =
    Obs.Qlog.of_span ~query:join_sql ~estimator:"histogram" ~engine:"batch"
      ~dop:1 ~rows:(Array.length result.Exec.Executor.rows) root
  in
  let num = Alcotest.(option (float 1e-9)) in
  Alcotest.check num "est_rows" (Some 200.) r.Obs.Qlog.est_rows;
  Alcotest.check num "act_rows" (Some 200.) r.Obs.Qlog.act_rows;
  Alcotest.check num "max_qerror" (Some 1.) r.Obs.Qlog.max_qerror;
  Alcotest.(check string) "plan digest"
    (Obs.Trace.digest
       (Fmt.str "%a" Exec.Plan.pp
          (Option.get (List.hd reports).Core.Pipeline.plan)))
    r.Obs.Qlog.plan_digest;
  Alcotest.(check bool) "execute stage timed" true
    (List.mem_assoc "execute" r.Obs.Qlog.stages)

(* ------------------------------------------------------------------ *)
(* JSON value parser *)

let test_json_parse () =
  (match Obs.Json.parse {| {"a":[1,true,null,"xA\n"],"b":-2.5e1} |} with
   | Error m -> Alcotest.fail m
   | Ok v -> (
     (match Obs.Json.member "a" v with
      | Some
          (Obs.Json.Arr
             [ Obs.Json.Num n; Obs.Json.Bool true; Obs.Json.Null;
               Obs.Json.Str s ]) ->
        Alcotest.(check (float 0.)) "num" 1. n;
        Alcotest.(check string) "escapes decoded" "xA\n" s
      | _ -> Alcotest.fail "array mismatch");
     match Obs.Json.member "b" v with
     | Some (Obs.Json.Num n) -> Alcotest.(check (float 0.)) "neg exp" (-25.) n
     | _ -> Alcotest.fail "b missing"));
  (match Obs.Json.parse "{\"a\":1,}" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "trailing comma accepted");
  match Obs.Json.parse "[1,2] trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

(* ------------------------------------------------------------------ *)
(* Instrument: parallel-phase width mismatches merge instead of being
   dropped; task intervals clamp to non-negative length. *)

let test_record_par_merge () =
  let plan =
    Exec.Plan.Seq_scan { table = "Emp"; alias = "Emp"; filter = None }
  in
  let r = Exec.Instrument.create plan in
  Exec.Instrument.record_par r plan ~dop:2 ~wall:[| 1.; 2. |]
    ~rows:[| 10; 20 |];
  Exec.Instrument.record_par r plan ~dop:4 ~wall:[| 1.; 1.; 1.; 1. |]
    ~rows:[| 1; 1; 1; 1 |];
  Alcotest.(check int) "mismatch surfaced" 1
    (Exec.Instrument.par_mismatches r);
  let op = List.hd (Exec.Instrument.ops r) in
  (match op.Exec.Instrument.par with
   | None -> Alcotest.fail "no par stats recorded"
   | Some p ->
     Alcotest.(check int) "dop is the max" 4 p.Exec.Instrument.par_dop;
     Alcotest.(check (array (float 1e-9))) "wall merged element-wise"
       [| 2.; 3.; 1.; 1. |] p.Exec.Instrument.worker_wall;
     Alcotest.(check (array int)) "rows merged element-wise"
       [| 11; 21; 1; 1 |] p.Exec.Instrument.worker_rows);
  Exec.Instrument.record_task r plan ~worker:1 ~start_s:10. ~end_s:9.;
  match Exec.Instrument.timeline r with
  | [ t ] ->
    Alcotest.(check bool) "task end clamped to start" true
      (t.Exec.Instrument.t_end >= t.Exec.Instrument.t_start)
  | _ -> Alcotest.fail "task not recorded"

(* The monotonic clock never goes backwards, even against a stepping
   system clock (it clamps), and elapsed_s is non-negative. *)
let test_clock_monotone () =
  let prev = ref (Obs.Clock.now ()) in
  for _ = 1 to 10_000 do
    let t = Obs.Clock.now () in
    Alcotest.(check bool) "non-decreasing" true (t >= !prev);
    prev := t
  done;
  Alcotest.(check bool) "elapsed non-negative" true
    (Obs.Clock.elapsed_s (Obs.Clock.now () +. 1e6) >= 0.)

let () =
  Alcotest.run "obs"
    [ ( "q-error",
        [ Alcotest.test_case "arithmetic" `Quick test_q_error ] );
      ( "analyze",
        [ Alcotest.test_case "golden join" `Quick test_analyze_golden_join;
          Alcotest.test_case "golden aggregate" `Quick
            test_analyze_golden_agg;
          Alcotest.test_case "engine independent" `Quick
            test_analyze_engine_independent ] );
      ( "cross-engine",
        [ QCheck_alcotest.to_alcotest prop_actuals_cross_engine ] );
      ( "trace",
        [ Alcotest.test_case "json well-formed" `Quick
            test_trace_json_wellformed;
          Alcotest.test_case "off by default" `Quick
            test_trace_events_off_by_default;
          Alcotest.test_case "interpreted fallback event" `Quick
            test_fallback_event;
          Alcotest.test_case "annotate uses plan-time stats" `Quick
            test_annotate_uses_plan_time_stats;
          Alcotest.test_case "view statistics on demand" `Quick
            test_view_stats_on_demand;
          Alcotest.test_case "digest" `Quick test_digest ] );
      ( "spans",
        [ Alcotest.test_case "golden tree" `Quick test_span_golden_text;
          Alcotest.test_case "golden json" `Quick test_span_golden_json;
          Alcotest.test_case "nesting invariants" `Quick
            test_span_nesting_invariants;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety ] );
      ( "profile",
        [ Alcotest.test_case "chrome trace well-formed" `Quick
            test_profile_trace ] );
      ( "metrics",
        [ Alcotest.test_case "histogram buckets" `Quick test_hist_buckets;
          Alcotest.test_case "histogram clamping" `Quick test_hist_clamping;
          QCheck_alcotest.to_alcotest prop_percentile_monotone;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_render;
          Alcotest.test_case "prometheus never raises" `Quick
            test_prometheus_never_raises;
          Alcotest.test_case "clock monotone" `Quick test_clock_monotone ] );
      ( "qlog",
        [ Alcotest.test_case "round-trip" `Quick test_qlog_roundtrip;
          Alcotest.test_case "ndjson append" `Quick test_qlog_append;
          Alcotest.test_case "of_span without analyze" `Quick
            test_qlog_of_span;
          Alcotest.test_case "json parser" `Quick test_json_parse ] );
      ( "instrument",
        [ Alcotest.test_case "record_par merge" `Quick
            test_record_par_merge ] ) ]
