(* qopt — a small CLI over the optimizer pipeline.

   The CLI operates on one of the built-in demo databases:
     emp   the paper's Emp/Dept schema (default)
     star  an OLAP star schema (Sales + 3 dimensions)

   Commands:
     qopt run "SELECT ..."        optimize, execute, print rows
     qopt explain "SELECT ..."    print rewrites and the physical plan
     qopt tables                  list tables, row counts, statistics *)

open Relalg

let load = function
  | `Emp ->
    let w = Workload.Schemas.emp_dept ~emps:5000 ~depts:100 () in
    (w.Workload.Schemas.cat, w.Workload.Schemas.db)
  | `Star ->
    let w = Workload.Schemas.star ~fact_rows:20000 ~dim_rows:100 ~dims:3 () in
    (w.Workload.Schemas.cat, w.Workload.Schemas.db)

(* Flag values, parsed by Cmdliner's enum converters: an unknown value is
   a usage error (exit 124), not an exception. *)
let databases = [ ("emp", `Emp); ("star", `Star) ]

let optimizers = [ ("systemr", `Systemr); ("bushy", `Bushy); ("naive", `Naive) ]

let optimizer_config = function
  | `Systemr -> Core.Pipeline.default_config
  | `Bushy ->
    { Core.Pipeline.default_config with
      join_config = { Systemr.Join_order.default_config with bushy = true } }
  | `Naive -> Core.Pipeline.naive_config

let engines = [ ("batch", `Batch); ("interpreted", `Interpreted) ]

let estimators =
  [ ("histogram", `Histogram); ("feedback", `Feedback); ("sketch", `Sketch) ]

let name_of assoc v = fst (List.find (fun (_, x) -> x = v) assoc)

(* Parse and bind as separate steps so they show up as the first two
   spans of the query's telemetry tree. *)
let with_query ?telemetry db_name sql f =
  let cat, db = Obs.Span.within telemetry "load" (fun () -> load db_name) in
  match
    let stmts =
      Obs.Span.within telemetry "parse" (fun () -> Sql.Parser.parse sql)
    in
    Obs.Span.within telemetry "bind" (fun () ->
        Sql.Binder.bind_script cat stmts)
  with
  | q -> f cat db q
  | exception Sql.Parser.Error m ->
    Printf.eprintf "parse error: %s\n" m;
    exit 1
  | exception Sql.Binder.Error m ->
    Printf.eprintf "binding error: %s\n" m;
    exit 1
  | exception Sql.Lexer.Error m ->
    Printf.eprintf "lexical error: %s\n" m;
    exit 1

(* Print lint diagnostics collected in the per-block reports; exits 2 on
   errors so --lint works as a CI gate. *)
let print_diags reports =
  let diags = List.concat_map (fun r -> r.Core.Pipeline.diags) reports in
  Fmt.pr "-- lint: %a@." Verify.Diag.pp_list diags;
  if Verify.Diag.has_errors diags then exit 2

(* --bushy / --left-deep override the optimizer preset's tree shape, so the
   CLI drives exactly the code paths the enumeration bench measures. *)
let apply_tree tree (config : Core.Pipeline.config) =
  match tree with
  | `Default -> config
  | `Bushy ->
    { config with
      Core.Pipeline.join_config =
        { config.Core.Pipeline.join_config with
          Systemr.Join_order.bushy = true } }
  | `Left_deep ->
    { config with
      Core.Pipeline.join_config =
        { config.Core.Pipeline.join_config with
          Systemr.Join_order.bushy = false } }

let print_opt_stats reports wall_s =
  let c =
    List.fold_left
      (fun acc r ->
         Systemr.Join_order.counters_add acc r.Core.Pipeline.enum)
      Systemr.Join_order.counters_zero reports
  in
  Fmt.pr
    "-- opt: subsets=%d splits=%d costed=%d pruned=%d wall_ms=%.2f@."
    c.Systemr.Join_order.subsets c.Systemr.Join_order.splits
    c.Systemr.Join_order.costed c.Systemr.Join_order.pruned
    (wall_s *. 1000.)

(* Write the tree's optimizer events as line-delimited JSON. *)
let write_trace_json file root =
  let oc = open_out file in
  List.iter
    (fun e ->
       output_string oc (Obs.Trace.to_json e);
       output_char oc '\n')
    (Obs.Span.events root);
  close_out oc

let run_cmd db_name optimizer engine dop estimator repeat lint analysis limit
    tree opt_stats analyze trace_json metrics profile_json metrics_out
    query_log print_spans sql =
  let want_telemetry =
    analyze || trace_json <> None || profile_json <> None || query_log <> None
    || print_spans
  in
  let telemetry =
    if want_telemetry then Some (Obs.Span.create ()) else None
  in
  with_query ?telemetry db_name sql (fun cat db block ->
      (* The feedback cache / sketch registry is created once per run and
         carried in the config, so --repeat runs share it and later
         optimizations see what earlier executions recorded. *)
      let est_mode =
        match estimator with
        | `Histogram -> `Histogram
        | `Feedback -> `Feedback (Stats.Feedback.create ())
        | `Sketch -> `Sketch (Stats.Sketch.registry_create ())
      in
      let config =
        apply_tree tree
          { (optimizer_config optimizer) with
            Core.Pipeline.lint;
            analysis;
            engine;
            dop = max 1 dop;
            estimator = est_mode;
            telemetry }
      in
      (* Warm-up repeats share the estimator state: under --estimator
         feedback/sketch, the final (printed) run re-optimizes with the
         actual cardinalities / sketches its predecessors recorded.
         They run without telemetry so the tree covers only the printed
         run. *)
      for _ = 2 to max 1 repeat do
        ignore
          (Core.Pipeline.run_query
             ~config:{ config with Core.Pipeline.telemetry = None }
             cat db block)
      done;
      let ctx = Exec.Context.create () in
      let t0 = Obs.Clock.now () in
      let result, reports = Core.Pipeline.run_query ~ctx ~config cat db block in
      let wall = Obs.Clock.elapsed_s t0 in
      (* close the span tree before anything renders or logs it *)
      let root = Option.map Obs.Span.finish telemetry in
      let n = Array.length result.Exec.Executor.rows in
      Fmt.pr "%a@." Schema.pp result.Exec.Executor.schema;
      Array.iteri
        (fun i t -> if i < limit then Fmt.pr "%a@." Tuple.pp t)
        result.Exec.Executor.rows;
      if n > limit then Fmt.pr "... (%d more rows)@." (n - limit);
      Fmt.pr "-- %d rows; %a; path: %s@." n Exec.Context.pp ctx
        (String.concat "+"
           (List.map
              (fun r ->
                 match r.Core.Pipeline.path with
                 | Core.Pipeline.Planned -> "planned"
                 | Core.Pipeline.Interpreted -> "interpreted")
              reports));
      Option.iter
        (fun root ->
           if analyze then Fmt.pr "-- analyze:@.%s" (Obs.Analyze.render root);
           Option.iter (fun file -> write_trace_json file root) trace_json;
           if print_spans then Fmt.pr "-- spans:@.%s" (Obs.Span.render root);
           Option.iter (Obs.Profile.write_file root) profile_json;
           Option.iter
             (fun path ->
                Obs.Qlog.append ~path
                  (Obs.Qlog.of_span ~query:sql
                     ~estimator:(name_of estimators estimator)
                     ~engine:(name_of engines engine) ~dop ~rows:n
                     ?feedback:
                       (match est_mode with
                        | `Feedback fb -> Some fb
                        | _ -> None)
                     root))
             query_log)
        root;
      (match metrics_out with
       | Some file -> Obs.Prometheus.write_file file
       | None -> ());
      if opt_stats then print_opt_stats reports wall;
      if metrics then print_endline (Obs.Metrics.render ());
      if lint || analysis then print_diags reports)

let explain_cmd db_name optimizer lint analysis tree sql =
  with_query db_name sql (fun cat db block ->
      let config =
        apply_tree tree
          { (optimizer_config optimizer) with Core.Pipeline.lint; analysis }
      in
      print_endline (Core.Pipeline.explain_query ~config cat db block))

let tables_cmd db_name =
  let cat, db = load db_name in
  List.iter
    (fun name ->
       let t = Storage.Catalog.table cat name in
       Fmt.pr "%a@." Storage.Table.pp t;
       List.iter
         (fun idx -> Fmt.pr "  %a@." Storage.Btree.pp idx)
         (Storage.Catalog.indexes cat name);
       match Stats.Table_stats.find db name with
       | Some ts -> Fmt.pr "  @[<v>%a@]@." Stats.Table_stats.pp ts
       | None -> ())
    (Storage.Catalog.table_names cat)

(* ------------------------------------------------------------------ *)

open Cmdliner

let db_arg =
  Arg.(value & opt (enum databases) `Emp
       & info [ "d"; "database" ] ~docv:"DB"
           ~doc:"Demo database to query: emp or star.")

let opt_arg =
  Arg.(value & opt (enum optimizers) `Systemr
       & info [ "o"; "optimizer" ] ~docv:"OPT"
           ~doc:"Optimizer pipeline: systemr, bushy or naive (no rewrites).")

let limit_arg =
  Arg.(value & opt int 20
       & info [ "n"; "limit" ] ~docv:"N" ~doc:"Rows to print.")

let engine_arg =
  Arg.(value & opt (enum engines) `Batch
       & info [ "e"; "engine" ] ~docv:"ENGINE"
           ~doc:"Plan execution engine: batch (vectorized) or interpreted \
                 (tuple-at-a-time oracle). Both produce identical rows and \
                 cost accounting.")

let dop_arg =
  Arg.(value & opt int 1
       & info [ "dop" ] ~docv:"N"
           ~doc:"Degree of parallelism for plan execution (batch engine \
                 only). N > 1 runs plans on the morsel-driven parallel \
                 engine, with per-operator parallelism taken from the \
                 two-phase segment schedule; rows and cost accounting are \
                 bit-identical to --dop 1.")

let estimator_arg =
  Arg.(value & opt (enum estimators) `Histogram
       & info [ "estimator" ] ~docv:"EST"
           ~doc:"Cardinality estimator: histogram (stock derivation), \
                 feedback (cache actual cardinalities from execution and \
                 reuse them on re-optimization) or sketch (Fast-AGMS \
                 sketches built during batch/morsel scans drive join \
                 selectivities). feedback and sketch pay off with \
                 --repeat > 1: the state persists across repeats.")

let repeat_arg =
  Arg.(value & opt int 1
       & info [ "repeat" ] ~docv:"N"
           ~doc:"Run the query N times (printing the last run). With \
                 --estimator feedback or sketch, later runs re-optimize \
                 using what earlier executions recorded.")

let lint_arg =
  Arg.(value & flag
       & info [ "lint" ]
           ~doc:"Statically verify every rewrite step and physical plan; \
                 print diagnostics (exit 2 on lint errors under run).")

let analysis_arg =
  Arg.(value & flag
       & info [ "analysis" ]
           ~doc:"Abstract-interpretation pass: fold provably-empty \
                 subtrees, derive transitive range predicates, and lint \
                 cardinality estimates against the provable envelope \
                 (est-above-envelope, est-below-envelope, \
                 est-zero-nonempty); prints diagnostics under run.")

let tree_arg =
  Arg.(value
       & vflag `Default
           [ (`Bushy,
              info [ "bushy" ]
                ~doc:"Enumerate bushy join trees (overrides the optimizer \
                      preset's shape).");
             (`Left_deep,
              info [ "left-deep" ]
                ~doc:"Enumerate left-deep join trees only (overrides the \
                      optimizer preset's shape).") ])

let opt_stats_arg =
  Arg.(value & flag
       & info [ "opt-stats" ]
           ~doc:"Print enumeration counters (DP subsets, splits considered, \
                 candidates costed, candidates dominated and never built) \
                 and end-to-end wall time.")

let analyze_arg =
  Arg.(value & flag
       & info [ "analyze" ]
           ~doc:"EXPLAIN ANALYZE: execute with per-operator instrumentation \
                 and print estimated vs. actual rows, q-error, rescans, \
                 counter deltas and wall time for every operator.")

let trace_json_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-json" ] ~docv:"FILE"
           ~doc:"Write the structured optimizer trace (rewrites fired and \
                 rejected, per-level enumeration counters, memo statistics, \
                 feedback overrides) to FILE as line-delimited JSON.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print the process-wide metrics registry (queries run, \
                 blocks planned, max q-error, ...) after the query.")

let profile_json_arg =
  Arg.(value & opt (some string) None
       & info [ "profile-json" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event profile to FILE: the query's \
                 span tree (parse, bind, rewrite, optimize, verify, \
                 execute) on one track plus, at --dop > 1, each morsel \
                 worker's task timeline on its own track. Load it in \
                 Perfetto (ui.perfetto.dev) or chrome://tracing.")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write the metrics registry (counters, gauges, latency \
                 histograms with cumulative buckets) to FILE in \
                 Prometheus text exposition format.")

let query_log_arg =
  Arg.(value & opt (some string) None
       & info [ "query-log" ] ~docv:"FILE"
           ~doc:"Append one NDJSON record for this run to FILE: query and \
                 plan digests, per-stage latencies, estimated vs. actual \
                 root rows, worst q-error, and feedback-cache traffic.")

let spans_arg =
  Arg.(value & flag
       & info [ "spans" ]
           ~doc:"Print the query's span tree (wall-clock per pipeline \
                 stage, nested) after the rows.")

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL")

let run_t =
  Cmd.v (Cmd.info "run" ~doc:"Optimize and execute a SQL query")
    Term.(
      const run_cmd $ db_arg $ opt_arg $ engine_arg $ dop_arg
      $ estimator_arg $ repeat_arg $ lint_arg $ analysis_arg
      $ limit_arg $ tree_arg $ opt_stats_arg $ analyze_arg $ trace_json_arg
      $ metrics_arg $ profile_json_arg $ metrics_out_arg $ query_log_arg
      $ spans_arg $ sql_arg)

let explain_t =
  Cmd.v (Cmd.info "explain" ~doc:"Show rewrites and the chosen physical plan")
    Term.(
      const explain_cmd $ db_arg $ opt_arg $ lint_arg $ analysis_arg
      $ tree_arg $ sql_arg)

let tables_t =
  Cmd.v (Cmd.info "tables" ~doc:"List tables, indexes and statistics")
    Term.(const tables_cmd $ db_arg)

let main =
  Cmd.group
    (Cmd.info "qopt" ~version:"1.0"
       ~doc:"Cost-based SQL query optimizer (PODS'98 survey reproduction)")
    [ run_t; explain_t; tables_t ]

let () = exit (Cmd.eval main)
