(* Wall-clock benchmark for the batch execution engine vs the
   tuple-at-a-time interpreter.

   Every workload is executed by both engines; the harness verifies rows
   (bit-identical, in order) and Context counters match before reporting
   timings, so a speedup can never come from diverging semantics.
   Results go to BENCH_exec.json (rows/sec and wall-clock per operator
   class, plus an optimized end-to-end query through the pipeline).

   Usage: exec_bench [--smoke] [--out FILE] [--trace-json FILE]
                     [--metrics-out FILE] [--parallel]
     --smoke       tiny inputs, single repetition — a CI liveness check, no
                   timing claims
     --out         output path (default BENCH_exec.json; BENCH_par.json
                   under --parallel)
     --trace-json  also run the end-to-end query once with instrumentation
                   on and write its optimizer trace as line-delimited JSON
     --metrics-out after the run, dump the process metrics registry
                   (query/stage latency histograms included) to FILE in
                   Prometheus text exposition format
     --parallel    benchmark the morsel-driven engine instead: sequential
                   batch vs Exec.Morsel at dop 1/2/4/8 on scan_filter,
                   hash_join, hash_agg and sort.  Equivalence (identical
                   rows and counters) is verified before any timing; the
                   JSON records the machine's core count, since speedup is
                   bounded by it — on a single-core host parallel runs can
                   only measure overhead, not speedup. *)

open Relalg

type scale = { n : int (* base table rows *); reps : int }

let full = { n = 100_000; reps = 5 }
let smoke = { n = 500; reps = 1 }

(* ------------------------------------------------------------------ *)
(* Catalog builders (deterministic data) *)

(* T(k int, v int): k cycles through [0, groups), v = i *)
let one_table ~rows ~groups =
  let cat = Storage.Catalog.create () in
  let t = Storage.Catalog.create_table cat ~name:"T"
      ~columns:[ ("k", Value.Tint); ("v", Value.Tint) ] in
  for i = 0 to rows - 1 do
    Storage.Table.insert t
      (Tuple.of_list [ Value.Int (i mod groups); Value.Int i ])
  done;
  cat

(* W(c0..c7 int): a wide 8-column table; c0 = i mod groups, cj = i*(j+1) *)
let wide_table ~rows ~groups =
  let cat = Storage.Catalog.create () in
  let t =
    Storage.Catalog.create_table cat ~name:"W"
      ~columns:(List.init 8 (fun j -> (Printf.sprintf "c%d" j, Value.Tint)))
  in
  for i = 0 to rows - 1 do
    Storage.Table.insert t
      (Tuple.of_list
         (List.init 8 (fun j ->
              Value.Int (if j = 0 then i mod groups else i * (j + 1)))))
  done;
  cat

(* R(a,b) and S(a,c), equi-joinable on a with [fanout] S matches per key *)
let two_tables ~rows ~fanout =
  let cat = Storage.Catalog.create () in
  let r = Storage.Catalog.create_table cat ~name:"R"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ] in
  let s = Storage.Catalog.create_table cat ~name:"S"
      ~columns:[ ("a", Value.Tint); ("c", Value.Tint) ] in
  let keys = max 1 (rows / fanout) in
  for i = 0 to rows - 1 do
    Storage.Table.insert r (Tuple.of_list [ Value.Int (i mod keys); Value.Int i ])
  done;
  for i = 0 to rows - 1 do
    Storage.Table.insert s (Tuple.of_list [ Value.Int (i mod keys); Value.Int i ])
  done;
  cat

let scan t = Exec.Plan.Seq_scan { table = t; alias = t; filter = None }
let col r c = Expr.col ~rel:r ~col:c

let join_pred =
  Expr.Cmp (Expr.Eq, col "R" "a", col "S" "a")

let pair = ({ Expr.rel = "R"; col = "a" }, { Expr.rel = "S"; col = "a" })

let sort_on rel c input =
  Exec.Plan.Sort ([ { Exec.Plan.key = col rel c; descending = false } ], input)

(* ------------------------------------------------------------------ *)
(* Harness *)

(* Words allocated so far, on either heap: minor + major − promoted.
   Counting minor words alone misses every block over 256 words, which
   goes straight to the major heap — the columnar engine's arrays. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* best-of-[reps] wall clock plus the best run's allocation (words, both
   heaps); returns (seconds, words, result) *)
let time_runs reps f =
  let best = ref infinity and last = ref None and alloc = ref 0. in
  for _ = 1 to reps do
    Gc.full_major ();
    let a0 = allocated_words () in
    let t0 = Obs.Clock.now () in
    let r = f () in
    let dt = Obs.Clock.now () -. t0 in
    if dt < !best then begin
      best := dt;
      alloc := allocated_words () -. a0
    end;
    last := Some r
  done;
  match !last with
  | None -> assert false
  | Some r -> (!best, !alloc, r)

type row = {
  name : string;
  input_rows : int;
  out_rows : int;
  interp_s : float;
  batch_s : float;
  interp_alloc_w : float; (* words allocated (both heaps), best run *)
  batch_alloc_w : float;
}

let speedup r = if r.batch_s > 0. then r.interp_s /. r.batch_s else 0.

let verify name (oracle : Exec.Executor.result) co
    (batch : Exec.Executor.result) cb =
  let rows_ok =
    Array.length oracle.Exec.Executor.rows
    = Array.length batch.Exec.Executor.rows
    && Array.for_all2 Tuple.equal oracle.Exec.Executor.rows
         batch.Exec.Executor.rows
  in
  if not rows_ok then begin
    Printf.eprintf "FAIL %s: engines returned different rows\n" name;
    exit 1
  end;
  if co <> cb then begin
    Printf.eprintf "FAIL %s: counters diverge (interp %s, batch %s)\n" name
      (Fmt.str "%a" Exec.Context.pp_snapshot co)
      (Fmt.str "%a" Exec.Context.pp_snapshot cb);
    exit 1
  end

(* Benchmark one plan under both engines, verifying equivalence. *)
let bench_plan ~reps ~input_rows name cat plan : row =
  let run_with engine () =
    let ctx = Exec.Context.create () in
    let r =
      match engine with
      | `Interpreted -> Exec.Executor.run ~ctx cat plan
      | `Batch -> Exec.Batch.run ~ctx cat plan
    in
    (r, Exec.Context.snapshot ctx)
  in
  let interp_s, interp_alloc_w, (ro, co) =
    time_runs reps (run_with `Interpreted)
  in
  let batch_s, batch_alloc_w, (rb, cb) = time_runs reps (run_with `Batch) in
  verify name ro co rb cb;
  { name; input_rows; out_rows = Array.length rb.Exec.Executor.rows;
    interp_s; batch_s; interp_alloc_w; batch_alloc_w }

(* ------------------------------------------------------------------ *)
(* Operator-class workloads *)

let workloads (sc : scale) : row list =
  let n = sc.n and reps = sc.reps in
  let groups = max 1 (n / 100) in
  let r1 = one_table ~rows:(2 * n) ~groups in
  let r2 = two_tables ~rows:n ~fanout:2 in
  (* nested loop without Materialize: the interpreter genuinely
     re-executes the inner scan per outer tuple; the batch engine computes
     it once and replays only its page charges *)
  let nl_n = max 10 (n / 50) in
  let rnl = two_tables ~rows:nl_n ~fanout:1 in
  [ bench_plan ~reps ~input_rows:(2 * n) "scan_filter" r1
      (Exec.Plan.Filter
         ( Expr.Cmp
             (Expr.Eq, Expr.Binop (Expr.Mod, col "T" "v", Expr.int 7),
              Expr.int 0),
           scan "T" ));
    (* 0.1% selectivity: the selection vector stays tiny and no row is
       ever materialized between the scan and the filter output *)
    bench_plan ~reps ~input_rows:(2 * n) "selective_filter" r1
      (Exec.Plan.Filter
         ( Expr.Cmp
             (Expr.Eq, Expr.Binop (Expr.Mod, col "T" "v", Expr.int 1000),
              Expr.int 0),
           scan "T" ));
    bench_plan ~reps ~input_rows:(2 * n) "project" r1
      (Exec.Plan.Project
         ( [ (Expr.Binop (Expr.Add, col "T" "v", col "T" "k"), "s");
             (Expr.Binop (Expr.Mul, col "T" "v", Expr.int 3), "t") ],
           scan "T" ));
    (* eight plain columns + one computed: plain columns pass through the
       columnar engine as shared typed arrays *)
    (let rw = wide_table ~rows:(2 * n) ~groups in
     bench_plan ~reps ~input_rows:(2 * n) "wide_projection" rw
       (Exec.Plan.Project
          ( List.init 8 (fun j ->
                (col "W" (Printf.sprintf "c%d" j), Printf.sprintf "p%d" j))
            @ [ (Expr.Binop (Expr.Add, col "W" "c0", col "W" "c7"), "s") ],
            scan "W" )));
    bench_plan ~reps ~input_rows:(2 * n) "sort" r1
      (Exec.Plan.Sort
         ( [ { Exec.Plan.key = col "T" "k"; descending = false };
             { Exec.Plan.key = col "T" "v"; descending = true } ],
           scan "T" ));
    bench_plan ~reps ~input_rows:(2 * n) "hash_join" r2
      (Exec.Plan.Hash_join
         { kind = Algebra.Inner; pairs = [ pair ]; residual = Expr.ftrue;
           left = scan "R"; right = scan "S" });
    bench_plan ~reps ~input_rows:(2 * n) "merge_join" r2
      (Exec.Plan.Merge_join
         { kind = Algebra.Inner; pairs = [ pair ]; residual = Expr.ftrue;
           left = sort_on "R" "a" (scan "R");
           right = sort_on "S" "a" (scan "S") });
    bench_plan ~reps ~input_rows:(2 * nl_n) "nested_loop" rnl
      (Exec.Plan.Nested_loop
         { kind = Algebra.Inner; pred = join_pred; outer = scan "R";
           inner =
             (* a computed (filtered) inner with no Materialize: the
                interpreter re-runs scan + filter per outer tuple; the
                batch engine computes it once and replays only the page
                and CPU charges *)
             Exec.Plan.Filter
               ( Expr.Cmp
                   (Expr.Eq,
                    Expr.Binop (Expr.Mod, col "S" "c", Expr.int 100),
                    Expr.int 0),
                 scan "S" ) });
    bench_plan ~reps ~input_rows:(2 * n) "hash_agg" r1
      (Exec.Plan.Hash_agg
         { keys = [ (col "T" "k", "k") ];
           aggs =
             [ (Expr.Count_star, "n"); (Expr.Sum (col "T" "v"), "total");
               (Expr.Max (col "T" "v"), "hi") ];
           input = scan "T" });
    (* the same aggregates over key-sorted input: the sequential
       adjacency walk of the aggregation kernel, after a sort on k *)
    bench_plan ~reps ~input_rows:(2 * n) "stream_agg" r1
      (Exec.Plan.Stream_agg
         { keys = [ (col "T" "k", "k") ];
           aggs =
             [ (Expr.Count_star, "n"); (Expr.Sum (col "T" "v"), "total");
               (Expr.Max (col "T" "v"), "hi") ];
           input = sort_on "T" "k" (scan "T") });
    bench_plan ~reps ~input_rows:(2 * n) "distinct" r1
      (Exec.Plan.Hash_distinct
         (Exec.Plan.Project ([ (col "T" "k", "k") ], scan "T")))
  ]

(* End-to-end: a grouped equi-join through rewrite + System-R planning,
   executed by each engine via the pipeline's [engine] config. *)
let end_to_end (sc : scale) : row =
  let emps = max 200 sc.n and depts = max 10 (sc.n / 100) in
  let w = Workload.Schemas.emp_dept ~emps ~depts () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  let sql =
    "SELECT Dept.name, COUNT(*), SUM(Emp.sal) FROM Emp, Dept \
     WHERE Emp.did = Dept.did AND Emp.age > 30 GROUP BY Dept.name"
  in
  let q = Sql.Binder.query_of_string cat sql in
  let run_with engine () =
    let ctx = Exec.Context.create () in
    let config = { Core.Pipeline.default_config with engine } in
    let r, _ = Core.Pipeline.run_query ~ctx ~config cat db q in
    (r, Exec.Context.snapshot ctx)
  in
  let interp_s, interp_alloc_w, (ro, co) =
    time_runs sc.reps (run_with `Interpreted)
  in
  let batch_s, batch_alloc_w, (rb, cb) =
    time_runs sc.reps (run_with `Batch)
  in
  verify "end_to_end" ro co rb cb;
  { name = "end_to_end"; input_rows = emps + depts;
    out_rows = Array.length rb.Exec.Executor.rows; interp_s; batch_s;
    interp_alloc_w; batch_alloc_w }

(* One instrumented pass over the end-to-end query; its optimizer trace
   goes to [file] as line-delimited JSON (a CI artifact). *)
let write_trace sc file =
  let emps = max 200 sc.n and depts = max 10 (sc.n / 100) in
  let w = Workload.Schemas.emp_dept ~emps ~depts () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  let sql =
    "SELECT Dept.name, COUNT(*), SUM(Emp.sal) FROM Emp, Dept \
     WHERE Emp.did = Dept.did AND Emp.age > 30 GROUP BY Dept.name"
  in
  let q = Sql.Binder.query_of_string cat sql in
  let r = Obs.Span.create () in
  let config = { Core.Pipeline.default_config with telemetry = Some r } in
  let _ = Core.Pipeline.run_query ~config cat db q in
  let oc = open_out file in
  List.iter
    (fun e ->
       output_string oc (Obs.Trace.to_json e);
       output_char oc '\n')
    (Obs.Span.events (Obs.Span.finish r));
  close_out oc;
  Printf.printf "wrote %s (optimizer trace, line-delimited JSON)\n" file

(* ------------------------------------------------------------------ *)
(* Parallel mode: sequential batch vs the morsel engine at several dops *)

let par_dops = [ 1; 2; 4; 8 ]

type prow = {
  p_name : string;
  p_input_rows : int;
  p_out_rows : int;
  seq_s : float;
  by_dop : (int * float) list;
}

(* Verify once per dop (rows and counters bit-identical to Batch), then
   time with a pre-created pool so domain spawning stays out of the
   measured region. *)
let bench_parallel ~reps ~input_rows name cat plan : prow =
  let seq () =
    let ctx = Exec.Context.create () in
    let r = Exec.Batch.run ~ctx cat plan in
    (r, Exec.Context.snapshot ctx)
  in
  let seq_s, _, (rs, cs) = time_runs reps seq in
  let by_dop =
    List.map
      (fun dop ->
         Domain_pool.with_pool dop (fun pool ->
             let par () =
               let ctx = Exec.Context.create () in
               let r = Exec.Morsel.run ~ctx ~pool ~dop cat plan in
               (r, Exec.Context.snapshot ctx)
             in
             let p_s, _, (rp, cp) = time_runs reps par in
             verify (Printf.sprintf "%s@dop=%d" name dop) rs cs rp cp;
             (dop, p_s)))
      par_dops
  in
  { p_name = name; p_input_rows = input_rows;
    p_out_rows = Array.length rs.Exec.Executor.rows; seq_s; by_dop }

let par_workloads (sc : scale) : prow list =
  let n = sc.n and reps = sc.reps in
  let groups = max 1 (n / 100) in
  let r1 = one_table ~rows:(2 * n) ~groups in
  let r2 = two_tables ~rows:n ~fanout:2 in
  [ bench_parallel ~reps ~input_rows:(2 * n) "scan_filter" r1
      (Exec.Plan.Filter
         ( Expr.Cmp
             (Expr.Eq, Expr.Binop (Expr.Mod, col "T" "v", Expr.int 7),
              Expr.int 0),
           scan "T" ));
    bench_parallel ~reps ~input_rows:(2 * n) "hash_join" r2
      (Exec.Plan.Hash_join
         { kind = Algebra.Inner; pairs = [ pair ]; residual = Expr.ftrue;
           left = scan "R"; right = scan "S" });
    bench_parallel ~reps ~input_rows:(2 * n) "hash_agg" r1
      (Exec.Plan.Hash_agg
         { keys = [ (col "T" "k", "k") ];
           aggs =
             [ (Expr.Count_star, "n"); (Expr.Sum (col "T" "v"), "total");
               (Expr.Max (col "T" "v"), "hi") ];
           input = scan "T" });
    bench_parallel ~reps ~input_rows:(2 * n) "sort" r1
      (Exec.Plan.Sort
         ( [ { Exec.Plan.key = col "T" "k"; descending = false };
             { Exec.Plan.key = col "T" "v"; descending = true } ],
           scan "T" )) ]

let json_of_prows ~smoke (rows : prow list) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"smoke\": %b,\n  \"reps\": \"best-of\",\n\
       \  \"cpus\": %d,\n  \"domains_available\": %b,\n\
       \  \"dops\": [%s],\n\
       \  \"note\": \"speedup is bounded by the core count above; on a \
        single-core host dop > 1 measures scheduling overhead, not \
        speedup. Every run is verified bit-identical (rows and counters) \
        to the sequential batch engine before timing.\",\n"
       smoke
       (Domain_pool.cpu_count ())
       Domain_pool.available
       (String.concat ", " (List.map string_of_int par_dops)));
  Buffer.add_string b "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
       let per_dop =
         String.concat ", "
           (List.map
              (fun (d, s) ->
                 Printf.sprintf
                   "{\"dop\": %d, \"wall_s\": %.6f, \"speedup\": %.2f}" d s
                   (if s > 0. then r.seq_s /. s else 0.))
              r.by_dop)
       in
       Buffer.add_string b
         (Printf.sprintf
            "    {\"name\": %S, \"input_rows\": %d, \"out_rows\": %d, \
             \"sequential_s\": %.6f, \"parallel\": [%s], \
             \"verified\": true}%s\n"
            r.p_name r.p_input_rows r.p_out_rows r.seq_s per_dop
            (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let run_parallel ~smoke ~out sc =
  let rows = par_workloads sc in
  Printf.printf "%-12s %12s %10s %12s" "workload" "input_rows" "out_rows"
    "seq_s";
  List.iter (fun d -> Printf.printf " %9s" (Printf.sprintf "dop=%d" d))
    par_dops;
  print_newline ();
  List.iter
    (fun r ->
       Printf.printf "%-12s %12d %10d %12.4f" r.p_name r.p_input_rows
         r.p_out_rows r.seq_s;
       List.iter (fun (_, s) -> Printf.printf " %9.4f" s) r.by_dop;
       print_newline ())
    rows;
  let oc = open_out out in
  output_string oc (json_of_prows ~smoke rows);
  close_out oc;
  Printf.printf
    "wrote %s (cpus=%d; all runs verified bit-identical to sequential)\n"
    out (Domain_pool.cpu_count ())

(* ------------------------------------------------------------------ *)
(* Output *)

let json_of_rows ~smoke (rows : row list) =
  let b = Buffer.create 4096 in
  let rps r s = if s > 0. then float_of_int r.input_rows /. s else 0. in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"smoke\": %b,\n  \"reps\": \"best-of\",\n" smoke);
  Buffer.add_string b "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
       Buffer.add_string b
         (Printf.sprintf
            "    {\"name\": %S, \"input_rows\": %d, \"out_rows\": %d, \
             \"interpreted_s\": %.6f, \"batch_s\": %.6f, \
             \"interpreted_rows_per_s\": %.0f, \"batch_rows_per_s\": %.0f, \
             \"interpreted_alloc_words\": %.0f, \
             \"batch_alloc_words\": %.0f, \
             \"speedup\": %.2f, \"verified\": true}%s\n"
            r.name r.input_rows r.out_rows r.interp_s r.batch_s
            (rps r r.interp_s) (rps r r.batch_s) r.interp_alloc_w
            r.batch_alloc_w (speedup r)
            (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let () =
  let smoke_flag = ref false and out = ref None in
  let trace_out = ref None and parallel = ref false in
  let metrics_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest -> smoke_flag := true; parse rest
    | "--out" :: f :: rest -> out := Some f; parse rest
    | "--trace-json" :: f :: rest -> trace_out := Some f; parse rest
    | "--metrics-out" :: f :: rest -> metrics_out := Some f; parse rest
    | "--parallel" :: rest -> parallel := true; parse rest
    | a :: _ -> Printf.eprintf "unknown argument: %s\n" a; exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let dump_metrics () =
    match !metrics_out with
    | Some f ->
      Obs.Prometheus.write_file f;
      Printf.printf "wrote %s (Prometheus exposition)\n" f
    | None -> ()
  in
  let sc = if !smoke_flag then smoke else full in
  if !parallel then begin
    let out = Option.value !out ~default:"BENCH_par.json" in
    run_parallel ~smoke:!smoke_flag ~out sc;
    dump_metrics ();
    exit 0
  end;
  let out = ref (Option.value !out ~default:"BENCH_exec.json") in
  let rows = workloads sc @ [ end_to_end sc ] in
  Printf.printf "%-16s %12s %10s %12s %12s %9s %13s %13s\n" "workload"
    "input_rows" "out_rows" "interp_s" "batch_s" "speedup" "interp_Mw"
    "batch_Mw";
  List.iter
    (fun r ->
       Printf.printf "%-16s %12d %10d %12.4f %12.4f %8.1fx %13.2f %13.2f\n"
         r.name r.input_rows r.out_rows r.interp_s r.batch_s (speedup r)
         (r.interp_alloc_w /. 1e6) (r.batch_alloc_w /. 1e6))
    rows;
  let oc = open_out !out in
  output_string oc (json_of_rows ~smoke:!smoke_flag rows);
  close_out oc;
  Printf.printf "wrote %s (all workloads verified: identical rows and \
                 counters)\n" !out;
  (match !trace_out with Some f -> write_trace sc f | None -> ());
  dump_metrics ()
