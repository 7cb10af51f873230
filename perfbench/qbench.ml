(* Whole-query benchmark: SQL text to rows through the public pipeline
   (Sql.Parser.parse, Sql.Binder.bind_script, Core.Pipeline.run_query),
   as a closed loop with one client in one process.

   Usage: qbench --workload NAME --seed N --seconds S --trace 0|1

   Every run builds the workload's databases from the seed, then checks
   every query against the tuple interpreter under
   [Core.Pipeline.naive_config] before anything is timed.  With
   [--trace 0] it times the closed loop and prints the end-to-end
   metrics; with [--trace 1] it replays every query one layer call at a
   time (Replay) and prints the per-layer metrics.  The last line of
   standard output is one JSON object:
   {"correct": _, "attempted": _, "failed": _, "metrics": {...}}.
   A failed check exits 1 without that line. *)

let now = Speed.now

let fail fmt =
  Printf.ksprintf
    (fun msg ->
       prerr_endline ("qbench: " ^ msg);
       exit 1)
    fmt

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Nearest-rank quantile of an unsorted list. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs

let mean xs =
  match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Running one query *)

let config (w : Suite.t) = { Core.Pipeline.default_config with dop = w.Suite.dop }

let bind (q : Suite.query) =
  Sql.Binder.bind_script q.Suite.db.Suite.cat (Sql.Parser.parse q.Suite.sql)

(* SQL text to rows in a fresh context, as a user would run it. *)
let run_query config (q : Suite.query) =
  let ctx = Exec.Context.create () in
  let r, reports =
    Core.Pipeline.run_query ~ctx ~config q.Suite.db.Suite.cat
      q.Suite.db.Suite.stats (bind q)
  in
  (r, reports, ctx)

(* Row digest: in order under a total ORDER BY, else as a multiset. *)
let digest ~ordered (r : Exec.Executor.result) =
  let rows = Array.copy r.Exec.Executor.rows in
  if not ordered then Array.sort Relalg.Tuple.compare rows;
  Digest.string (Marshal.to_string rows [ Marshal.No_sharing ])

(* ------------------------------------------------------------------ *)
(* Reference check *)

type reference = {
  digest : Digest.t;
  snap : Exec.Context.snapshot;
  cost : float;  (** Exec.Context.weighted_cost of one execution *)
}

(* Rows must match the tuple interpreter under naive_config (no
   rewriting); the interpreted and batch engines — and dop 1 and the
   workload's dop — must charge bit-identical counters. *)
let check_query (w : Suite.t) (q : Suite.query) : reference =
  let cfg = config w in
  let ordered = q.Suite.ordered in
  let oracle, _, _ =
    run_query { Core.Pipeline.naive_config with engine = `Interpreted } q
  in
  let d = digest ~ordered oracle in
  let engines =
    [ ("interpreted", { cfg with engine = `Interpreted; dop = 1 });
      ("batch", { cfg with dop = 1 }) ]
    @ if w.Suite.dop > 1 then [ ("dop " ^ string_of_int w.Suite.dop, cfg) ]
    else []
  in
  let runs =
    List.map
      (fun (label, c) ->
         let r, _, ctx = run_query c q in
         if digest ~ordered r <> d then
           fail "%s/%s: %s rows differ from the reference interpreter"
             w.Suite.name q.Suite.name label;
         (label, ctx))
      engines
  in
  let snap0 = Exec.Context.snapshot (snd (List.hd runs)) in
  List.iter
    (fun (label, ctx) ->
       if Exec.Context.snapshot ctx <> snap0 then
         fail "%s/%s: %s counters (%s) differ from interpreted (%s)"
           w.Suite.name q.Suite.name label
           (Fmt.str "%a" Exec.Context.pp_snapshot (Exec.Context.snapshot ctx))
           (Fmt.str "%a" Exec.Context.pp_snapshot snap0))
    runs;
  { digest = d; snap = snap0;
    cost = Exec.Context.weighted_cost (snd (List.hd runs)) }

(* ------------------------------------------------------------------ *)
(* Set-up *)

(* Data load, index build and ANALYZE (inside the Workload.Schemas
   builders), plus one warm-up pass that fills lazy caches such as
   Storage.Table.rows_array.  Repeated at least 3 times, and up to 9
   while the set-ups so far took under 2 s; the last build is kept and
   the median time reported, raw and scaled by the median of the speed
   probes taken before each set-up. *)
let setup name seed =
  let speed = Speed.create () in
  let raw = ref [] and kept = ref None in
  let reps () = List.length !raw in
  while reps () < 3 || (reps () < 9 && sum !raw < 2.) do
    kept := None;
    Gc.compact ();
    ignore (Speed.sample speed);
    let t0 = now () in
    let w = Suite.build name seed in
    List.iter (fun q -> ignore (run_query (config w) q)) w.Suite.queries;
    raw := (now () -. t0) :: !raw;
    kept := Some w
  done;
  let scale = Speed.reference_s /. Speed.median_probe_s speed in
  match !kept with
  | Some w -> (w, (median !raw *. scale, median !raw, reps ()))
  | None -> assert false

(* Every pass runs each query [weight] times, in a seed-shuffled order. *)
let pass_order st (w : Suite.t) =
  let slots =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i (q : Suite.query) -> List.init q.Suite.weight (fun _ -> i))
            w.Suite.queries))
  in
  for i = Array.length slots - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = slots.(i) in
    slots.(i) <- slots.(j);
    slots.(j) <- t
  done;
  slots

(* Whole passes until [seconds] have gone by and at least [min_execs]
   query executions ran, but never past three times [seconds].  Each pass
   starts with a speed probe; [f ~scale i] runs one execution of query
   [i] and scales its timings by [scale]. *)
let passes ?(min_execs = 0) ~seconds speed st w f =
  let t0 = now () in
  let execs = ref 0 in
  let more () =
    let dt = now () -. t0 in
    !execs = 0 || dt < seconds || (!execs < min_execs && dt < 3. *. seconds)
  in
  while more () do
    let scale = Speed.sample speed in
    let order = pass_order st w in
    Array.iter (f ~scale) order;
    execs := !execs + Array.length order
  done

(* ------------------------------------------------------------------ *)
(* Output *)

type metric = string * float * string

let print_result ~attempted ~failed (metrics : metric list) =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-28s %18.6f %s\n" name v unit)
    metrics;
  let fields =
    List.map
      (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", " fields)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* ------------------------------------------------------------------ *)
(* End-to-end run (--trace 0) *)

let end_to_end ~seed ~seconds ~setup (w : Suite.t) refs =
  let cfg = config w in
  let queries = Array.of_list w.Suite.queries in
  let raw = ref [] and lat = ref [] and expl = ref [] in
  let by_query = Array.make (Array.length queries) [] in
  let attempted = ref 0 and failed = ref 0 in
  let st = Workload.Gen.rng (Suite.derive seed 3) in
  let speed = Speed.create () in
  (* 200 executions leave at least 10 above the p95 *)
  passes ~min_execs:200 ~seconds speed st w (fun ~scale i ->
      let q = queries.(i) in
      incr attempted;
      let t0 = now () in
      let result =
        try
          let r, _, _ = run_query cfg q in
          Some r
        with _ -> None
      in
      let dt = now () -. t0 in
      raw := dt :: !raw;
      lat := (dt *. scale) :: !lat;
      by_query.(i) <- dt :: by_query.(i);
      (match result with
       | Some r when digest ~ordered:q.Suite.ordered r = refs.(i).digest -> ()
       | _ -> incr failed);
      let t0 = now () in
      ignore
        (Core.Pipeline.explain_query ~config:cfg q.Suite.db.Suite.cat
           q.Suite.db.Suite.stats (bind q));
      expl := ((now () -. t0) *. scale) :: !expl);
  let n = List.length !lat in
  let ms x = 1000. *. x in
  Array.iteri
    (fun i (q : Suite.query) ->
       Printf.printf "  %-34s x%d  raw p50 %10.3f ms\n" q.Suite.name
         q.Suite.weight (ms (median by_query.(i))))
    queries;
  Printf.printf "%s: %d timed query executions (%d above p95), %d distinct \
                 queries, seed %d\n"
    w.Suite.name n (n - int_of_float (ceil (0.95 *. float_of_int n)))
    (Array.length queries) seed;
  Printf.printf "failed_frac %.6f (%d of %d)\n"
    (float_of_int !failed /. float_of_int (max 1 !attempted)) !failed
    !attempted;
  let setup_scaled, setup_raw, setup_reps = setup in
  Printf.printf
    "host speed: probe median %.3f ms (reference %.3f ms); unscaled: \
     p50 %.4f ms, p95 %.4f ms, %.2f queries/s, set-up %.3f s (median of %d)\n"
    (ms (Speed.median_probe_s speed)) (ms Speed.reference_s) (ms (median !raw))
    (ms (quantile 0.95 !raw)) (float_of_int n /. sum !raw) setup_raw setup_reps;
  print_result ~attempted:!attempted ~failed:!failed
    [ ("latency_p50_ms", ms (median !lat), "ms");
      ("latency_p95_ms", ms (quantile 0.95 !lat), "ms");
      ("queries_per_s", float_of_int n /. sum !lat, "1/s");
      ("explain_p50_ms", ms (median !expl), "ms");
      ("sim_cost", Array.fold_left (fun a r -> a +. r.cost) 0. refs, "cost");
      ("peak_heap_mb", peak_heap_mb (), "MiB");
      ("setup_s", setup_scaled, "s") ]

(* ------------------------------------------------------------------ *)
(* Traced run (--trace 1) *)

let op_classes =
  [ "seq_scan"; "index_scan"; "filter"; "project"; "sort"; "materialize";
    "nested_loop"; "index_nl"; "merge_join"; "hash_join"; "hash_agg";
    "stream_agg"; "hash_distinct" ]

let op_class : Exec.Plan.t -> string = function
  | Exec.Plan.Seq_scan _ -> "seq_scan"
  | Exec.Plan.Index_scan _ -> "index_scan"
  | Exec.Plan.Filter _ -> "filter"
  | Exec.Plan.Project _ -> "project"
  | Exec.Plan.Sort _ -> "sort"
  | Exec.Plan.Materialize _ -> "materialize"
  | Exec.Plan.Nested_loop _ -> "nested_loop"
  | Exec.Plan.Index_nl _ -> "index_nl"
  | Exec.Plan.Merge_join _ -> "merge_join"
  | Exec.Plan.Hash_join _ -> "hash_join"
  | Exec.Plan.Hash_agg _ -> "hash_agg"
  | Exec.Plan.Stream_agg _ -> "stream_agg"
  | Exec.Plan.Hash_distinct _ -> "hash_distinct"

let layers = [ "parse"; "bind"; "rewrite"; "optimize"; "schedule"; "exec" ]

(* One replay per query against [run_query]: identical rows in order and
   identical counters, or the run fails.  Returns the deterministic
   per-pass counters and each query's worst q-error. *)
let fidelity (w : Suite.t) refs =
  let cfg = config w in
  let r = Replay.recorder () in
  List.mapi
    (fun i (q : Suite.query) ->
       let expect, _, ectx = run_query cfg q in
       let ctx = Exec.Context.create () in
       let got, blocks = Replay.run r ~qid:i ~estimates:true cfg ctx q in
       let same_rows =
         Array.length got.Exec.Executor.rows
         = Array.length expect.Exec.Executor.rows
         && Array.for_all2 Relalg.Tuple.equal got.Exec.Executor.rows
              expect.Exec.Executor.rows
       in
       if not same_rows then
         fail "%s/%s: traced replay rows differ from run_query" w.Suite.name
           q.Suite.name;
       if Exec.Context.snapshot ctx <> Exec.Context.snapshot ectx then
         fail "%s/%s: traced replay counters differ from run_query"
           w.Suite.name q.Suite.name;
       if Exec.Context.snapshot ctx <> refs.(i).snap then
         fail "%s/%s: traced replay counters differ from the reference check"
           w.Suite.name q.Suite.name;
       let qerr =
         List.fold_left
           (fun acc (b : Replay.block) ->
              match Option.bind b.Replay.obs Obs.Analyze.max_q_error with
              | Some (e, _) when Float.is_finite e ->
                Some (Float.max e (Option.value acc ~default:1.))
              | _ -> acc)
           None blocks
       in
       (got, blocks, ctx, qerr))
    w.Suite.queries

let traced ~seed ~seconds (w : Suite.t) refs =
  let cfg = config w in
  let queries = Array.of_list w.Suite.queries in
  let nq = float_of_int (Array.length queries) in
  let checked = fidelity w refs in
  (* deterministic per-pass counters: every distinct query once *)
  let blocks = List.concat_map (fun (_, b, _, _) -> b) checked in
  let enum =
    List.fold_left
      (fun a (b : Replay.block) -> Systemr.Join_order.counters_add a b.Replay.enum)
      Systemr.Join_order.counters_zero blocks
  in
  let count f = float_of_int (List.fold_left (fun a b -> a + f b) 0 blocks) in
  let snaps =
    List.fold_left
      (fun a (_, _, ctx, _) ->
         Exec.Context.snapshot_add a (Exec.Context.snapshot ctx))
      Exec.Context.snapshot_zero checked
  in
  let hits, accesses =
    List.fold_left
      (fun (h, n) (_, _, ctx, _) ->
         let hh, mm = Storage.Buffer.Pool.stats ctx.Exec.Context.pool in
         (h + hh, n + hh + mm))
      (0, 0) checked
  in
  let qerrs = List.filter_map (fun (_, _, _, e) -> e) checked in
  let rows_out =
    List.fold_left
      (fun a (r, _, _, _) -> a + Array.length r.Exec.Executor.rows)
      0 checked
  in
  let planned = count (fun b -> if b.Replay.interpreted then 0 else 1) in
  let views = count (fun b -> b.Replay.views) in
  (* untraced closed loop for a third of the time: the overhead base,
     compared with the traced loop in speed-scaled time *)
  let st = Workload.Gen.rng (Suite.derive seed 3) in
  let speed = Speed.create () in
  let untraced = ref [] and traced = ref [] in
  passes ~seconds:(seconds /. 3.) speed st w (fun ~scale i ->
      let t0 = now () in
      ignore (run_query cfg queries.(i));
      untraced := ((now () -. t0) *. scale) :: !untraced);
  (* traced replay for the rest *)
  let rec_ = Replay.recorder () in
  let qid = ref 0 and attempted = ref 0 and failed = ref 0 in
  let op_s = Hashtbl.create 16 and scales = Hashtbl.create 1024 in
  let alloc = ref 0. and busy = ref 0. in
  passes ~seconds:(2. *. seconds /. 3.) speed st w (fun ~scale i ->
      let q = queries.(i) in
      incr attempted;
      Hashtbl.replace scales !qid scale;
      let ctx = Exec.Context.create () in
      let r, bl = Replay.run rec_ ~qid:!qid cfg ctx q in
      incr qid;
      (* the query span closes last, so it heads the list *)
      (match rec_.Replay.spans with
       | s :: _ -> traced := ((s.Replay.t1 -. s.Replay.t0) *. scale) :: !traced
       | [] -> ());
      if digest ~ordered:q.Suite.ordered r <> refs.(i).digest then incr failed;
      List.iter
        (fun (b : Replay.block) ->
           alloc := !alloc +. b.Replay.exec_alloc_w;
           Option.iter
             (fun obs ->
                List.iter
                  (fun (op : Exec.Instrument.op) ->
                     let c = op_class op.Exec.Instrument.node in
                     Hashtbl.replace op_s c
                       ((op.Exec.Instrument.wall_s *. scale)
                        +. Option.value (Hashtbl.find_opt op_s c) ~default:0.);
                     Option.iter
                       (fun (p : Exec.Instrument.par) ->
                          busy :=
                            !busy
                            +. scale
                               *. Array.fold_left ( +. ) 0.
                                    p.Exec.Instrument.worker_wall)
                       op.Exec.Instrument.par)
                  (Exec.Instrument.ops obs))
             b.Replay.obs)
        bl);
  let spans = rec_.Replay.spans in
  (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
  Replay.write_chrome
    (Printf.sprintf ".bench_out/%s-seed%d-spans.json" w.Suite.name seed)
    (List.rev spans);
  let execs = float_of_int !qid in
  (* speed-scaled seconds spent in spans called [name] *)
  let total name =
    List.fold_left
      (fun a (s : Replay.span) ->
         if s.Replay.name = name then
           a +. ((s.Replay.t1 -. s.Replay.t0) *. Hashtbl.find scales s.Replay.qid)
         else a)
      0. spans
  in
  let query_s = total "query" in
  let per_query_us x = 1e6 *. x /. execs in
  let layer_s = List.map (fun l -> (l, total l)) layers in
  let covered = sum (List.map snd layer_s) in
  let exec_s = List.assoc "exec" layer_s in
  let ops_total = Hashtbl.fold (fun _ v a -> a +. v) op_s 0. in
  let share name = List.assoc name layer_s /. query_s in
  let spawn_us =
    if w.Suite.dop <= 1 then 0.
    else
      1e6 *. Speed.sample speed
      *. median
           (List.init 20 (fun _ ->
                let t0 = now () in
                Domain_pool.with_pool w.Suite.dop ignore;
                now () -. t0))
  in
  let f = float_of_int in
  print_result ~attempted:!attempted ~failed:!failed
    ([ ("sql.parse_us", per_query_us (List.assoc "parse" layer_s), "us");
       ("sql.bind_us", per_query_us (List.assoc "bind" layer_s), "us");
       ("sql.share", share "parse" +. share "bind", "frac");
       ("rewrite.us", per_query_us (List.assoc "rewrite" layer_s), "us");
       ("rewrite.share", share "rewrite", "frac");
       ("rewrite.applications", count (fun b -> b.Replay.applications), "count");
       ("rewrite.interpreted_blocks",
        count (fun b -> if b.Replay.interpreted then 1 else 0), "count");
       ("optimize.us", per_query_us (List.assoc "optimize" layer_s), "us");
       ("optimize.share", share "optimize", "frac");
       ("optimize.views_materialized", views, "count");
       ("systemr.subsets", f enum.Systemr.Join_order.subsets, "count");
       ("systemr.splits", f enum.Systemr.Join_order.splits, "count");
       ("systemr.costed", f enum.Systemr.Join_order.costed, "count");
       ("systemr.pruned", f enum.Systemr.Join_order.pruned, "count");
       ("systemr.prune_ratio",
        (if enum.Systemr.Join_order.costed = 0 then 0.
         else f enum.Systemr.Join_order.pruned /. f enum.Systemr.Join_order.costed),
        "ratio");
       ("stats.qerror_p50", (if qerrs = [] then 1. else median qerrs), "ratio");
       ("stats.qerror_max", List.fold_left Float.max 1. qerrs, "ratio");
       ("exec.us", per_query_us exec_s, "us");
       ("exec.share", exec_s /. query_s, "frac");
       ("exec.alloc_mw", !alloc /. execs /. 1e6, "Mword");
       ("exec.rows_out", f rows_out, "count");
       ("exec.cpu_ops", f snaps.Exec.Context.cpu, "count");
       ("exec.seq_io", f snaps.Exec.Context.seq, "count");
       ("exec.rand_io", f snaps.Exec.Context.rand, "count");
       ("exec.spill_io", f snaps.Exec.Context.spill, "count") ]
     @ List.map
         (fun c ->
            ( Printf.sprintf "exec.op.%s.us" c,
              per_query_us (Option.value (Hashtbl.find_opt op_s c) ~default:0.),
              "us" ))
         op_classes
     @ [ ("exec.boundary_us", per_query_us (exec_s -. ops_total), "us");
         ("storage.buffer_hit_ratio",
          (if accesses = 0 then 0. else f hits /. f accesses), "ratio");
         ("pool.spawn_us", spawn_us, "us");
         ("pool.spawns_per_query",
          (if w.Suite.dop <= 1 then 0. else (planned +. views) /. nq), "count");
         ("parallel.schedule_us", per_query_us (List.assoc "schedule" layer_s),
          "us");
         ("parallel.share", share "schedule", "frac");
         ("morsel.worker_busy_frac",
          (if w.Suite.dop <= 1 || exec_s = 0. then 0.
           else !busy /. (f w.Suite.dop *. exec_s)), "frac");
         ("obs.trace_overhead_frac", mean !traced /. mean !untraced -. 1.,
          "frac");
         ("obs.unattributed_frac", (query_s -. covered) /. query_s, "frac") ])

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let usage () =
    prerr_endline
      "usage: qbench --workload NAME --seed N --seconds S --trace 0|1";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some name, Some seed, Some seconds, Some trace
    when List.mem name Suite.names && seconds > 0. ->
    let w, ((_, setup_raw, setup_reps) as setup) = setup name seed in
    let t0 = now () in
    let refs = Array.of_list (List.map (check_query w) w.Suite.queries) in
    Printf.printf "%s: %d queries match the reference interpreter \
                   (checked in %.1f s; set-up %.2f s, median of %d)\n%!"
      name (Array.length refs) (now () -. t0) setup_raw setup_reps;
    if trace then traced ~seed ~seconds w refs
    else end_to_end ~seed ~seconds ~setup w refs
  | _ -> usage ()
