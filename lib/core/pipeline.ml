(* The end-to-end query pipeline:

     QGM block --rewrite rules--> QGM block
               --materialize derived sources (block at a time)-->
               single base-only block
               --join enumeration (System-R DP)--> physical plan
               --execute--> rows

   Multi-block queries whose subquery predicates survive rewriting fall
   back to the tuple-iteration interpreter — the paper's pre-unnesting
   semantics — so every query always runs; the experiments compare the two
   paths.  Materialized views (derived sources) are planned and executed
   bottom-up into temporary tables, in the Starburst style of optimizing a
   block at a time. *)

open Relalg

type config = {
  rewrites : Rewrite.Rules.t list list; (* rule classes, run in order *)
  join_config : Systemr.Join_order.config;
  lint : bool; (* run the static verifier at every stage *)
  engine : [ `Interpreted | `Batch ]; (* plan execution engine *)
  analysis : bool;
      (* abstract-interpretation pass: analyzer-backed rewrite rules
         (empty-subtree folding, transitive range closure) appended as a
         final rule class, plus provable-bound lints comparing the cost
         model's estimates against the sound cardinality envelope *)
  dop : int;
      (* degree of parallelism.  > 1 selects the morsel-driven engine
         (batch plans only), with per-node dop taken from the two-phase
         segment schedule; results and counters are bit-identical to
         dop 1 *)
  morsel_rows : int; (* parallel split granularity, rows per morsel *)
  chunk_rows : int;
      (* columnar-engine block granularity (selection-vector build and
         emission loops); results are chunk_rows-independent *)
  estimator :
    [ `Histogram
    | `Feedback of Stats.Feedback.t
    | `Sketch of Stats.Sketch.registry ];
      (* cardinality estimation mode, the one place it is chosen.
         `Histogram is the stock Stats.Derive path.  `Feedback carries
         an observed-cardinality cache: every instrumented execution
         records per-operator actuals under normalized subexpression
         digests, and re-optimization overrides derived estimates with
         fresh cached actuals.  `Sketch carries a Fast-AGMS registry:
         executions build one-pass sketches over the plan's join-key
         columns (batch/morsel engines), and each block's statistics
         snapshot carries the fresh ones, which join selectivities
         prefer over histograms.  The mutable state lives in the variant
         so one config reused across runs closes the loop;
         default_config stays stateless. *)
  telemetry : Obs.Span.recorder option;
      (* the one telemetry switch.  When set, every stage (rewrite,
         optimize with nested view/enumerate spans, verify, execute)
         opens a span and feeds the per-stage latency histograms,
         optimizer trace events land on the open span, and each planned
         block's execute span carries its per-operator recorder with
         estimates attached.  None (the default) costs nothing. *)
}

let default_rewrites : Rewrite.Rules.t list list =
  [ [ Rewrite.View_merge.rule ];
    Rewrite.Unnest.default_rules;
    [ Rewrite.View_merge.rule ];
    [ Rewrite.Predicate_move.constants_rule ];
    [ Rewrite.Predicate_move.pushdown_rule ] ]

let default_config =
  { rewrites = default_rewrites;
    join_config = Systemr.Join_order.default_config;
    lint = false;
    engine = `Batch;
    analysis = false;
    dop = 1;
    morsel_rows = Exec.Morsel.default_morsel_rows;
    chunk_rows = Exec.Batch.default_chunk_rows;
    estimator = `Histogram;
    telemetry = None }

(* A top-level pipeline stage: a span plus the per-stage latency
   histogram ([stage_seconds{stage="..."}]), fed from the closed span's
   duration.  Only the flat stages go through here — nested spans (views,
   enumerator calls) skip the histogram so stage latencies sum to roughly
   the query total.  [ops] is the operator recorder an execute span
   carries. *)
let stage config ?attrs ?ops name f =
  match config.telemetry with
  | None -> f ()
  | Some r ->
    let s = Obs.Span.enter r ?attrs name in
    s.Obs.Span.ops <- ops;
    Fun.protect
      ~finally:(fun () ->
        Obs.Span.stop r s;
        Obs.Metrics.observe_hist (Obs.Metrics.stage_seconds name)
          s.Obs.Span.dur_s)
      f

(* Optimizer trace events go to the innermost open span. *)
let trace_sink config = Option.map Obs.Span.event config.telemetry

(* The analyzer rules run after pushdown so contradictions pushed into a
   view fold there first; [fold_empty]'s own fixpoint then propagates the
   emptiness back out through the enclosing blocks. *)
let effective_rewrites (config : config) : Rewrite.Rules.t list list =
  if config.analysis then config.rewrites @ [ Analysis.Simplify.rules ]
  else config.rewrites

let feedback_of config =
  match config.estimator with `Feedback fb -> Some fb | _ -> None

(* The one plan annotation ([Obs.Est]): per-node estimates under the
   planner's assumption and feedback cache, against the statistics it
   planned with.  Each executed plan is annotated at most once, and only
   when something reads it: the provable-bound lint, telemetry, feedback
   recording or the two-phase scheduler. *)
let annotate config cat db plan =
  Obs.Est.annotate ~asm:config.join_config.Systemr.Join_order.asm
    ?feedback:(feedback_of config) cat db plan

(* All engines produce bit-identical rows and Context accounting; the
   interpreter remains the differential-testing oracle.  At dop > 1 the
   two-phase segment schedule decides each node's parallelism, priced
   from the plan's annotation [est]. *)
let exec_plan config ~ctx ?obs ?sketch ?est cat db plan =
  match config.engine with
  | `Interpreted ->
    (* the tuple interpreter has no columnar scan to hook sketches into *)
    Exec.Executor.run ~ctx ?obs cat plan
  | `Batch ->
    let schedule =
      if config.dop > 1 then
        let est =
          match est with
          | Some est -> Lazy.force est
          | None -> annotate config cat db plan
        in
        Some
          (Parallel.Two_phase.node_dop ~est
             { Parallel.Two_phase.default_config with processors = config.dop }
             cat db plan)
      else None
    in
    Exec.Morsel.run ~ctx ?obs ?sketch ?schedule ~morsel:config.morsel_rows
      ~chunk_rows:config.chunk_rows ~dop:config.dop cat plan

(* No rewriting at all: the naive baseline. *)
let naive_config = { default_config with rewrites = [] }

(* ------------------------------------------------------------------ *)
(* Sketch estimator plumbing *)

(* The (table, column) pairs used as join keys anywhere in the plan — the
   columns worth sketching during this execution. *)
let join_key_cols (plan : Exec.Plan.t) : (string * string) list =
  let module P = Exec.Plan in
  let alias_tbl = Hashtbl.create 8 in
  let refs : Expr.col_ref list ref = ref [] in
  let note (c : Expr.col_ref) = refs := c :: !refs in
  let eq_cols pred =
    List.iter
      (function
        | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b)
          when a.Expr.rel <> b.Expr.rel ->
          note a;
          note b
        | _ -> ())
      (Pred.conjuncts pred)
  in
  List.iter
    (fun p ->
       match p with
       | P.Seq_scan { table; alias; _ } | P.Index_scan { table; alias; _ } ->
         Hashtbl.replace alias_tbl alias table
       | P.Index_nl { table; alias; columns; outer_keys; _ } ->
         Hashtbl.replace alias_tbl alias table;
         List.iter (fun c -> note { Expr.rel = alias; col = c }) columns;
         List.iter
           (function Expr.Col c -> note c | _ -> ())
           outer_keys
       | P.Merge_join { pairs; _ } | P.Hash_join { pairs; _ } ->
         List.iter
           (fun (a, b) ->
              note a;
              note b)
           pairs
       | P.Nested_loop { pred; _ } -> eq_cols pred
       | P.Filter _ | P.Project _ | P.Sort _ | P.Materialize _
       | P.Hash_agg _ | P.Stream_agg _ | P.Hash_distinct _ -> ())
    (P.preorder plan);
  List.filter_map
    (fun (c : Expr.col_ref) ->
       match Hashtbl.find_opt alias_tbl c.Expr.rel with
       | Some table when not (Storage.Catalog.is_temp_table table) ->
         Some (table, c.Expr.col)
       | _ -> None)
    !refs
  |> List.sort_uniq compare

(* Scan hook for one execution: start a sketch for every wanted join-key
   column that has no fresh sketch yet, feeding at most one scan per
   (table, column) — a self-joined table is scanned once per alias, but
   its column must be summarized exactly once. *)
let sketch_hook_for (reg : Stats.Sketch.registry) db plan :
  Exec.Batch.sketch_hook * (string * string, Stats.Sketch.t) Hashtbl.t =
  let wanted = join_key_cols plan in
  let pending : (string * string, Stats.Sketch.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let rows_of table =
    match Stats.Table_stats.find db table with
    | Some ts -> ts.Stats.Table_stats.rows
    | None -> -1.
  in
  let hook ~table ~column =
    if not (List.mem (table, column) wanted) then None
    else if Hashtbl.mem pending (table, column) then None
    else
      let fresh =
        match Stats.Sketch.registry_find reg ~table ~column with
        | Some e -> Stats.Sketch.entry_fresh e ~rows:(rows_of table) <> None
        | None -> false
      in
      if fresh then None
      else begin
        let sk = Stats.Sketch.create () in
        Hashtbl.replace pending (table, column) sk;
        Some (fun v -> Stats.Sketch.update sk v)
      end
  in
  (hook, pending)

(* After execution: enter the sketches built during this run into the
   registry, stamped with the tables' current row counts. *)
let commit_sketches (reg : Stats.Sketch.registry) db pending : unit =
  Hashtbl.iter
    (fun (table, column) sk ->
       let rows =
         match Stats.Table_stats.find db table with
         | Some ts -> ts.Stats.Table_stats.rows
         | None -> -1.
       in
       Stats.Sketch.registry_set reg ~table ~column
         { Stats.Sketch.sketch = sk; rows_at_build = rows };
       Obs.Metrics.incr Obs.Metrics.sketches_built)
    pending

(* The statistics one block is planned against: a private copy of the
   caller's registry, so nothing the pipeline registers — view
   temporaries, sketches — reaches the caller.  Under `Sketch the copy's
   column stats carry every still-fresh sketch, where [Stats.Derive]
   consults them; a sketch whose row-count stamp no longer matches
   (statistics refreshed, data changed) stays out until an execution
   rebuilds it. *)
let snapshot config db : Stats.Table_stats.db =
  let snap = Hashtbl.copy db in
  (match config.estimator with
   | `Sketch reg ->
     Stats.Sketch.registry_iter
       (fun ~table ~column e ->
          match Stats.Table_stats.find snap table with
          | None -> ()
          | Some ts -> (
            match Stats.Sketch.entry_fresh e ~rows:ts.Stats.Table_stats.rows with
            | None -> ()
            | Some sk ->
              let cols =
                List.map
                  (fun (n, cs) ->
                     if n = column then
                       ( n,
                         Stats.Table_stats.map_deferred
                           (fun cs ->
                              { cs with Stats.Table_stats.sketch = Some sk })
                           cs )
                     else (n, cs))
                  ts.Stats.Table_stats.cols
              in
              Hashtbl.replace snap table { ts with Stats.Table_stats.cols }))
       reg
   | `Histogram | `Feedback _ -> ());
  snap

type path = Planned | Interpreted (* fallback for residual correlation *)

type report = {
  rewritten : Rewrite.Qgm.block;
  trace : Rewrite.Rules.trace;
  path : path;
  plan : Exec.Plan.t option;
  est_cost : float;
  enum : Systemr.Join_order.counters;
      (* enumeration effort, summed over this block and its views *)
  diags : Verify.Diag.t list; (* lint findings; [] when lint is off *)
  stats_at_plan : Stats.Table_stats.db option;
      (* the block's private statistics snapshot ([snapshot]): the
         caller's registry as the planner saw it, plus view temporaries
         and, under `Sketch, fresh sketches (bindings are immutable
         records, so the copy is a true snapshot).  Re-annotating the
         plan later — after an ANALYZE refresh — must use this, not the
         live registry: [Obs.Est] re-synthesizes index-scan bound
         selectivities from whatever stats it is handed, and against
         refreshed stats the reported "estimates" would be numbers the
         planner never produced.  None on the interpreted path. *)
  span : Obs.Span.t option;
      (* this block's span subtree (rewrite / optimize / verify /
         execute children, their events and the execute span's operator
         recorder), closed by the time the report is returned; None
         unless [config.telemetry] *)
}

(* What keeps this block (or one nested in it) from being planned: the
   first residual subquery predicate or correlated reference, named for
   the interpreted-fallback trace event; [None] when it can be planned. *)
let rec fallback_reason (b : Rewrite.Qgm.block) : string option =
  let pred = function
    | Rewrite.Qgm.P _ -> None
    | (Rewrite.Qgm.In_sub _ | Rewrite.Qgm.Exists_sub _ | Rewrite.Qgm.Cmp_sub _)
      as p ->
      (* one line: the printer breaks nested blocks over several *)
      let lines = String.split_on_char '\n' (Fmt.str "%a" Rewrite.Qgm.pp_pred p) in
      Some ("subquery predicate " ^ String.concat " " (List.map String.trim lines))
  in
  let source = function
    | Rewrite.Qgm.Base _ -> None
    | Rewrite.Qgm.Derived { block; alias } ->
      Option.map (fun r -> "view " ^ alias ^ ": " ^ r) (fallback_reason block)
  in
  match Rewrite.Qgm.free_aliases b with
  | _ :: _ as free -> Some ("correlated on " ^ String.concat ", " free)
  | [] -> (
    match List.find_map pred (b.Rewrite.Qgm.where @ b.Rewrite.Qgm.having) with
    | Some _ as r -> r
    | None ->
      List.find_map source
        (b.Rewrite.Qgm.from
         @ List.map (fun s -> s.Rewrite.Qgm.s_source) b.Rewrite.Qgm.semijoins
         @ List.map (fun o -> o.Rewrite.Qgm.o_source) b.Rewrite.Qgm.outerjoins))

let plannable b = fallback_reason b = None

(* ------------------------------------------------------------------ *)
(* Planning a base-only single block *)

(* Materialize a derived source into a temporary table registered in the
   catalog and in the statistics registry [db]; returns the replacement Base source, the
   temp name, and the estimated cost spent.  With [exec_views:false] (plain
   EXPLAIN) the view is planned but never executed: the temporary stays
   empty and its statistics are fabricated from the sub-plan's estimated
   cardinality, so the outer block still costs against realistic row
   counts.  [on_view] sees each view's (alias, plan) for display. *)
let rec materialize_source ~on_plan ~trace ~exec_views ~on_view ctx config cat
    db (s : Rewrite.Qgm.source) :
  Rewrite.Qgm.source * string list * float * Systemr.Join_order.counters =
  match s with
  | Rewrite.Qgm.Base _ -> (s, [], 0., Systemr.Join_order.counters_zero)
  | Rewrite.Qgm.Derived { block; alias } ->
    Obs.Span.within config.telemetry ~attrs:[ ("alias", alias) ] "view"
    @@ fun () ->
    let plan, cost, enum, temps =
      plan_block ~on_plan ?trace ~exec_views ~on_view ctx config cat db block
    in
    let tmp_name = Storage.Catalog.fresh_temp_name alias in
    let schema = Exec.Plan.schema cat plan in
    let columns =
      List.map (fun (c : Schema.column) -> (c.Schema.name, c.Schema.ty)) schema
    in
    let table = Storage.Catalog.create_table cat ~name:tmp_name ~columns in
    if exec_views then begin
      let result = exec_plan config ~ctx cat db plan in
      Array.iter (Storage.Table.insert table) result.Exec.Executor.rows;
      (* writing the temporary costs its pages *)
      Exec.Context.charge_spill ctx (Storage.Table.page_count table);
      Hashtbl.replace db tmp_name (Stats.Table_stats.analyze_deferred table)
    end
    else begin
      let rows =
        Option.value (Obs.Est.card (annotate config cat db plan) plan)
          ~default:0.
      in
      let pages =
        Storage.Page.pages_for ~rows:(int_of_float (Float.ceil rows)) schema
      in
      Hashtbl.replace db tmp_name
        { Stats.Table_stats.table = tmp_name; rows; pages; cols = [] };
      on_view alias plan
    end;
    ( Rewrite.Qgm.Base
        { table = tmp_name; alias;
          schema = Schema.requalify table.Storage.Table.schema ~rel:alias },
      tmp_name :: temps,
      cost,
      enum )

(* Attach a semi/anti/outer join of [source] (Base) to [plan], choosing a
   hash join when an equi predicate is available. *)
and attach_join kind (plan : Exec.Plan.t) (plan_aliases : string list)
    (src : Rewrite.Qgm.source) (pred : Expr.t) : Exec.Plan.t =
  let table, alias =
    match src with
    | Rewrite.Qgm.Base { table; alias; _ } -> (table, alias)
    | Rewrite.Qgm.Derived { alias; _ } ->
      invalid_arg ("attach_join: unmaterialized " ^ alias)
  in
  let scan = Exec.Plan.Seq_scan { table; alias; filter = None } in
  let pairs, residual =
    Pred.equi_pairs ~left:plan_aliases ~right:[ alias ] (Pred.conjuncts pred)
  in
  if pairs <> [] then
    Exec.Plan.Hash_join
      { kind; pairs; residual = Pred.of_conjuncts residual; left = plan;
        right = scan }
  else
    Exec.Plan.Nested_loop
      { kind; pred; outer = plan; inner = Exec.Plan.Materialize scan }

(* Plan a single plannable block.  Returns (plan, estimated cost, plans
   costed, temp tables created).  [on_plan] sees every finished plan —
   including the sub-plans of materialized views, while their temporary
   tables are still in the catalog — which is where the linter hooks in. *)
and plan_block ?(on_plan = fun (_ : Exec.Plan.t) -> ()) ?trace
    ?(exec_views = true) ?(on_view = fun _ (_ : Exec.Plan.t) -> ()) ctx config
    cat db (b : Rewrite.Qgm.block) :
  Exec.Plan.t * float * Systemr.Join_order.counters * string list =
  (* 1. materialize derived sources *)
  let mat sources =
    List.fold_left
      (fun (acc, temps, cost, enum) s ->
         let s', t, c, e =
           materialize_source ~on_plan ~trace ~exec_views ~on_view ctx config
             cat db s
         in
         (acc @ [ s' ], temps @ t, cost +. c,
          Systemr.Join_order.counters_add enum e))
      ([], [], 0., Systemr.Join_order.counters_zero) sources
  in
  let from, temps1, cost1, enum1 = mat b.Rewrite.Qgm.from in
  let sj_sources, temps2, cost2, enum2 =
    mat (List.map (fun s -> s.Rewrite.Qgm.s_source) b.Rewrite.Qgm.semijoins)
  in
  let oj_sources, temps3, cost3, enum3 =
    mat (List.map (fun o -> o.Rewrite.Qgm.o_source) b.Rewrite.Qgm.outerjoins)
  in
  (* 2. optimize the inner-join core with the System-R enumerator *)
  let relations =
    List.map
      (function
        | Rewrite.Qgm.Base { table; alias; schema } ->
          { Systemr.Spj.alias; table; schema }
        | Rewrite.Qgm.Derived { alias; _ } ->
          invalid_arg ("plan_block: unmaterialized " ^ alias))
      from
  in
  let predicates = Rewrite.Qgm.plain_preds b.Rewrite.Qgm.where in
  let is_plain_group = b.Rewrite.Qgm.group_by = [] && b.Rewrite.Qgm.aggs = [] in
  let spj_order =
    (* exploit interesting orders end-to-end when no aggregation intervenes *)
    if
      is_plain_group && b.Rewrite.Qgm.semijoins = []
      && b.Rewrite.Qgm.outerjoins = []
      && List.for_all
           (fun (e, _) -> match e with Expr.Col _ -> true | _ -> false)
           b.Rewrite.Qgm.order_by
    then
      List.filter_map
        (fun (e, d) ->
           match e with Expr.Col c -> Some (c, d) | _ -> None)
        b.Rewrite.Qgm.order_by
    else []
  in
  let q =
    Systemr.Spj.make ~relations ~predicates ~order_by:spj_order ()
  in
  let res =
    (* one span per enumerator invocation (views recurse here too); its
       per-level effort counters arrive as trace events *)
    Obs.Span.within config.telemetry
      ~attrs:[ ("relations", string_of_int (List.length relations)) ]
      "enumerate"
    @@ fun () ->
    Systemr.Join_order.optimize ?trace ?feedback:(feedback_of config)
      ~config:config.join_config cat db q
  in
  let plan = ref res.Systemr.Join_order.best.Systemr.Candidate.plan in
  let cost = ref res.Systemr.Join_order.best.Systemr.Candidate.cost in
  let aliases = ref (Systemr.Spj.relation_aliases q) in
  (* 3. semijoins, then outerjoins *)
  List.iter2
    (fun (sj : Rewrite.Qgm.semijoin) src ->
       let kind = if sj.Rewrite.Qgm.s_anti then Algebra.Anti else Algebra.Semi in
       plan := attach_join kind !plan !aliases src sj.Rewrite.Qgm.s_pred)
    b.Rewrite.Qgm.semijoins sj_sources;
  List.iter2
    (fun (oj : Rewrite.Qgm.outerjoin) src ->
       plan := attach_join Algebra.Left_outer !plan !aliases src oj.Rewrite.Qgm.o_pred;
       aliases := !aliases @ [ Rewrite.Qgm.alias_of_source src ])
    b.Rewrite.Qgm.outerjoins oj_sources;
  (* 4. grouping, having, order, projection, distinct *)
  if not is_plain_group then
    plan :=
      Exec.Plan.Hash_agg
        { keys = b.Rewrite.Qgm.group_by; aggs = b.Rewrite.Qgm.aggs;
          input = !plan };
  (match Rewrite.Qgm.plain_preds b.Rewrite.Qgm.having with
   | [] -> ()
   | ps -> plan := Exec.Plan.Filter (Pred.of_conjuncts ps, !plan));
  (match b.Rewrite.Qgm.order_by with
   | [] -> ()
   | keys ->
     if spj_order = [] then
       plan :=
         Exec.Plan.Sort
           (List.map
              (fun (e, d) ->
                 { Exec.Plan.key = e; descending = (d = Algebra.Desc) })
              keys,
            !plan));
  plan := Exec.Plan.Project (b.Rewrite.Qgm.select, !plan);
  if b.Rewrite.Qgm.distinct then plan := Exec.Plan.Hash_distinct !plan;
  on_plan !plan;
  ( !plan,
    !cost +. cost1 +. cost2 +. cost3,
    List.fold_left Systemr.Join_order.counters_add
      res.Systemr.Join_order.counters [ enum1; enum2; enum3 ],
    temps1 @ temps2 @ temps3 )

(* ------------------------------------------------------------------ *)
(* Entry point *)

(* Hook plumbing shared by [run] and [explain]: a diagnostics accumulator,
   the rewrite-oracle / rewrite-trace callbacks for [Rewrite.Rules.run]
   and the plan callback for [plan_block].  Trace events go straight to
   the telemetry recorder. *)
type hooks = {
  diags : Verify.Diag.t list ref;
  check :
    (rule:string -> before:Rewrite.Qgm.block -> after:Rewrite.Qgm.block ->
     unit)
      option;
  on_reject : (rule:string -> unit) option;
  on_plan : Exec.Plan.t -> unit;
}

let make_hooks (config : config) cat : hooks =
  let diags = ref [] in
  let lint_check =
    if config.lint then
      Some
        (fun ~rule ~before ~after ->
           diags := !diags @ Verify.check_rewrite ~rule ~before ~after)
    else None
  in
  let trace_check =
    Option.map
      (fun r ~rule ~before ~after ->
         let dg b = Obs.Trace.digest (Fmt.str "%a" Rewrite.Qgm.pp_block b) in
         Obs.Span.event r
           (Obs.Trace.Rewrite_fired
              { rule; before = dg before; after = dg after }))
      config.telemetry
  in
  let check =
    match (lint_check, trace_check) with
    | None, None -> None
    | lc, tc ->
      Some
        (fun ~rule ~before ~after ->
           (match lc with Some f -> f ~rule ~before ~after | None -> ());
           match tc with Some f -> f ~rule ~before ~after | None -> ())
  in
  let on_reject =
    Option.map
      (fun r ~rule -> Obs.Span.event r (Obs.Trace.Rewrite_rejected { rule }))
      config.telemetry
  in
  let on_plan p = if config.lint then diags := !diags @ Verify.physical cat p in
  { diags; check; on_reject; on_plan }

(* Rewriting, shared by [run_block] and [explain]. *)
let rewrite config h block =
  stage config "rewrite" @@ fun () ->
  Rewrite.Rules.run ?check:h.check ?on_reject:h.on_reject
    (effective_rewrites config) block

(* Plan a plannable block against its private statistics [snapshot] and
   hand [k] the plan, its estimated cost, enumeration counters and the
   snapshot while the view temporaries are still cataloged; they leave
   the catalog when [k] returns.  Their statistics stay in the snapshot,
   which the plan is executed, annotated and linted against. *)
let with_plan ?exec_views ?on_view ctx config cat db h block k =
  let snap = snapshot config db in
  let plan, est_cost, enum, temps =
    stage config "optimize" @@ fun () ->
    plan_block ~on_plan:h.on_plan ?trace:(trace_sink config) ?exec_views
      ?on_view ctx config cat snap block
  in
  Fun.protect
    ~finally:(fun () -> List.iter (Storage.Catalog.remove_table cat) temps)
    (fun () -> k plan est_cost enum snap)

(* One block end-to-end.  With telemetry on, the block's span subtree
   carries everything recorded about it. *)
let run_block ~ctx ~config (cat : Storage.Catalog.t)
    (db : Stats.Table_stats.db) (block : Rewrite.Qgm.block) :
  Exec.Executor.result * report =
  let h = make_hooks config cat in
  let blk_span =
    Option.map (fun r -> Obs.Span.enter r "block") config.telemetry
  in
  let stop_blk () =
    match (config.telemetry, blk_span) with
    | Some r, Some s -> Obs.Span.stop r s
    | _ -> ()
  in
  let rewritten, trace = rewrite config h block in
  match fallback_reason rewritten with
  | None ->
    with_plan ctx config cat db h rewritten
    @@ fun plan est_cost enum snap ->
    (* the one annotation, against the snapshot while view temporaries
       are still cataloged; forced only by its readers *)
    let est = lazy (annotate config cat snap plan) in
    (* provable-bound lint: only here, where view temporaries carry exact
       (ANALYZE-derived) statistics — the EXPLAIN path fabricates temp
       statistics from estimates, which would make the envelope itself
       unsound *)
    if config.analysis then
      stage config "verify" (fun () ->
        h.diags :=
          !(h.diags)
          @ Analysis.Lint.physical ~est:(Obs.Est.card (Lazy.force est)) cat
              snap plan);
    let feedback = feedback_of config in
    let telemetry = config.telemetry <> None in
    let recorder =
      (* feedback mode needs per-operator actuals even without telemetry
         — the recorder is how observed cardinalities reach the cache *)
      if telemetry || feedback <> None then begin
        let r = Exec.Instrument.create plan in
        if telemetry then Obs.Est.attach (Lazy.force est) r;
        Some r
      end
      else None
    in
    let sketching =
      match config.estimator with
      | `Sketch reg when config.engine = `Batch ->
        Some (reg, sketch_hook_for reg snap plan)
      | _ -> None
    in
    let sketch = Option.map (fun (_, (hook, _)) -> hook) sketching in
    let result =
      stage config ?ops:recorder
        ~attrs:
          [ ( "engine",
              match config.engine with
              | `Interpreted -> "interpreted"
              | `Batch -> if config.dop > 1 then "morsel" else "batch" );
            ("dop", string_of_int config.dop) ]
        "execute"
      @@ fun () ->
      exec_plan config ~ctx ?obs:recorder ?sketch ~est cat snap plan
    in
    Option.iter
      (fun (reg, (_, pending)) -> commit_sketches reg snap pending)
      sketching;
    (* feed observed per-operator cardinalities back into the cache
       (temp subtrees are skipped by keying, but the base-table
       fingerprints must reflect the planned state) *)
    (match (feedback, recorder) with
     | Some fb, Some r ->
       let est = Lazy.force est in
       List.iter
         (fun (op : Exec.Instrument.op) ->
            if op.Exec.Instrument.executed then
              match Obs.Est.feedback_key est op.Exec.Instrument.id with
              | None -> ()
              | Some (k, tables) ->
                let act = float_of_int op.Exec.Instrument.act_rows in
                Stats.Feedback.record fb ~db:snap ~tables k act;
                Obs.Metrics.incr Obs.Metrics.feedback_recorded;
                Option.iter
                  (fun r ->
                     Obs.Span.event r
                       (Obs.Trace.Feedback_recorded { digest = k; act }))
                  config.telemetry)
         (Exec.Instrument.ops r)
     | _ -> ());
    Obs.Metrics.incr Obs.Metrics.blocks_planned;
    (match recorder with
     | Some r when telemetry -> (
       match Obs.Analyze.max_q_error r with
       | Some (q, _) when Float.is_finite q ->
         Obs.Metrics.observe_max Obs.Metrics.qerror_max q;
         Obs.Metrics.observe_hist Obs.Metrics.qerror_hist q
       | _ -> ())
     | _ -> ());
    stop_blk ();
    ( result,
      { rewritten; trace; path = Planned; plan = Some plan; est_cost;
        enum; diags = !(h.diags);
        stats_at_plan = Some snap;
        span = blk_span } )
  | Some reason ->
    (* interpreted fallback: no physical plan to lint, but the block's
       scoping can still be checked statically *)
    Option.iter
      (fun r -> Obs.Span.event r (Obs.Trace.Interpreted_fallback { reason }))
      config.telemetry;
    if config.lint then h.diags := !(h.diags) @ Verify.block rewritten;
    let result =
      stage config ~attrs:[ ("engine", "interpreter") ] "execute"
      @@ fun () -> Rewrite.Qgm_eval.run ~ctx cat rewritten
    in
    stop_blk ();
    ( result,
      { rewritten; trace; path = Interpreted; plan = None; est_cost = 0.;
        enum = Systemr.Join_order.counters_zero; diags = !(h.diags);
        stats_at_plan = None;
        span = blk_span } )

(* End-to-end latency histogram for every entry point; one monotonic
   read per query when nothing else is instrumented. *)
let timed_query f =
  let t0 = Obs.Clock.now () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.observe_hist Obs.Metrics.query_seconds
        (Obs.Clock.elapsed_s t0))
    f

let run ?(ctx = Exec.Context.create ()) ?(config = default_config)
    (cat : Storage.Catalog.t) (db : Stats.Table_stats.db)
    (block : Rewrite.Qgm.block) : Exec.Executor.result * report =
  Obs.Metrics.incr Obs.Metrics.queries_run;
  timed_query @@ fun () ->
  run_block ~ctx ~config cat db block

(* EXPLAIN re-optimizes under the same estimator as [run]: with a warm
   feedback cache or fresh sketches it shows the plan a re-execution
   would use.  Views are planned without being executed: their
   temporaries stay empty and carry estimate-derived statistics. *)
let explain ?(config = default_config) cat db block : string =
  let h = make_hooks config cat in
  let rewritten, trace = rewrite config h block in
  let body =
    if plannable rewritten then begin
      let views = ref [] in
      with_plan ~exec_views:false
        ~on_view:(fun alias p -> views := (alias, p) :: !views)
        (Exec.Context.create ()) config cat db h rewritten
      @@ fun plan est_cost _ _ ->
      let views_s =
        List.rev_map
          (fun (alias, p) ->
             Fmt.str "@[<v>view %s:@,%a@,@]" alias Exec.Plan.pp p)
          !views
        |> String.concat ""
      in
      Fmt.str "@[<v>%s%a@,estimated cost: %.1f@]" views_s Exec.Plan.pp plan
        est_cost
    end
    else begin
      if config.lint then h.diags := !(h.diags) @ Verify.block rewritten;
      Fmt.str
        "@[<v>(correlated query: tuple-iteration interpreter)@,%a@]"
        Rewrite.Qgm.pp_block rewritten
    end
  in
  let trace_s =
    match trace with
    | [] -> "(no rewrites applied)"
    | t ->
      String.concat ", "
        (List.map (fun (n, k) -> Printf.sprintf "%s x%d" n k) t)
  in
  let lint_s =
    if config.lint then
      Fmt.str "@,lint: %a" Verify.Diag.pp_list !(h.diags)
    else ""
  in
  Fmt.str "@[<v>rewrites: %s@,%s%s@]" trace_s body lint_s

(* ------------------------------------------------------------------ *)
(* Full queries: UNION [ALL] above the block layer.  Each arm runs through
   the normal block pipeline; UNION deduplicates the combined rows. *)

let rec run_query_blocks ~ctx ~config cat db (q : Rewrite.Qgm.query) :
  Exec.Executor.result * report list =
  match q with
  | Rewrite.Qgm.Q_block b ->
    let result, report = run_block ~ctx ~config cat db b in
    (result, [ report ])
  | Rewrite.Qgm.Q_union { all; left; right } ->
    let l, lr = run_query_blocks ~ctx ~config cat db left in
    let r, rr = run_query_blocks ~ctx ~config cat db right in
    (Rewrite.Qgm_eval.union ~ctx ~all l r, lr @ rr)

let run_query ?(ctx = Exec.Context.create ()) ?(config = default_config) cat
    db (q : Rewrite.Qgm.query) : Exec.Executor.result * report list =
  Obs.Metrics.incr Obs.Metrics.queries_run;
  timed_query @@ fun () -> run_query_blocks ~ctx ~config cat db q

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE: run with telemetry on — into the caller's recorder,
   under an "analyze" span, or a fresh one — and render that subtree. *)

let analyze_query ?ctx ?(config = default_config) ?show_wall cat db
    (q : Rewrite.Qgm.query) : Exec.Executor.result * report list * string =
  let r = Option.value config.telemetry ~default:(Obs.Span.create ()) in
  let s = Obs.Span.enter r "analyze" in
  let result, reports =
    run_query ?ctx ~config:{ config with telemetry = Some r } cat db q
  in
  Obs.Span.stop r s;
  (result, reports, Obs.Analyze.render ?show_wall s)

let rec explain_query ?(config = default_config) cat db
    (q : Rewrite.Qgm.query) : string =
  match q with
  | Rewrite.Qgm.Q_block b -> explain ~config cat db b
  | Rewrite.Qgm.Q_union { all; left; right } ->
    Fmt.str "@[<v>%s@,UNION%s@,%s@]"
      (explain_query ~config cat db left)
      (if all then " ALL" else "")
      (explain_query ~config cat db right)
