(* The traced replay: one query driven through the pipeline one public
   layer call at a time, mirroring [Core.Pipeline.run_query] step for
   step (parse, bind, rewrite, plan, schedule, execute, temp cleanup,
   UNION arms block by block), with a span around every layer call.

   Spans live in memory and are written out once the run ends; nothing
   here adds tracing inside the library. *)

let now = Speed.now

type span = {
  qid : int;  (** the query execution the span belongs to *)
  name : string;  (** "query" for the whole execution, else the layer *)
  t0 : float;
  t1 : float;
}

type recorder = { mutable spans : span list }

let recorder () = { spans = [] }

let with_span r ~qid name f =
  let t0 = now () in
  let x = f () in
  r.spans <- { qid; name; t0; t1 = now () } :: r.spans;
  x

(* What one block did, for the per-layer counters. *)
type block = {
  applications : int;  (** rewrite-rule applications *)
  interpreted : bool;  (** fell back to the tuple interpreter *)
  enum : Systemr.Join_order.counters;
  views : int;  (** derived sources materialized into temporaries *)
  exec_alloc_w : float;  (** minor words allocated while executing *)
  obs : Exec.Instrument.t option;  (** per-operator actuals *)
}

(* One block, as [Core.Pipeline] runs it under a config with no lint,
   no analysis pass, no instrumentation and the histogram estimator.
   With [estimates] the recorder also carries the optimizer's
   cardinality estimates (for q-errors), derived outside every span. *)
let run_block r ~qid ~estimates (config : Core.Pipeline.config) ctx
    (cat : Storage.Catalog.t) (db : Stats.Table_stats.db)
    (b : Rewrite.Qgm.block) : Exec.Executor.result * block =
  let span name f = with_span r ~qid name f in
  let rewritten, trace, plannable =
    span "rewrite" (fun () ->
        let rewritten, trace =
          Rewrite.Rules.run config.Core.Pipeline.rewrites b
        in
        (rewritten, trace, Core.Pipeline.plannable rewritten))
  in
  let applications = List.fold_left (fun n (_, k) -> n + k) 0 trace in
  if plannable then begin
    let plan, _, enum, temps =
      span "optimize" (fun () ->
          Core.Pipeline.plan_block ctx config cat db rewritten)
    in
    let dop = config.Core.Pipeline.dop in
    let schedule =
      if dop <= 1 then None
      else
        span "schedule" (fun () ->
            try
              Some
                (Parallel.Two_phase.node_dop
                   { Parallel.Two_phase.default_config with processors = dop }
                   cat db plan)
            with _ -> None)
    in
    let obs = Exec.Instrument.create plan in
    if estimates then
      Obs.Est.attach
        (Obs.Est.annotate
           ~asm:config.Core.Pipeline.join_config.Systemr.Join_order.asm cat db
           plan)
        obs;
    let a0 = Gc.minor_words () in
    let result =
      span "exec" (fun () ->
          if dop > 1 then
            Exec.Morsel.run ~ctx ~obs ?schedule
              ~morsel:config.Core.Pipeline.morsel_rows
              ~chunk_rows:config.Core.Pipeline.chunk_rows ~dop cat plan
          else
            Exec.Batch.run ~ctx ~obs ~chunk_rows:config.Core.Pipeline.chunk_rows
              cat plan)
    in
    let exec_alloc_w = Gc.minor_words () -. a0 in
    List.iter
      (fun t ->
         Storage.Catalog.remove_table cat t;
         Hashtbl.remove db t)
      temps;
    ( result,
      { applications; interpreted = false; enum; views = List.length temps;
        exec_alloc_w; obs = Some obs } )
  end
  else begin
    let a0 = Gc.minor_words () in
    let result =
      span "exec" (fun () -> Rewrite.Qgm_eval.run ~ctx cat rewritten)
    in
    ( result,
      { applications; interpreted = true;
        enum = Systemr.Join_order.counters_zero; views = 0;
        exec_alloc_w = Gc.minor_words () -. a0; obs = None } )
  end

(* UNION [ALL] of two arms, exactly as the pipeline combines them. *)
let union ctx ~all (l : Exec.Executor.result) (r : Exec.Executor.result) =
  if
    Relalg.Schema.arity l.Exec.Executor.schema
    <> Relalg.Schema.arity r.Exec.Executor.schema
  then invalid_arg "UNION: arity mismatch";
  let rows = Array.append l.Exec.Executor.rows r.Exec.Executor.rows in
  Exec.Context.charge_cpu ctx (Array.length rows);
  let rows =
    if all then rows
    else begin
      let seen = Hashtbl.create 64 in
      let out = Storage.Vec.create () in
      Array.iter
        (fun t ->
           let k = Array.to_list t in
           if not (Hashtbl.mem seen k) then begin
             Hashtbl.replace seen k ();
             Storage.Vec.push out t
           end)
        rows;
      Storage.Vec.to_array out
    end
  in
  { Exec.Executor.schema = l.Exec.Executor.schema; rows }

(* SQL text to rows, one layer call at a time; the whole execution is
   itself a "query" span, so its uncovered time is measurable. *)
let run r ~qid ?(estimates = false) config ctx (q : Suite.query) :
  Exec.Executor.result * block list =
  let span name f = with_span r ~qid name f in
  let cat = q.Suite.db.Suite.cat and db = q.Suite.db.Suite.stats in
  span "query" @@ fun () ->
  let stmts = span "parse" (fun () -> Sql.Parser.parse q.Suite.sql) in
  let query = span "bind" (fun () -> Sql.Binder.bind_script cat stmts) in
  let rec go = function
    | Rewrite.Qgm.Q_block b ->
      let res, blk = run_block r ~qid ~estimates config ctx cat db b in
      (res, [ blk ])
    | Rewrite.Qgm.Q_union { all; left; right } ->
      let l, lb = go left in
      let rr, rb = go right in
      (span "exec" (fun () -> union ctx ~all l rr), lb @ rb)
  in
  go query

(* Chrome trace-event JSON: one complete event per span, one track per
   layer nesting level (query spans on track 0, layers on track 1). *)
let write_chrome file spans =
  let oc = open_out file in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
       Printf.fprintf oc
         "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \
          \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"query\": %d}}"
         (if i = 0 then "" else ",\n")
         s.name
         (if s.name = "query" then 0 else 1)
         (s.t0 *. 1e6)
         ((s.t1 -. s.t0) *. 1e6)
         s.qid)
    spans;
  output_string oc "\n]}\n";
  close_out oc
