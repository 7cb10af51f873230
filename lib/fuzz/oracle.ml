(* Differential oracle stack: run one case through a grid of pipeline
   configurations and cross-check everything the system promises to keep
   invariant across them. *)

open Relalg
module P = Core.Pipeline

type cfg = { cname : string; config : P.config; counter_class : int }

let lint c = { c with P.lint = true }

let full_grid =
  let d = P.default_config in
  [ (* the ground truth: no rewriting, tuple-iteration interpretation *)
    { cname = "interp-norw";
      config = lint { P.naive_config with engine = `Interpreted };
      counter_class = 0 };
    { cname = "batch-norw";
      config = lint { P.naive_config with engine = `Batch };
      counter_class = 0 };
    { cname = "batch"; config = lint d; counter_class = 1 };
    { cname = "interp";
      config = lint { d with engine = `Interpreted };
      counter_class = 1 };
    (* morsel-parallel batch execution: rows AND counters must be
       bit-identical to the sequential batch run, so it joins counter
       class 1.  Tiny morsels force multi-morsel paths on fuzz-sized
       tables. *)
    { cname = "batch-dop4";
      config = lint { d with dop = 4; morsel_rows = 16 };
      counter_class = 1 };
    (* tiny chunks force selection-vector block boundaries mid-operator;
       the columnar layout must be invisible to rows and counters *)
    { cname = "batch-columnar";
      config = lint { d with chunk_rows = 7 };
      counter_class = 1 };
    { cname = "batch-bushy";
      config =
        lint { d with join_config = { d.join_config with bushy = true } };
      counter_class = -1 };
    { cname = "batch-exh";
      config =
        lint { d with join_config = Systemr.Join_order.exhaustive d.join_config };
      counter_class = -1 };
    (* analyzer-backed rewrites + provable-bound lints; the extra scan
       filters shift the cost counters, so no counter class *)
    { cname = "batch-analysis";
      config = lint { d with analysis = true };
      counter_class = -1 };
    (* estimator variants.  [run_one] resets the carried state per case,
       so the first (only) grid run starts from an empty feedback cache /
       sketch registry and must behave exactly like the stock histogram
       path — counter class 1.  The loop-closing (second-run) behavior is
       exercised by the dedicated feedback/sketch oracles below. *)
    { cname = "batch-feedback";
      config = lint { d with estimator = `Feedback (Stats.Feedback.create ()) };
      counter_class = 1 };
    { cname = "batch-sketch";
      config =
        lint { d with estimator = `Sketch (Stats.Sketch.registry_create ()) };
      counter_class = 1 } ]

let fast_grid =
  List.filter
    (fun c ->
       List.mem c.cname
         [ "interp-norw"; "batch"; "interp"; "batch-dop4"; "batch-columnar";
           "batch-analysis" ])
    full_grid

type failure = { oracle : string; cfg : string; detail : string }

let pp_failure ppf f =
  Fmt.pf ppf "[%s%s] %s" f.oracle
    (if f.cfg = "" then "" else "/" ^ f.cfg)
    f.detail

let binds spec ast =
  let cat, _ = Dbspec.build spec in
  match Sql.Binder.bind_query cat ast with
  | _ -> true
  | exception _ -> false

(* ------------------------------------------------------------------ *)
(* Oracle 1: printer → lexer → parser → binder round-trip. *)

let roundtrip spec ast =
  let cat, _ = Dbspec.build spec in
  match Sql.Binder.bind_query cat ast with
  | exception e ->
    Some
      { oracle = "bind"; cfg = "";
        detail = "original AST does not bind: " ^ Printexc.to_string e }
  | b0 -> (
    let txt = Sql.Printer.query_to_string ast in
    match Sql.Parser.parse txt with
    | [ Sql.Ast.Select_stmt ast' ] -> (
      match Sql.Binder.bind_query cat ast' with
      | b1 ->
        if b0 = b1 then None
        else
          Some
            { oracle = "sql-roundtrip"; cfg = "";
              detail = "re-parsed query binds differently: " ^ txt }
      | exception e ->
        Some
          { oracle = "sql-roundtrip"; cfg = "";
            detail =
              Printf.sprintf "re-parsed query does not bind (%s): %s"
                (Printexc.to_string e) txt })
    | _ ->
      Some
        { oracle = "sql-roundtrip"; cfg = "";
          detail = "did not parse back to a single SELECT: " ^ txt }
    | exception e ->
      Some
        { oracle = "sql-roundtrip"; cfg = "";
          detail =
            Printf.sprintf "printed SQL does not parse (%s): %s"
              (Printexc.to_string e) txt })

(* ------------------------------------------------------------------ *)
(* Grid execution *)

type run = {
  res : Exec.Executor.result;
  counters : Exec.Context.snapshot;
  diags : Verify.Diag.t list;
}

let run_one spec ast c =
  let cat, db = Dbspec.build spec in
  let q = Sql.Binder.bind_query cat ast in
  (* grid configs are module-level values shared across cases; reset the
     estimator state they carry so every case starts from a cold cache *)
  (match c.config.P.estimator with
   | `Histogram -> ()
   | `Feedback fb -> Stats.Feedback.clear fb
   | `Sketch reg -> Stats.Sketch.registry_clear reg);
  let ctx = Exec.Context.create () in
  let res, reports = P.run_query ~ctx ~config:c.config cat db q in
  { res;
    counters = Exec.Context.snapshot ctx;
    diags = List.concat_map (fun r -> r.P.diags) reports }

(* ------------------------------------------------------------------ *)
(* Oracle: ORDER BY output really is ordered.

   Applicable to single-block, non-DISTINCT queries whose every sort key
   is also a projected item (so the key survives into the output).  The
   engines sort with [Value.compare]; we re-check with the same total
   order. *)

let sort_key_indexes (ast : Sql.Ast.query) =
  match ast with
  | Sql.Ast.Union _ -> None
  | Sql.Ast.Single s ->
    if s.Sql.Ast.distinct || s.Sql.Ast.order_by = [] then None
    else
      let items =
        List.filter_map
          (function Sql.Ast.Item (e, _) -> Some e | Sql.Ast.Star -> None)
          s.Sql.Ast.items
      in
      if List.length items <> List.length s.Sql.Ast.items then None
      else
        let find e =
          let rec go i = function
            | [] -> None
            | it :: _ when it = e -> Some i
            | _ :: rest -> go (i + 1) rest
          in
          go 0 items
        in
        let rec map = function
          | [] -> Some []
          | (e, dir) :: rest -> (
            match (find e, map rest) with
            | Some i, Some tl -> Some ((i, dir = Algebra.Desc) :: tl)
            | _ -> None)
        in
        map s.Sql.Ast.order_by

let is_sorted keys (res : Exec.Executor.result) =
  let cmp a b =
    let rec go = function
      | [] -> 0
      | (i, desc) :: rest -> (
        match Value.compare (Tuple.get a i) (Tuple.get b i) with
        | 0 -> go rest
        | c -> if desc then -c else c)
    in
    go keys
  in
  let ok = ref true in
  Array.iteri
    (fun i r -> if i > 0 && cmp res.Exec.Executor.rows.(i - 1) r > 0 then ok := false)
    res.Exec.Executor.rows;
  !ok

(* ------------------------------------------------------------------ *)

let first_some fs = List.find_map (fun f -> f ()) fs

(* One run with telemetry on: the result, the reports, and every operator
   its span tree recorded (estimates attached). *)
let run_traced config cat db q =
  let r = Obs.Span.create () in
  let res, reports =
    P.run_query ~config:{ config with P.telemetry = Some r } cat db q
  in
  ( res,
    reports,
    List.concat_map Exec.Instrument.ops
      (Obs.Span.recorders (Obs.Span.finish r)) )

let check_case ?(grid = full_grid) spec ast =
  match roundtrip spec ast with
  | Some f -> Some f
  | None ->
    let runs =
      List.map
        (fun c ->
           ( c,
             match run_one spec ast c with
             | r -> Ok r
             | exception e -> Error (Printexc.to_string e) ))
        grid
    in
    let exception_check () =
      List.find_map
        (fun (c, r) ->
           match r with
           | Error d -> Some { oracle = "exception"; cfg = c.cname; detail = d }
           | Ok _ -> None)
        runs
    in
    let multiset_check () =
      match runs with
      | (_, Ok ref_) :: rest ->
        List.find_map
          (fun (c, r) ->
             match r with
             | Ok r
               when not (Exec.Executor.same_multiset ref_.res r.res) ->
               Some
                 { oracle = "multiset"; cfg = c.cname;
                   detail =
                     Printf.sprintf
                       "%d rows vs %d in the reference (or equal counts, \
                        different rows)"
                       (Array.length r.res.Exec.Executor.rows)
                       (Array.length ref_.res.Exec.Executor.rows) }
             | _ -> None)
          rest
      | _ -> None
    in
    let counters_check () =
      let classes =
        List.sort_uniq compare
          (List.filter_map
             (fun (c, _) ->
                if c.counter_class >= 0 then Some c.counter_class else None)
             runs)
      in
      List.find_map
        (fun cl ->
           let members =
             List.filter_map
               (fun (c, r) ->
                  match r with
                  | Ok r when c.counter_class = cl -> Some (c, r)
                  | _ -> None)
               runs
           in
           match members with
           | (c0, r0) :: rest ->
             List.find_map
               (fun (c, r) ->
                  if r.counters = r0.counters then None
                  else
                    let s = Fmt.str "%a" Exec.Context.pp_snapshot in
                    Some
                      { oracle = "counters"; cfg = c.cname;
                        detail =
                          Printf.sprintf "%s, but %s has %s" (s r.counters)
                            c0.cname (s r0.counters) })
               rest
           | [] -> None)
        classes
    in
    let lint_check () =
      (* estimate-vs-envelope warnings are advisory (the estimator keeps
         deliberate slack); only hard diagnostics fail the oracle —
         est-zero-nonempty stays an error and is not filtered *)
      let soft =
        [ "est-above-envelope"; "est-below-envelope"; "unknown-column-type" ]
      in
      List.find_map
        (fun (c, r) ->
           match r with
           | Ok r -> (
             let hard =
               List.filter
                 (fun (d : Verify.Diag.t) ->
                    not (List.mem d.Verify.Diag.code soft))
                 r.diags
             in
             match hard with
             | [] -> None
             | d :: _ ->
               Some
                 { oracle = "lint"; cfg = c.cname;
                   detail =
                     Printf.sprintf "%d diagnostic(s), first: %s"
                       (List.length hard)
                       (Verify.Diag.to_string d) })
           | Error _ -> None)
        runs
    in
    let sorted_check () =
      match sort_key_indexes ast with
      | None -> None
      | Some keys ->
        List.find_map
          (fun (c, r) ->
             match r with
             | Ok r when not (is_sorted keys r.res) ->
               Some
                 { oracle = "sortedness"; cfg = c.cname;
                   detail = "ORDER BY output is not ordered" }
             | _ -> None)
          runs
    in
    (* Estimate-sanity oracle (soft): one instrumented run.  The worst
       per-operator q-error lands in the metrics registry (the pipeline
       records it), but only an *infinite* q-error — an operator that
       produced rows where the optimizer estimated exactly zero — is a
       failure.  Finite misestimates are data, not bugs; never-executed
       operators are skipped. *)
    let qerror_check () =
      let cat, db = Dbspec.build spec in
      let q = Sql.Binder.bind_query cat ast in
      match run_traced P.default_config cat db q with
      | exception _ -> None (* crashes belong to the exception oracle *)
      | _, _, ops ->
        ops
        |> List.find_map (fun (o : Exec.Instrument.op) ->
            if
              o.Exec.Instrument.executed
              && o.Exec.Instrument.act_rows > 0
              && (match o.Exec.Instrument.est_rows with
                  | Some e -> e <= 0.
                  | None -> false)
            then
              Some
                { oracle = "qerror"; cfg = "batch-instr";
                  detail =
                    Printf.sprintf
                      "op %d (%s): estimated 0 rows, produced %d"
                      o.Exec.Instrument.id
                      (Exec.Plan.describe o.Exec.Instrument.node)
                      o.Exec.Instrument.act_rows }
            else None)
    in
    (* Loop-closing oracles: run the same query twice with a shared
       estimator state.  The second run optimizes with what the first
       execution recorded (feedback actuals / Fast-AGMS sketches);
       whatever plan that produces must still return the reference
       multiset, and — for feedback, when the fed-back plan equals the
       histogram plan, so op-level estimates are comparable — the worst
       finite q-error must not exceed the histogram-only run's.  (When
       the overrides change the join order, per-operator q-errors
       describe different operators and are not comparable.) *)
    let max_qerror ops =
      List.fold_left
           (fun acc (o : Exec.Instrument.op) ->
              match o.Exec.Instrument.est_rows with
              | Some e
                when o.Exec.Instrument.executed
                     && o.Exec.Instrument.act_rows > 0 && e > 0. ->
                let a = float_of_int o.Exec.Instrument.act_rows in
                Float.max acc (Float.max (e /. a) (a /. e))
              | _ -> acc)
           1. ops
    in
    let plans_of reports =
      String.concat "\n---\n"
        (List.map
           (fun r ->
              match r.P.plan with
              | Some p -> Exec.Plan.to_string p
              | None -> "<interpreted>")
           reports)
    in
    let rerun_check name state () =
      let cat, db = Dbspec.build spec in
      let q = Sql.Binder.bind_query cat ast in
      let config = { P.default_config with estimator = state } in
      match
        let r1 = run_traced config cat db q in
        let r2 = run_traced config cat db q in
        (r1, r2)
      with
      | exception e ->
        Some
          { oracle = name; cfg = name ^ "-rerun";
            detail = "repeated run raised: " ^ Printexc.to_string e }
      | (res1, reps1, ops1), (res2, reps2, ops2) ->
        if not (Exec.Executor.same_multiset res1 res2) then
          Some
            { oracle = name; cfg = name ^ "-rerun";
              detail =
                Printf.sprintf
                  "re-optimized run returned %d rows vs %d on the first run"
                  (Array.length res2.Exec.Executor.rows)
                  (Array.length res1.Exec.Executor.rows) }
        else if
          name = "feedback"
          && plans_of reps1 = plans_of reps2
          && max_qerror ops2 > max_qerror ops1 *. (1. +. 1e-9)
        then
          Some
            { oracle = name; cfg = name ^ "-rerun";
              detail =
                Printf.sprintf
                  "fed-back re-optimization worsened the worst q-error: \
                   %.4f vs %.4f on the cold run of the same plan"
                  (max_qerror ops2) (max_qerror ops1) }
        else None
    in
    let feedback_check =
      rerun_check "feedback" (`Feedback (Stats.Feedback.create ()))
    in
    let sketch_check =
      rerun_check "sketch" (`Sketch (Stats.Sketch.registry_create ()))
    in
    (* Analyzer oracle (hard): the abstract interpretation must be sound
       on every query — the reference engine's actual row count lands
       inside the provable cardinality envelope (so provably-empty
       queries really produce zero rows), no NULL appears in a column
       the analysis proved non-null, and every non-NULL numeric output
       value lies inside its derived interval. *)
    let analysis_check () =
      match runs with
      | (_, Ok ref_) :: _ -> (
        let cat, db = Dbspec.build spec in
        match
          let q = Sql.Binder.bind_query cat ast in
          Analysis.Absint.of_query ~db q
        with
        | exception e ->
          Some
            { oracle = "analysis"; cfg = "";
              detail = "analyzer raised: " ^ Printexc.to_string e }
        | st ->
          let rows = ref_.res.Exec.Executor.rows in
          let act = float_of_int (Array.length rows) in
          if not (Analysis.Domain.env_contains st.Analysis.Absint.env act)
          then
            Some
              { oracle = "analysis"; cfg = "";
                detail =
                  Fmt.str "actual row count %g outside provable envelope %a"
                    act Analysis.Domain.pp_envelope st.Analysis.Absint.env }
          else if
            List.length st.Analysis.Absint.cols
            <> Schema.arity ref_.res.Exec.Executor.schema
          then None
          else begin
            let violation = ref None in
            List.iteri
              (fun j (_, (a : Analysis.Domain.aval)) ->
                 Array.iter
                   (fun t ->
                      if !violation = None then begin
                        let v = Tuple.get t j in
                        if Value.is_null v then begin
                          if a.Analysis.Domain.null = Analysis.Domain.Non_null
                          then
                            violation :=
                              Some
                                (Fmt.str
                                   "output column %d: NULL where the \
                                    analysis proved non-null"
                                   j)
                        end
                        else
                          match Value.to_float v with
                          | Some f
                            when not
                                   (Analysis.Domain.contains
                                      a.Analysis.Domain.itv f) ->
                            violation :=
                              Some
                                (Fmt.str
                                   "output column %d: value %a outside \
                                    derived interval %a"
                                   j Value.pp v Analysis.Domain.pp_interval
                                   a.Analysis.Domain.itv)
                          | _ -> ()
                      end)
                   rows)
              st.Analysis.Absint.cols;
            Option.map
              (fun d -> { oracle = "analysis"; cfg = ""; detail = d })
              !violation
          end)
      | _ -> None
    in
    first_some
      [ exception_check; multiset_check; counters_check; lint_check;
        sorted_check; qerror_check; feedback_check; sketch_check;
        analysis_check ]

let check ?grid spec ast =
  let t0 = Obs.Clock.now () in
  let failure = check_case ?grid spec ast in
  Obs.Metrics.observe_hist Obs.Metrics.fuzz_case_seconds
    (Obs.Clock.elapsed_s t0);
  Obs.Metrics.incr
    (match failure with
     | None -> Obs.Metrics.fuzz_oracle_pass
     | Some _ -> Obs.Metrics.fuzz_oracle_fail);
  failure
