(* Cardinality-feedback tests: cache key normalization, hit/miss and
   staleness semantics, and the closed loop end to end — a second
   optimization of an executed query plans with the first run's actual
   cardinalities, and loses them again when the data changes. *)

open Relalg
module P = Core.Pipeline
module FB = Stats.Feedback

let emp_dept () =
  let w = Workload.Schemas.emp_dept ~emps:200 ~depts:10 () in
  (w.Workload.Schemas.cat, w.Workload.Schemas.db)

(* ------------------------------------------------------------------ *)
(* Keys: position-independent for the SPJ core *)

let test_key_normalization () =
  let k1 =
    FB.key ~shape:"spj"
      ~rels:[ ("e", "Emp"); ("d", "Dept") ]
      ~preds:[ "p"; "q" ]
  in
  let k2 =
    FB.key ~shape:"spj"
      ~rels:[ ("d", "Dept"); ("e", "Emp") ]
      ~preds:[ "q"; "p"; "p" ]
  in
  Alcotest.(check string) "rel and pred order (and dups) are immaterial" k1 k2;
  let k3 =
    FB.key ~shape:"spj" ~rels:[ ("e", "Emp"); ("d", "Dept") ] ~preds:[ "p" ]
  in
  Alcotest.(check bool) "predicates discriminate" true (k1 <> k3);
  let k4 =
    FB.key ~shape:"group" ~rels:[ ("e", "Emp"); ("d", "Dept") ]
      ~preds:[ "p"; "q" ]
  in
  Alcotest.(check bool) "shape discriminates" true (k1 <> k4);
  Alcotest.(check int) "8-hex digest" 8 (String.length k1)

let test_canon_pred_eq_symmetric () =
  let a = Expr.col ~rel:"e" ~col:"did" in
  let b = Expr.col ~rel:"d" ~col:"did" in
  Alcotest.(check string) "a = b and b = a canonicalize identically"
    (FB.canon_pred (Expr.Cmp (Expr.Eq, a, b)))
    (FB.canon_pred (Expr.Cmp (Expr.Eq, b, a)));
  Alcotest.(check bool) "non-commutative comparisons stay directional" true
    (FB.canon_pred (Expr.Cmp (Expr.Lt, a, b))
     <> FB.canon_pred (Expr.Cmp (Expr.Lt, b, a)))

(* ------------------------------------------------------------------ *)
(* Cache semantics: miss, record, hit, staleness, invalidation *)

(* A lookup's cached actual, if it hit. *)
let found fb ~db k =
  match FB.lookup fb ~db k with FB.Hit a -> Some a | FB.Stale | FB.Miss -> None

let test_cache_semantics () =
  let _, db = emp_dept () in
  let fb = FB.create () in
  let k = FB.key ~shape:"spj" ~rels:[ ("e", "Emp") ] ~preds:[ "p" ] in
  Alcotest.(check bool) "cold cache misses" true (FB.lookup fb ~db k = FB.Miss);
  Alcotest.(check int) "miss counted" 1 (FB.misses fb);
  FB.record fb ~db ~tables:[ "Emp" ] k 123.;
  Alcotest.(check int) "record counted" 1 (FB.records fb);
  Alcotest.(check int) "one entry" 1 (FB.size fb);
  Alcotest.(check (option (float 0.))) "hit returns the actual" (Some 123.)
    (found fb ~db k);
  Alcotest.(check int) "hit counted" 1 (FB.hits fb);
  (* refreshing Emp's statistics to a different row count invalidates the
     entry, and the lookup says so *)
  let ts = Option.get (Stats.Table_stats.find db "Emp") in
  Hashtbl.replace db "Emp"
    { ts with Stats.Table_stats.rows = ts.Stats.Table_stats.rows +. 50. };
  Alcotest.(check bool) "stale entry reported" true
    (FB.lookup fb ~db k = FB.Stale);
  Alcotest.(check int) "stale entry dropped" 0 (FB.size fb);
  Alcotest.(check int) "staleness counted as miss" 2 (FB.misses fb)

let test_invalidate_tables () =
  let _, db = emp_dept () in
  let fb = FB.create () in
  let ke = FB.key ~shape:"spj" ~rels:[ ("e", "Emp") ] ~preds:[] in
  let kd = FB.key ~shape:"spj" ~rels:[ ("d", "Dept") ] ~preds:[] in
  let kj =
    FB.key ~shape:"spj" ~rels:[ ("e", "Emp"); ("d", "Dept") ] ~preds:[ "j" ]
  in
  FB.record fb ~db ~tables:[ "Emp" ] ke 200.;
  FB.record fb ~db ~tables:[ "Dept" ] kd 10.;
  FB.record fb ~db ~tables:[ "Emp"; "Dept" ] kj 200.;
  FB.invalidate_tables fb [ "Emp" ];
  Alcotest.(check (option (float 0.))) "Emp entry gone" None
    (found fb ~db ke);
  Alcotest.(check (option (float 0.))) "join entry gone" None
    (found fb ~db kj);
  Alcotest.(check (option (float 0.))) "Dept entry survives" (Some 10.)
    (found fb ~db kd);
  FB.clear fb;
  Alcotest.(check int) "clear empties" 0 (FB.size fb)

(* ------------------------------------------------------------------ *)
(* End to end: execute, re-optimize, and the second plan's estimates are
   the first run's actuals *)

let sql =
  "SELECT Emp.name FROM Emp, Dept \
   WHERE Emp.did = Dept.did AND Emp.sal > 60000 AND Emp.age < 40"

(* Every run records its own telemetry tree; reports carry their block's
   subtree. *)
let run config cat db =
  let q = Sql.Binder.query_of_string cat sql in
  P.run_query ~config:{ config with P.telemetry = Some (Obs.Span.create ()) }
    cat db q

let trees reports = List.filter_map (fun r -> r.P.span) reports

let ops_of reports =
  List.concat_map Obs.Span.recorders (trees reports)
  |> List.concat_map Exec.Instrument.ops

let max_q reports =
  List.fold_left
    (fun acc (o : Exec.Instrument.op) ->
       match o.Exec.Instrument.est_rows with
       | Some e when o.Exec.Instrument.executed ->
         Float.max acc
           (Obs.Analyze.q_error ~est:e
              ~act:(float_of_int o.Exec.Instrument.act_rows))
       | _ -> acc)
    1. reports

let count_events f reports =
  List.concat_map Obs.Span.events (trees reports)
  |> List.filter f |> List.length

let is_override = function
  | Obs.Trace.Feedback_override _ -> true
  | _ -> false

let is_recorded = function
  | Obs.Trace.Feedback_recorded _ -> true
  | _ -> false

let is_stale = function Obs.Trace.Feedback_stale _ -> true | _ -> false

let test_reoptimize_uses_actuals () =
  let cat, db = emp_dept () in
  let fb = FB.create () in
  let config = { P.default_config with estimator = `Feedback fb } in
  let r1, reps1 = run config cat db in
  Alcotest.(check bool) "execution recorded actuals" true (FB.records fb > 0);
  Alcotest.(check bool) "first run emits recorded events" true
    (count_events is_recorded reps1 > 0);
  Alcotest.(check int) "no overrides on a cold cache" 0
    (count_events is_override reps1);
  let r2, reps2 = run config cat db in
  Alcotest.(check bool) "same row count" true
    (Array.length r1.Exec.Executor.rows = Array.length r2.Exec.Executor.rows);
  Alcotest.(check bool) "second optimization hit the cache" true
    (FB.hits fb > 0);
  Alcotest.(check bool) "second run emits override events" true
    (count_events is_override reps2 > 0);
  (* every operator of the re-optimized plan is keyed (SPJ query, no temp
     tables), so every estimate is the first run's actual: q-error 1.0 *)
  Alcotest.(check (float 1e-9)) "second-run estimates equal actuals" 1.
    (max_q (ops_of reps2));
  Alcotest.(check bool) "first run had real estimation error" true
    (max_q (ops_of reps1) > 1.)

let test_append_invalidates_feedback () =
  let cat, db = emp_dept () in
  let fb = FB.create () in
  let config = { P.default_config with estimator = `Feedback fb } in
  let _ = run config cat db in
  (* append rows and refresh statistics: every recorded entry touching
     Emp is now stale *)
  let t = Storage.Catalog.table cat "Emp" in
  for i = 0 to 49 do
    Storage.Table.insert t
      (Tuple.of_list
         [ Value.Int (1000 + i); Value.Str "newbie"; Value.Int (i mod 10);
           Value.Str "dept"; Value.Int 70000; Value.Int 30; Value.Int 1 ])
  done;
  Hashtbl.replace db "Emp" (Stats.Table_stats.analyze t);
  let _, reps3 = run config cat db in
  Alcotest.(check bool) "stale drops appear in the re-run's tree" true
    (count_events is_stale reps3 > 0);
  (* Emp-touching entries are stale, so no override event fires; the
     Dept-only entry legitimately survives (Dept is unchanged) but only
     confirms an already-exact base estimate *)
  Alcotest.(check int) "no stale override fires after the append" 0
    (count_events is_override reps3);
  (* the run re-recorded under the new fingerprints: the loop closes
     again on the post-append data *)
  let _, reps4 = run config cat db in
  Alcotest.(check bool) "overrides fire again" true
    (count_events is_override reps4 > 0);
  Alcotest.(check (float 1e-9)) "estimates equal post-append actuals" 1.
    (max_q (ops_of reps4))

(* The default `Histogram estimator must not create or consult any
   feedback state — reports carry no feedback events. *)
let test_histogram_mode_untouched () =
  let cat, db = emp_dept () in
  let _, reps = run P.default_config cat db in
  Alcotest.(check int) "no feedback events under `Histogram" 0
    (count_events (fun e -> is_override e || is_recorded e) reps)

(* Planning never writes the caller's statistics registry: each block
   plans against a private snapshot, so after runs, EXPLAIN and EXPLAIN
   ANALYZE of a query with a derived view (a temporary table) and a UNION
   (two blocks), under every estimator, the registry holds the very same
   bindings and no others. *)
let isolation_sql =
  "SELECT V.did FROM (SELECT E.did AS did, COUNT(*) AS n FROM Emp E \
   GROUP BY E.did) AS V, Dept D WHERE V.did = D.did AND D.budget > 100000 \
   UNION SELECT Emp.did FROM Emp, Dept \
   WHERE Emp.did = Dept.did AND Emp.sal > 60000"

let test_caller_stats_untouched () =
  let reg = Stats.Sketch.registry_create () in
  List.iter
    (fun (name, estimator) ->
       let cat, db = emp_dept () in
       let before = Hashtbl.fold (fun k v acc -> (k, v) :: acc) db [] in
       let check what =
         let label s = Printf.sprintf "%s: %s %s" name what s in
         Alcotest.(check int) (label "adds no binding") (List.length before)
           (Hashtbl.length db);
         List.iter
           (fun (table, ts) ->
              Alcotest.(check bool) (label ("keeps " ^ table)) true
                (match Hashtbl.find_opt db table with
                 | Some ts' -> ts' == ts
                 | None -> false))
           before
       in
       let config = { P.default_config with estimator } in
       let q = Sql.Binder.query_of_string cat isolation_sql in
       (* the second run plans with what the first one recorded *)
       for _ = 1 to 2 do
         ignore (P.run_query ~config cat db q);
         check "run_query"
       done;
       ignore (P.explain_query ~config cat db q);
       check "explain_query";
       ignore (P.analyze_query ~config cat db q);
       check "analyze_query")
    [ ("histogram", `Histogram);
      ("feedback", `Feedback (FB.create ()));
      ("sketch", `Sketch reg) ];
  Alcotest.(check bool) "the sketch runs built sketches" true
    (Stats.Sketch.registry_find reg ~table:"Emp" ~column:"did" <> None)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "feedback"
    [ ( "keys",
        [ Alcotest.test_case "normalization" `Quick test_key_normalization;
          Alcotest.test_case "eq symmetry" `Quick
            test_canon_pred_eq_symmetric ] );
      ( "cache",
        [ Alcotest.test_case "hit/miss/stale" `Quick test_cache_semantics;
          Alcotest.test_case "invalidate tables" `Quick
            test_invalidate_tables ] );
      ( "loop",
        [ Alcotest.test_case "re-optimize uses actuals" `Quick
            test_reoptimize_uses_actuals;
          Alcotest.test_case "append invalidates" `Quick
            test_append_invalidates_feedback;
          Alcotest.test_case "histogram mode untouched" `Quick
            test_histogram_mode_untouched;
          Alcotest.test_case "caller statistics untouched" `Quick
            test_caller_stats_untouched ] ) ]
