(* Cost-model and physical-property tests: formula sanity, monotonicity,
   spill behaviour, order satisfaction, and the estimated-vs-measured
   agreement that experiment E11 relies on. *)

open Relalg
module Cm = Cost.Cost_model
module Pp = Cost.Physical_props

let p = Cm.default_params

(* ---------- physical properties ---------- *)

let cr rel col = { Expr.rel; col }

let test_satisfies () =
  let o1 = [ (cr "R" "a", Algebra.Asc) ] in
  let o2 = [ (cr "R" "a", Algebra.Asc); (cr "R" "b", Algebra.Asc) ] in
  Alcotest.(check bool) "anything satisfies no requirement" true
    (Pp.satisfies ~have:[] ~want:[]);
  Alcotest.(check bool) "prefix satisfies" true (Pp.satisfies ~have:o2 ~want:o1);
  Alcotest.(check bool) "shorter does not satisfy longer" false
    (Pp.satisfies ~have:o1 ~want:o2);
  Alcotest.(check bool) "direction matters" false
    (Pp.satisfies ~have:[ (cr "R" "a", Algebra.Desc) ] ~want:o1);
  Alcotest.(check bool) "unordered fails any requirement" false
    (Pp.satisfies ~have:[] ~want:o1)

let prop_satisfies_transitive =
  let arb_order =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 0 3)
          (map2
             (fun c d -> (cr "R" (String.make 1 (Char.chr (97 + c))),
                          if d then Algebra.Asc else Algebra.Desc))
             (int_range 0 3) bool))
  in
  QCheck.Test.make ~name:"order satisfaction is transitive" ~count:200
    (QCheck.triple arb_order arb_order arb_order)
    (fun (a, b, c) ->
       (not (Pp.satisfies ~have:a ~want:b && Pp.satisfies ~have:b ~want:c))
       || Pp.satisfies ~have:a ~want:c)

(* ---------- formula sanity ---------- *)

let test_scan_costs () =
  Alcotest.(check bool) "seq scan scales with pages" true
    (Cm.seq_scan p ~pages:100. ~rows:1000.
     < Cm.seq_scan p ~pages:200. ~rows:1000.);
  (* selective index scan beats full scan; unselective does not *)
  let full = Cm.seq_scan p ~pages:500. ~rows:40000. in
  let sel = Cm.index_scan p ~clustered:false ~pages:500. ~rows:40000. ~matches:10. in
  let unsel = Cm.index_scan p ~clustered:false ~pages:500. ~rows:40000. ~matches:40000. in
  Alcotest.(check bool) "selective index wins" true (sel < full);
  Alcotest.(check bool) "unselective index loses" true (unsel > full);
  (* clustered matches are cheaper than scattered ones *)
  Alcotest.(check bool) "clustered cheaper" true
    (Cm.index_scan p ~clustered:true ~pages:500. ~rows:40000. ~matches:4000.
     < Cm.index_scan p ~clustered:false ~pages:500. ~rows:40000. ~matches:4000.)

let test_sort_spill () =
  let in_mem = Cm.sort p ~pages:10. ~rows:1000. in
  let spilled = Cm.sort p ~pages:(float_of_int (p.Cm.work_mem_pages * 4)) ~rows:1000. in
  Alcotest.(check bool) "spill adds I/O" true (spilled > in_mem +. 1.);
  (* executor's spill accounting agrees in kind *)
  Alcotest.(check int) "no spill when it fits" 0
    (Exec.Executor.sort_spill_pages ~work_mem:64 ~pages:64);
  Alcotest.(check bool) "spill when it does not" true
    (Exec.Executor.sort_spill_pages ~work_mem:64 ~pages:256 > 0)

let test_join_formulas () =
  (* NL join grows with both inputs *)
  Alcotest.(check bool) "nl monotone in outer" true
    (Cm.nested_loop p ~outer_rows:100. ~inner_rows:1000. ~inner_pages:10.
     < Cm.nested_loop p ~outer_rows:1000. ~inner_rows:1000. ~inner_pages:10.);
  (* big inner beyond the buffer pays rescans *)
  let small = Cm.nested_loop p ~outer_rows:100. ~inner_rows:1000. ~inner_pages:10. in
  let big =
    Cm.nested_loop p ~outer_rows:100. ~inner_rows:1000.
      ~inner_pages:(float_of_int (p.Cm.buffer_pages * 2))
  in
  Alcotest.(check bool) "buffer overflow rescans" true (big > small *. 10.);
  (* hash join spills when the build side exceeds work_mem *)
  let no_spill =
    Cm.hash_join p ~left_rows:1000. ~right_rows:1000. ~left_pages:10.
      ~right_pages:10. ~out_rows:100.
  in
  let spill =
    Cm.hash_join p ~left_rows:1000. ~right_rows:1000. ~left_pages:10.
      ~right_pages:(float_of_int (p.Cm.work_mem_pages * 2)) ~out_rows:100.
  in
  Alcotest.(check bool) "grace spill" true (spill > no_spill)

let test_index_nl_buffer_cliff () =
  let cost buffer =
    Cm.index_nl { p with Cm.buffer_pages = buffer } ~outer_rows:1000.
      ~inner_rows:50000. ~inner_pages:400. ~matches_per_probe:20.
      ~clustered:false
  in
  Alcotest.(check bool) "bigger buffer never dearer" true
    (cost 2048 <= cost 256 && cost 256 <= cost 16);
  Alcotest.(check bool) "cliff is large" true (cost 16 > cost 4096 *. 3.)

(* ---------- estimated vs measured agreement on simple plans ---------- *)

let test_seq_scan_predicted_equals_measured () =
  let cat = Storage.Catalog.create () in
  let t = Storage.Catalog.create_table cat ~name:"T" ~columns:[ ("k", Value.Tint) ] in
  for i = 0 to 49999 do
    Storage.Table.insert t (Tuple.of_list [ Value.Int i ])
  done;
  let pages = float_of_int (Storage.Table.page_count t) in
  let predicted = Cm.seq_scan p ~pages ~rows:50000. in
  let ctx = Exec.Context.create () in
  ignore
    (Exec.Executor.run ~ctx cat
       (Exec.Plan.Seq_scan { table = "T"; alias = "T"; filter = None }));
  let measured = Exec.Context.weighted_cost ctx in
  Alcotest.(check bool)
    (Printf.sprintf "within 10%%: predicted %.1f measured %.1f" predicted measured)
    true
    (Float.abs (predicted -. measured) /. measured < 0.10)

let test_of_counters () =
  let c = Cm.of_counters p ~seq:10 ~rand:5 ~spill:2 ~cpu:1000 in
  Alcotest.(check (float 1e-9)) "weighted"
    ((10. +. 2.) *. 1.0 +. (5. *. 4.0) +. (1000. *. 0.001)) c

(* ---------- plan estimates (the parallel scheduler's sizing) ---------- *)

let test_plan_stats_rows () =
  let w = Workload.Schemas.emp_dept ~emps:2000 ~depts:40 () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  let plan =
    Exec.Plan.Hash_join
      { kind = Algebra.Inner;
        pairs = [ ({ Expr.rel = "Emp"; col = "did" }, { Expr.rel = "Dept"; col = "did" }) ];
        residual = Expr.ftrue;
        left = Exec.Plan.Seq_scan { table = "Emp"; alias = "Emp"; filter = None };
        right = Exec.Plan.Seq_scan { table = "Dept"; alias = "Dept"; filter = None } }
  in
  let rows = Option.get (Obs.Est.card (Obs.Est.annotate cat db plan) plan) in
  (* FK join: roughly one row out per Emp row *)
  Alcotest.(check bool)
    (Printf.sprintf "join rows %.0f ~ 2000" rows)
    true
    (rows > 500. && rows < 8000.);
  let segs =
    Parallel.Two_phase.decompose Parallel.Two_phase.default_config cat db plan
  in
  Alcotest.(check bool) "work positive" true
    (List.for_all (fun s -> s.Parallel.Two_phase.work > 0.) segs)

let () =
  Alcotest.run "cost"
    [ ("physical-props",
       [ Alcotest.test_case "satisfies" `Quick test_satisfies;
         QCheck_alcotest.to_alcotest prop_satisfies_transitive ]);
      ("formulas",
       [ Alcotest.test_case "scans" `Quick test_scan_costs;
         Alcotest.test_case "sort spill" `Quick test_sort_spill;
         Alcotest.test_case "joins" `Quick test_join_formulas;
         Alcotest.test_case "index-nl buffer cliff" `Quick test_index_nl_buffer_cliff ]);
      ("calibration",
       [ Alcotest.test_case "seq scan predicted = measured" `Quick
           test_seq_scan_predicted_equals_measured;
         Alcotest.test_case "of_counters" `Quick test_of_counters;
         Alcotest.test_case "plan stats" `Quick test_plan_stats_rows ]) ]
