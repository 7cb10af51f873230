(* E13-E16: architecture experiments — Cascades vs System-R, parallel
   two-phase scheduling, expensive predicates, materialized views. *)

open Relalg
module Ep = Extensions.Expensive_pred

(* ------------------------------------------------------------------ *)
(* E13: Cascades vs System-R DP on identical queries *)

let e13 () =
  Util.header "E13"
    "enumeration architectures: System-R DP vs Volcano/Cascades (Section 6)";
  let rows_out = ref [] in
  List.iter
    (fun (shape_name, shape) ->
       List.iter
         (fun n ->
            let p = Workload.Schemas.join_shape ~rows:200 ~shape ~n () in
            let q = Util.spj_of_pieces p in
            let dp_lin =
              Systemr.Join_order.optimize p.Workload.Schemas.jcat
                p.Workload.Schemas.jdb q
            in
            let dp_bushy =
              Systemr.Join_order.optimize
                ~config:{ Systemr.Join_order.default_config with bushy = true }
                p.Workload.Schemas.jcat p.Workload.Schemas.jdb q
            in
            let casc =
              Cascades.Search.optimize p.Workload.Schemas.jcat
                p.Workload.Schemas.jdb q
            in
            rows_out :=
              [ shape_name; Util.istr n;
                Util.f1 dp_lin.Systemr.Join_order.best.Systemr.Candidate.cost;
                Util.f1 dp_bushy.Systemr.Join_order.best.Systemr.Candidate.cost;
                Util.f1 casc.Cascades.Search.best.Systemr.Candidate.cost;
                Util.istr dp_bushy.Systemr.Join_order.counters.Systemr.Join_order.costed;
                Util.istr casc.Cascades.Search.plans_costed;
                Util.istr casc.Cascades.Search.groups;
                Util.istr casc.Cascades.Search.exprs;
                Util.istr casc.Cascades.Search.rule_firings ]
              :: !rows_out)
         [ 4; 6 ])
    [ ("chain", Workload.Schemas.Chain_q); ("star", Workload.Schemas.Star_q);
      ("clique", Workload.Schemas.Clique_q) ];
  Util.table
    [ "shape"; "n"; "DP-linear"; "DP-bushy"; "Cascades"; "DP plans";
      "Casc plans"; "groups"; "exprs"; "firings" ]
    (List.rev !rows_out);
  print_endline
    "  (same cost model and search space: DP-bushy and Cascades agree on\n\
    \   best cost; Cascades reaches it goal-driven through memo groups)"

(* ------------------------------------------------------------------ *)
(* E14: two-phase parallel optimization *)

let e14 () =
  Util.header "E14"
    "parallel two-phase: response time vs processors, partitioning (7.1)";
  let w = Workload.Schemas.star ~fact_rows:200000 ~dim_rows:100 ~dims:3 () in
  let scan t = Exec.Plan.Seq_scan { table = t; alias = t; filter = None } in
  let plan =
    List.fold_left
      (fun acc dim ->
         Exec.Plan.Hash_join
           { kind = Algebra.Inner;
             pairs =
               [ ( { Expr.rel = "Sales";
                     col = String.lowercase_ascii dim ^ "_id" },
                   { Expr.rel = dim; col = "id" } ) ];
             residual = Expr.ftrue; left = acc; right = scan dim })
      (scan "Sales") w.Workload.Schemas.dims
  in
  let run procs aware =
    Parallel.Two_phase.run
      ~config:
        { Parallel.Two_phase.processors = procs; partition_aware = aware }
      w.Workload.Schemas.cat w.Workload.Schemas.db plan
  in
  let r1 = (run 1 true).Parallel.Two_phase.response_time in
  let rows_out = ref [] in
  List.iter
    (fun procs ->
       let aware = run procs true and naive = run procs false in
       rows_out :=
         [ Util.istr procs;
           Util.f1 aware.Parallel.Two_phase.total_work;
           Util.f2 aware.Parallel.Two_phase.response_time;
           Util.f2 naive.Parallel.Two_phase.response_time;
           Util.f2 (r1 /. aware.Parallel.Two_phase.response_time) ]
         :: !rows_out)
    [ 1; 2; 4; 8; 16; 64 ];
  Util.table
    [ "processors"; "total work"; "response (aware)"; "response (oblivious)";
      "speedup (aware)" ]
    (List.rev !rows_out);
  print_endline
    "  (response time shrinks with processors while total work is constant\n\
    \   — footnote 5)";
  (* partitioning reuse: a chain of hash joins all keyed on the same
     attribute; Hasan's partition-as-physical-property phase avoids
     repartitioning between them *)
  let p =
    Workload.Schemas.join_shape ~rows:100000 ~shape:Workload.Schemas.Star_q
      ~n:4 ()
  in
  let scan2 t = Exec.Plan.Seq_scan { table = t; alias = t; filter = None } in
  let pair l r = ({ Expr.rel = l; col = "a" }, { Expr.rel = r; col = "a" }) in
  let chain_plan =
    List.fold_left
      (fun acc r ->
         Exec.Plan.Hash_join
           { kind = Algebra.Inner; pairs = [ pair "R1" r ];
             residual = Expr.ftrue; left = acc; right = scan2 r })
      (scan2 "R1") [ "R2"; "R3"; "R4" ]
  in
  let rows2 = ref [] in
  List.iter
    (fun procs ->
       let run aware =
         Parallel.Two_phase.run
           ~config:
             { Parallel.Two_phase.processors = procs; partition_aware = aware }
           p.Workload.Schemas.jcat p.Workload.Schemas.jdb chain_plan
       in
       let aware = run true and naive = run false in
       rows2 :=
         [ Util.istr procs;
           Util.f1 aware.Parallel.Two_phase.comm_cost;
           Util.f1 naive.Parallel.Two_phase.comm_cost;
           Util.f2 aware.Parallel.Two_phase.response_time;
           Util.f2 naive.Parallel.Two_phase.response_time;
           Util.f2
             (naive.Parallel.Two_phase.response_time
              /. aware.Parallel.Two_phase.response_time) ]
         :: !rows2)
    [ 2; 8; 32 ];
  print_endline "";
  print_endline
    "  same-key join chain: partitioning as a physical property (Hasan [28])";
  Util.table
    [ "processors"; "comm (aware)"; "comm (oblivious)"; "response (aware)";
      "response (oblivious)"; "benefit" ]
    (List.rev !rows2)

(* ------------------------------------------------------------------ *)
(* E15: expensive user-defined predicates *)

let e15 () =
  Util.header "E15" "expensive predicates: pushdown vs rank vs property-DP (7.2)";
  let n = 10000. in
  let cases =
    [ ("selective & cheap UDF",
       [ { Ep.p_name = "p"; sel = 0.05; cost = 0.5 } ],
       [ { Ep.j_name = "j"; j_sel = 0.01; j_cost = 0.01; j_card = 50. } ]);
      ("loose & expensive UDF (image match)",
       [ { Ep.p_name = "img"; sel = 0.9; cost = 100. } ],
       [ { Ep.j_name = "j"; j_sel = 0.001; j_cost = 0.01; j_card = 100. } ]);
      ("two UDFs, two joins",
       [ { Ep.p_name = "p1"; sel = 0.5; cost = 5. };
         { Ep.p_name = "p2"; sel = 0.05; cost = 0.5 } ],
       [ { Ep.j_name = "j1"; j_sel = 0.01; j_cost = 0.02; j_card = 50. };
         { Ep.j_name = "j2"; j_sel = 0.1; j_cost = 0.02; j_card = 10. } ]);
      ("blowup then reduce",
       [ { Ep.p_name = "p"; sel = 0.5; cost = 1.0 } ],
       [ { Ep.j_name = "blowup"; j_sel = 1.0; j_cost = 0.001; j_card = 20. };
         { Ep.j_name = "reduce"; j_sel = 0.001; j_cost = 0.001; j_card = 1. } ]) ]
  in
  let rows_out =
    List.map
      (fun (name, ps, js) ->
         let pd = Ep.interleaving_cost ~n (Ep.pushdown_always ps js) in
         let ri = Ep.interleaving_cost ~n (Ep.rank_interleave ps js) in
         let _, dp = Ep.property_dp ~n ps js in
         [ name; Util.f1 pd; Util.f1 ri; Util.f1 dp;
           Util.f2 (pd /. dp); Util.f2 (ri /. dp) ])
      cases
  in
  Util.table
    [ "scenario"; "pushdown-always"; "rank-interleave"; "property-DP";
      "pushdown/DP"; "rank/DP" ]
    rows_out;
  print_endline
    "  ('evaluate predicates as early as possible' is no longer sound for\n\
    \   expensive predicates; the property-DP of [8] is optimal)"

(* ------------------------------------------------------------------ *)
(* E16: materialized views *)

let e16 () =
  Util.header "E16" "answering queries using materialized views (7.3)";
  let w = Workload.Schemas.emp_dept ~emps:12000 ~depts:100 () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  let spj rels preds projections =
    Systemr.Spj.make
      ~relations:
        (List.map
           (fun (alias, table) ->
              { Systemr.Spj.alias; table;
                schema =
                  Schema.requalify
                    (Storage.Catalog.table cat table).Storage.Table.schema
                    ~rel:alias })
           rels)
      ~predicates:preds ~projections ()
  in
  let vdef =
    spj [ ("E", "Emp"); ("D", "Dept") ]
      [ Util.eq (Util.col "E" "did") (Util.col "D" "did");
        Expr.Cmp (Expr.Lt, Util.col "E" "age", Expr.int 30) ]
      (Some
         [ (Util.col "E" "eid", "eid"); (Util.col "E" "sal", "sal");
           (Util.col "D" "loc", "loc"); (Util.col "E" "age", "age") ])
  in
  let v = Extensions.Matview.materialize cat db ~name:"young" vdef in
  let rows_out = ref [] in
  List.iter
    (fun (qname, extra_preds) ->
       let q =
         spj [ ("E", "Emp"); ("D", "Dept") ]
           ([ Util.eq (Util.col "E" "did") (Util.col "D" "did");
              Expr.Cmp (Expr.Lt, Util.col "E" "age", Expr.int 30) ]
            @ extra_preds)
           (Some [ (Util.col "E" "eid", "eid"); (Util.col "E" "sal", "sal") ])
       in
       let base = Systemr.Join_order.optimize cat db q in
       let choice = Extensions.Matview.optimize_with_views cat db [ v ] q in
       let _, meas_base, _ =
         Util.measure cat base.Systemr.Join_order.best.Systemr.Candidate.plan
       in
       let _, meas_choice, _ = Util.measure cat choice.Extensions.Matview.plan in
       rows_out :=
         [ qname;
           Util.f1 base.Systemr.Join_order.best.Systemr.Candidate.cost;
           Util.f1 choice.Extensions.Matview.cost;
           Option.value choice.Extensions.Matview.used_view ~default:"(none)";
           Util.f1 meas_base; Util.f1 meas_choice ]
         :: !rows_out)
    [ ("exactly the view", []);
      ("view + residual filter",
       [ Expr.Cmp (Expr.Gt, Util.col "E" "sal", Expr.int 150_000) ]);
      ("view + location filter",
       [ Util.eq (Util.col "D" "loc") (Expr.str "Denver") ]) ];
  Util.table
    [ "query"; "est (base tables)"; "est (chosen)"; "view used";
      "meas (base)"; "meas (chosen)" ]
    (List.rev !rows_out)

(* ------------------------------------------------------------------ *)
(* E17: parametric / dynamic plans (Section 7.4, [19,33]) *)

let e17 () =
  Util.header "E17"
    "parametric plans: deferring plan choice to runtime (7.4)";
  (* the runtime parameter ranges over the clustered key: very selective
     values want the index, wide ones want the sequential scan *)
  let w = Workload.Schemas.emp_dept ~emps:20000 ~depts:100 () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  let make_query v =
    Systemr.Spj.make
      ~relations:
        [ { Systemr.Spj.alias = "E"; table = "Emp";
            schema =
              Schema.requalify
                (Storage.Catalog.table cat "Emp").Storage.Table.schema
                ~rel:"E" } ]
      ~predicates:[ Expr.Cmp (Expr.Lt, Util.col "E" "eid", Expr.Const v) ] ()
  in
  let sample_points =
    List.map (fun s -> Value.Int s) [ 200; 2_000; 10_000; 18_000 ]
  in
  let pp = Extensions.Parametric.optimize cat db ~param_values:sample_points
      make_query in
  Printf.printf "  distinct plan shapes across the parameter space: %d\n\n"
    pp.Extensions.Parametric.shapes;
  let assumed = Value.Int 10_000 in
  let static = Extensions.Parametric.static_plan cat db make_query ~assumed in
  let rows_out = ref [] in
  List.iter
    (fun actual_i ->
       let actual = Value.Int actual_i in
       let static_now =
         Extensions.Parametric.rebind ~assumed ~actual static
       in
       let dynamic = Extensions.Parametric.plan_for pp actual in
       let _, c_static, _ = Util.measure cat static_now in
       let _, c_dyn, _ = Util.measure cat dynamic in
       let shape p =
         match p with
         | Exec.Plan.Index_scan _ -> "index scan"
         | Exec.Plan.Seq_scan _ -> "seq scan"
         | _ -> "other"
       in
       rows_out :=
         [ Util.istr actual_i; shape static_now; shape dynamic;
           Util.f1 c_static; Util.f1 c_dyn; Util.f2 (c_static /. c_dyn) ]
         :: !rows_out)
    [ 150; 2_500; 10_000; 19_500 ];
  Util.table
    [ "eid < ?"; "static plan"; "dynamic plan"; "static cost"; "dynamic cost";
      "static/dyn" ]
    (List.rev !rows_out);
  print_endline
    "  (the static plan is optimized once for eid < 10000; the dynamic\n\
    \   dispatcher picks the plan optimized nearest the runtime value)"

let all () = e13 (); e14 (); e15 (); e16 (); e17 ()
