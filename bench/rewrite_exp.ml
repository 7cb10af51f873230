(* E4-E6, E12: rewrite experiments — unnesting, count bug, magic
   decorrelation, outerjoin association. *)

open Relalg
module Q = Rewrite.Qgm

(* ------------------------------------------------------------------ *)
(* E4: unnesting vs tuple-iteration semantics *)

let in_query cat =
  let sub =
    Q.simple
      ~select:[ (Util.col "D" "did", "did") ]
      ~from:[ Util.base cat ~alias:"D" "Dept" ]
      ~where:
        [ Util.eq (Util.col "D" "loc") (Expr.str "Denver");
          Util.eq (Util.col "E" "eid") (Util.col "D" "mgr") ] ()
  in
  { (Q.simple ~select:[ (Util.col "E" "name", "name") ]
       ~from:[ Util.base cat ~alias:"E" "Emp" ] ())
    with Q.where = [ Q.In_sub (Util.col "E" "did", sub) ] }

let e4 () =
  Util.header "E4"
    "unnesting a correlated IN subquery vs tuple iteration (Section 4.2.2)";
  let rows_out = ref [] in
  List.iter
    (fun emps ->
       let w = Workload.Schemas.emp_dept ~emps ~depts:(max 10 (emps / 40)) () in
       let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
       let q () = in_query cat in
       let run config =
         let ctx = Exec.Context.create () in
         let result, report = Core.Pipeline.run ~ctx ~config cat db (q ()) in
         (Array.length result.Exec.Executor.rows,
          Exec.Context.weighted_cost ctx,
          ctx.Exec.Context.cpu_ops,
          report.Core.Pipeline.path)
       in
       let n1, naive_cost, naive_cpu, path1 = run Core.Pipeline.naive_config in
       let n2, unnest_cost, unnest_cpu, path2 =
         run Core.Pipeline.default_config
       in
       assert (n1 = n2);
       assert (path1 = Core.Pipeline.Interpreted);
       assert (path2 = Core.Pipeline.Planned);
       rows_out :=
         [ Util.istr emps; Util.istr n1; Util.f1 naive_cost;
           Util.f1 unnest_cost; Util.f2 (naive_cost /. unnest_cost);
           Util.istr naive_cpu; Util.istr unnest_cpu ]
         :: !rows_out)
    [ 500; 2000; 8000 ];
  Util.table
    [ "emps"; "answers"; "tuple-iter cost"; "unnested cost"; "speedup";
      "tuple-iter cpu"; "unnested cpu" ]
    (List.rev !rows_out)

(* ------------------------------------------------------------------ *)
(* E5: the count bug *)

let count_query cat =
  let sub =
    { (Q.simple ~select:[ (Expr.col ~rel:"" ~col:"n", "n") ]
         ~from:[ Util.base cat ~alias:"E" "Emp" ]
         ~where:[ Util.eq (Util.col "D" "name") (Util.col "E" "dept_name") ]
         ~aggs:[ (Expr.Count_star, "n") ] ())
      with Q.select = [ (Expr.col ~rel:"" ~col:"n", "n") ] }
  in
  { (Q.simple ~select:[ (Util.col "D" "name", "name") ]
       ~from:[ Util.base cat ~alias:"D" "Dept" ] ())
    with Q.where = [ Q.Cmp_sub (Expr.Ge, Util.col "D" "num_machines", sub) ] }

let e5 () =
  Util.header "E5" "the count bug: join vs outerjoin unnesting (Section 4.2.2)";
  let w = Workload.Schemas.emp_dept ~emps:2000 ~depts:50 ~empty_dept_frac:0.3 () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  let truth = Rewrite.Qgm_eval.run cat (count_query cat) in
  let run rules =
    let result, _ =
      Core.Pipeline.run
        ~config:{ Core.Pipeline.default_config with rewrites = rules }
        cat db (count_query cat)
    in
    Array.length result.Exec.Executor.rows
  in
  let correct = run [ [ Rewrite.Unnest.scalar_correlated_rule ] ] in
  let naive = run [ [ Rewrite.Unnest.naive_cmp_rule ] ] in
  Util.table
    [ "method"; "departments returned"; "correct" ]
    [ [ "tuple iteration (truth)";
        Util.istr (Array.length truth.Exec.Executor.rows); "yes" ];
      [ "aggregate-first, outerjoin"; Util.istr correct;
        (if correct = Array.length truth.Exec.Executor.rows then "yes" else "NO") ];
      [ "aggregate-first, inner join"; Util.istr naive;
        (if naive = Array.length truth.Exec.Executor.rows then "yes"
         else "NO (count bug)") ] ]

(* ------------------------------------------------------------------ *)
(* E6: magic / semijoin decorrelation on the DepAvgSal example *)

let dep_avg_sal cat ~age_cut =
  let view =
    Q.simple
      ~select:
        [ (Expr.col ~rel:"" ~col:"did", "did");
          (Expr.col ~rel:"" ~col:"avgsal", "avgsal") ]
      ~from:[ Util.base cat ~alias:"E2" "Emp" ]
      ~group_by:[ (Util.col "E2" "did", "did") ]
      ~aggs:[ (Expr.Avg (Util.col "E2" "sal"), "avgsal") ] ()
  in
  Q.simple
    ~select:[ (Util.col "E" "eid", "eid"); (Util.col "E" "sal", "sal") ]
    ~from:
      [ Util.base cat ~alias:"E" "Emp"; Util.base cat ~alias:"D" "Dept";
        Q.Derived { block = view; alias = "V" } ]
    ~where:
      [ Util.eq (Util.col "E" "did") (Util.col "D" "did");
        Util.eq (Util.col "V" "did") (Util.col "E" "did");
        Expr.Cmp (Expr.Lt, Util.col "E" "age", Expr.int age_cut);
        Expr.Cmp (Expr.Gt, Util.col "D" "budget", Expr.int 100_000);
        Expr.Cmp (Expr.Gt, Util.col "E" "sal", Util.col "V" "avgsal") ] ()

let e6 () =
  Util.header "E6"
    "magic/semijoin decorrelation: the DepAvgSal query (Section 4.3)";
  let rows_out = ref [] in
  List.iter
    (fun age_cut ->
       let w = Workload.Schemas.emp_dept ~emps:6000 ~depts:300 () in
       let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
       let run rules =
         let ctx = Exec.Context.create () in
         let result, _ =
           Core.Pipeline.run ~ctx
             ~config:{ Core.Pipeline.default_config with rewrites = rules }
             cat db (dep_avg_sal cat ~age_cut)
         in
         (Array.length result.Exec.Executor.rows, Exec.Context.weighted_cost ctx)
       in
       let n1, without = run [] in
       let n2, with_magic = run [ [ Rewrite.Magic.rule ] ] in
       assert (n1 = n2);
       rows_out :=
         [ Util.istr age_cut;
           Printf.sprintf "%.0f%%" (float_of_int (age_cut - 21) /. 45. *. 100.);
           Util.istr n1; Util.f1 without; Util.f1 with_magic;
           Util.f2 (without /. with_magic) ]
         :: !rows_out)
    [ 23; 25; 30; 45; 66 ];
  Util.table
    [ "age cut"; "outer sel"; "answers"; "no magic"; "magic"; "benefit" ]
    (List.rev !rows_out);
  print_endline
    "  (magic restricts DepAvgSal to departments surviving the outer\n\
    \   filters; the benefit shrinks as the outer filter passes everything)"

(* ------------------------------------------------------------------ *)
(* E12: join/outerjoin association (Section 4.1.2) *)

let e12 () =
  Util.header "E12" "join/outerjoin associativity (Section 4.1.2)";
  let w = Workload.Schemas.emp_dept ~emps:3000 ~depts:60 () in
  let cat = w.Workload.Schemas.cat in
  let scan alias name = Storage.Catalog.scan cat ~alias name in
  (* Join(D1, E LOJ E2): selective filter on D1 *)
  let tree =
    Algebra.Select
      (Util.eq (Util.col "D1" "loc") (Expr.str "Denver"),
       Algebra.Join
         (Algebra.Inner,
          Util.eq (Util.col "D1" "did") (Util.col "E" "did"),
          scan "D1" "Dept",
          Algebra.Join
            (Algebra.Left_outer,
             Util.eq (Util.col "E" "mgr") (Util.col "E2" "eid"),
             scan "E" "Emp", scan "E2" "Emp")))
  in
  let norm = Rewrite.Outerjoin.normalize tree in
  let rec to_plan = function
    | Algebra.Scan { table; alias; _ } ->
      Exec.Plan.Seq_scan { table; alias; filter = None }
    | Algebra.Join (k, p, l, r) ->
      (* hash join on equi predicates, padding with the right kind *)
      let pairs, residual =
        Pred.equi_pairs
          ~left:(Algebra.base_aliases l)
          ~right:(Algebra.base_aliases r)
          (Pred.conjuncts p)
      in
      if pairs <> [] then
        Exec.Plan.Hash_join
          { kind = k; pairs; residual = Pred.of_conjuncts residual;
            left = to_plan l; right = to_plan r }
      else
        Exec.Plan.Nested_loop
          { kind = k; pred = p; outer = to_plan l;
            inner = Exec.Plan.Materialize (to_plan r) }
    | Algebra.Select (p, i) -> Exec.Plan.Filter (p, to_plan i)
    | _ -> invalid_arg "unexpected node"
  in
  (* push the selection down for the normalized variant, as a real
     optimizer would once joins are reorderable *)
  let norm_pushed =
    match norm with
    | Algebra.Select (sel, Algebra.Join (Algebra.Left_outer, q, Algebra.Join (k, p, d, e), t)) ->
      Algebra.Join (Algebra.Left_outer, q,
                    Algebra.Join (k, p, Algebra.Select (sel, d), e), t)
    | other -> other
  in
  let r1, c1, _ = Util.measure cat (to_plan tree) in
  let r2, c2, _ = Util.measure cat (to_plan norm_pushed) in
  Util.table
    [ "variant"; "rows"; "measured cost"; "equivalent" ]
    [ [ "Join(D, E LOJ E2) as written";
        Util.istr (Array.length r1.Exec.Executor.rows); Util.f1 c1; "-" ];
      [ "normalized: Join(D,E) LOJ E2 + pushed filter";
        Util.istr (Array.length r2.Exec.Executor.rows); Util.f1 c2;
        string_of_bool (Exec.Executor.same_multiset_modulo_columns r1 r2) ] ];
  Printf.printf "  normalization verified: %b -> %b\n"
    (Rewrite.Outerjoin.normalized tree)
    (Rewrite.Outerjoin.normalized norm)

let all () = e4 (); e5 (); e6 (); e12 ()
