(* The benchmark's workloads.  Each one builds its databases from the seed
   (data through the [?seed] arguments of the Workload.Schemas builders)
   and renders its queries as SQL text whose constants are drawn from the
   same seed, so one integer fixes every input the pipeline sees. *)

open Relalg

type db = { cat : Storage.Catalog.t; stats : Stats.Table_stats.db }

type query = {
  name : string;
  sql : string;
  db : db;
  ordered : bool;  (** ORDER BY is a total order: rows compare in order *)
  weight : int;  (** executions per pass of the closed loop *)
}

type t = { name : string; dop : int; queries : query list }

let names = [ "join_enum"; "analytic"; "analytic_par"; "nested_rewrite" ]

let derive = Workload.Gen.derive

(* Query constants come from their own stream, so adding a table to a
   builder never shifts them. *)
let constants seed = Workload.Gen.rng (derive seed 2)
let pick st lo hi = Workload.Gen.uniform_int st ~lo ~hi

let query ?(ordered = false) ?(weight = 1) db name sql =
  { name; sql; db; ordered; weight }

(* ------------------------------------------------------------------ *)
(* join_enum: enumeration-bound joins over tiny relations *)

let col_sql = function
  | Expr.Col { Expr.rel; col } -> Printf.sprintf "%s.%s" rel col
  | _ -> invalid_arg "join_enum: join predicates are column equalities"

(* One join graph of [n] ~200-row relations.  A filter on every relation
   keeps ~15% of its rows, so intermediates stay at a few hundred
   rows and execution is cheap next to the search. *)
let join_query seed st ~idx ~shape ~label ~n ~weight =
  let p =
    Workload.Schemas.join_shape ~seed:(derive seed (100 + idx)) ~rows:200
      ~shape ~n ()
  in
  let eqs =
    List.map
      (function
        | Expr.Cmp (Expr.Eq, a, b) -> col_sql a ^ " = " ^ col_sql b
        | _ -> invalid_arg "join_enum: expected equi-join predicates")
      p.Workload.Schemas.predicates
  in
  let aliases = List.map fst p.Workload.Schemas.relations in
  let filters =
    List.map (fun a -> Printf.sprintf "%s.c < %d" a (pick st 140 160)) aliases
  in
  let sql =
    Printf.sprintf "SELECT %s.a, %s.c FROM %s WHERE %s" (List.hd aliases)
      (List.nth aliases (n - 1))
      (String.concat ", " aliases)
      (String.concat " AND " (eqs @ filters))
  in
  query ~weight
    { cat = p.Workload.Schemas.jcat; stats = p.Workload.Schemas.jdb }
    (Printf.sprintf "%s%d" label n) sql

let join_enum seed =
  let st = constants seed in
  let shapes =
    [ (Workload.Schemas.Chain_q, "chain"); (Workload.Schemas.Cycle_q, "cycle");
      (Workload.Schemas.Star_q, "star") ]
  in
  let queries =
    List.concat_map
      (fun (n, weight) ->
         List.mapi
           (fun i (shape, label) ->
              join_query seed st ~idx:((10 * n) + i) ~shape ~label ~n ~weight)
           shapes)
      [ (6, 2); (10, 1) ]
  in
  { name = "join_enum"; dop = 1; queries }

(* ------------------------------------------------------------------ *)
(* analytic: execution-bound scans, sorts, aggregations and joins *)

let analytic_emps = 100_000
let analytic_sales = 160_000

let analytic ~dop seed =
  let ed =
    Workload.Schemas.emp_dept ~seed:(derive seed 1) ~emps:analytic_emps
      ~depts:100 ()
  in
  let emp = { cat = ed.Workload.Schemas.cat; stats = ed.Workload.Schemas.db } in
  let sw =
    Workload.Schemas.star ~seed:(derive seed 3) ~fact_rows:analytic_sales
      ~dim_rows:100 ~dims:3 ()
  in
  let star = { cat = sw.Workload.Schemas.cat; stats = sw.Workload.Schemas.db } in
  let st = constants seed in
  let p lo hi = pick st lo hi in
  let queries =
    [ query emp "scan_filter"
        (Printf.sprintf
           "SELECT E.eid, E.sal FROM Emp E WHERE E.sal > %d AND E.age < %d"
           (p 150_000 151_000) (p 40 41));
      query emp "projection"
        (Printf.sprintf
           "SELECT E.eid, E.sal * 12 + E.age AS pay FROM Emp E WHERE E.age > %d"
           (p 60 61));
      query ~ordered:true emp "order_by"
        (Printf.sprintf
           "SELECT E.eid, E.name, E.sal FROM Emp E WHERE E.age < %d \
            ORDER BY E.sal DESC, E.eid"
           (p 25 26));
      query emp "distinct"
        (Printf.sprintf
           "SELECT DISTINCT E.age, E.dept_name FROM Emp E WHERE E.sal > %d"
           (p 100_000 102_000));
      query emp "group_join"
        (Printf.sprintf
           "SELECT D.name, COUNT(*), SUM(E.sal) FROM Emp E, Dept D \
            WHERE E.did = D.did AND E.age > %d GROUP BY D.name"
           (p 29 30));
      query star "star_group"
        (Printf.sprintf
           "SELECT D1.label, SUM(S.amount) FROM Sales S, Dim1 D1, Dim2 D2 \
            WHERE S.dim1_id = D1.id AND S.dim2_id = D2.id AND D2.weight > %d \
            GROUP BY D1.label"
           (p 49 51));
      query ~ordered:true emp "merge_join"
        (Printf.sprintf
           "SELECT E1.eid, E2.sal FROM Emp E1, Emp E2 \
            WHERE E1.eid = E2.eid AND E1.age < %d ORDER BY E1.eid"
           (p 24 25)) ]
  in
  { name = (if dop > 1 then "analytic_par" else "analytic"); dop; queries }

(* ------------------------------------------------------------------ *)
(* nested_rewrite: the paper's nested-query examples plus the fuzz
   corpus, where rewriting, unnesting and view materialization work *)

(* The corpus files the benchmark replays, named so that a file added
   to the corpus later does not silently change the benchmark. *)
let corpus =
  [ "cartesian_rescue"; "contradiction_fold"; "count_bug";
    "hist_point_boundary_join"; "interesting_order"; "null_join_key";
    "qerror_hist_range_zero"; "qerror_neq_join_count";
    "qerror_neq_join_scalar"; "qerror_not_complement"; "qerror_not_range_g";
    "qerror_not_range_id"; "regress_unnest_oj_keys";
    "regress_view_merge_subst" ]

let corpus_query name =
  let r = Fuzz.Repro.load (Filename.concat "fuzz/corpus" (name ^ ".repro")) in
  let cat, stats = Fuzz.Dbspec.build r.Fuzz.Repro.spec in
  (* the one corpus ORDER BY (interesting_order) sorts on a key with
     ties, so every corpus query compares as a multiset *)
  query { cat; stats } ("corpus/" ^ name) r.Fuzz.Repro.sql

let nested_rewrite seed =
  let ed =
    Workload.Schemas.emp_dept ~seed:(derive seed 1) ~emps:5000 ~depts:100 ()
  in
  let emp = { cat = ed.Workload.Schemas.cat; stats = ed.Workload.Schemas.db } in
  let st = constants seed in
  let p lo hi = pick st lo hi in
  let paper =
    [ query emp "corr_avg"
        (Printf.sprintf
           "SELECT D.name FROM Dept D WHERE D.budget > \
            (SELECT AVG(E.sal) FROM Emp E WHERE E.did = D.did AND E.age > %d)"
           (p 32 33));
      query emp "count_bug"
        (Printf.sprintf
           "SELECT D.name FROM Dept D WHERE D.budget > %d AND \
            D.num_machines >= \
            (SELECT COUNT(*) FROM Emp E WHERE D.name = E.dept_name)"
           (p 70_000 80_000));
      query emp "exists"
        (Printf.sprintf
           "SELECT D.name FROM Dept D WHERE EXISTS \
            (SELECT * FROM Emp E WHERE E.did = D.did AND E.sal > %d)"
           (p 178_500 179_000));
      query emp "not_exists"
        (Printf.sprintf
           "SELECT D.name FROM Dept D WHERE NOT EXISTS \
            (SELECT * FROM Emp E WHERE E.did = D.did AND E.age > %d)"
           (p 63 63));
      query emp "in_subquery"
        (Printf.sprintf
           "SELECT E.name, E.sal FROM Emp E WHERE E.did IN \
            (SELECT D.did FROM Dept D WHERE D.budget > %d)"
           (p 420_000 430_000));
      query emp "view_group"
        (Printf.sprintf
           "CREATE VIEW dept_pay AS \
            SELECT E.did, AVG(E.sal) AS avg_sal FROM Emp E GROUP BY E.did; \
            SELECT E.name, E.sal FROM Emp E, dept_pay V \
            WHERE E.did = V.did AND E.sal > V.avg_sal AND E.age < %d"
           (p 27 28));
      query ~weight:2 emp "nonequi_agg"
        (Printf.sprintf
           "SELECT D.name FROM Dept D WHERE D.budget < \
            (SELECT MAX(E.sal) FROM Emp E WHERE E.did < D.did AND E.sal > %d)"
           (p 150_000 150_500));
      query emp "union"
        (Printf.sprintf
           "SELECT E.name FROM Emp E WHERE E.sal > %d \
            UNION SELECT E.name FROM Emp E WHERE E.age < %d"
           (p 172_000 173_000) (p 22 23)) ]
  in
  { name = "nested_rewrite"; dop = 1;
    queries = paper @ List.map corpus_query corpus }

let build name seed =
  match name with
  | "join_enum" -> join_enum seed
  | "analytic" -> analytic ~dop:1 seed
  | "analytic_par" -> analytic ~dop:2 seed
  | "nested_rewrite" -> nested_rewrite seed
  | _ -> invalid_arg ("unknown workload " ^ name)
