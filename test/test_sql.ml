(* SQL front-end tests: lexing, parsing, binding, and full end-to-end runs
   through the pipeline, checked against the tuple-iteration interpreter. *)

open Relalg

let w = lazy (Workload.Schemas.emp_dept ~emps:300 ~depts:15 ~empty_dept_frac:0.2 ())

let cat () = (Lazy.force w).Workload.Schemas.cat
let db () = (Lazy.force w).Workload.Schemas.db

(* A block binds exactly when the plan lint's [Verify.block] reports no
   error on it: the binder raises the lint's first error. *)
let bind sql = Sql.Binder.of_string (cat ()) sql

let run sql =
  let block = bind sql in
  fst (Core.Pipeline.run (cat ()) (db ()) block)

let interp sql = Rewrite.Qgm_eval.run (cat ()) (bind sql)

let check_against_interp name sql =
  let a = run sql and b = interp sql in
  Alcotest.(check bool)
    (Printf.sprintf "%s (%d rows)" name (Array.length b.Exec.Executor.rows))
    true
    (Exec.Executor.same_multiset a b)

(* ---------- lexer ---------- *)

let test_lexer () =
  let toks = Sql.Lexer.tokenize "SELECT a, 'it''s' FROM t WHERE x <= 1.5" in
  Alcotest.(check int) "token count" 11 (List.length toks);
  (match toks with
   | Sql.Lexer.KW "SELECT" :: Sql.Lexer.IDENT "a" :: Sql.Lexer.SYM ","
     :: Sql.Lexer.STRING "it's" :: _ -> ()
   | _ -> Alcotest.fail "unexpected tokens");
  Alcotest.check_raises "bad char" (Sql.Lexer.Error "unexpected character ?")
    (fun () -> ignore (Sql.Lexer.tokenize "SELECT ?"))

(* Every keyword is a [KW] (uppercased) whatever its case; identifiers
   that merely contain, extend or prefix a keyword stay [IDENT]. *)
let test_lexer_keywords () =
  let mixed k =
    String.mapi
      (fun i c -> if i mod 2 = 0 then Char.lowercase_ascii c else c)
      k
  in
  List.iter
    (fun k ->
       List.iter
         (fun spelling ->
            match Sql.Lexer.tokenize spelling with
            | [ Sql.Lexer.KW k'; Sql.Lexer.EOF ] ->
              Alcotest.(check string) spelling k k'
            | _ -> Alcotest.failf "%s: not a single keyword" spelling)
         [ k; String.lowercase_ascii k; mixed k ])
    Sql.Lexer.keywords;
  List.iter
    (fun w ->
       match Sql.Lexer.tokenize w with
       | [ Sql.Lexer.IDENT w'; Sql.Lexer.EOF ] ->
         Alcotest.(check string) w w w'
       | _ -> Alcotest.failf "%s: not a single identifier" w)
    [ "selects"; "order_id"; "BYTE"; "in2"; "Sel"; "_and"; "ALLx"; "count#" ]

(* ---------- parser ---------- *)

let test_parser_shapes () =
  let q = Sql.Parser.parse_query
      "SELECT DISTINCT e.name AS n FROM Emp e, Dept d \
       WHERE e.did = d.did AND e.sal > 100 ORDER BY e.name DESC"
  in
  Alcotest.(check bool) "distinct" true q.Sql.Ast.distinct;
  Alcotest.(check int) "items" 1 (List.length q.Sql.Ast.items);
  Alcotest.(check int) "from" 2 (List.length q.Sql.Ast.from);
  Alcotest.(check int) "order" 1 (List.length q.Sql.Ast.order_by);
  let g = Sql.Parser.parse_query
      "SELECT did, COUNT(*), SUM(sal + 1) FROM Emp GROUP BY did HAVING COUNT(*) > 2"
  in
  Alcotest.(check int) "group keys" 1 (List.length g.Sql.Ast.group_by);
  Alcotest.(check bool) "having present" true (g.Sql.Ast.having <> None)

let test_parser_subqueries () =
  let q = Sql.Parser.parse_query
      "SELECT name FROM Emp WHERE did IN (SELECT did FROM Dept WHERE loc = 'Denver')"
  in
  (match q.Sql.Ast.where with
   | Some (Sql.Ast.In_query (_, _)) -> ()
   | _ -> Alcotest.fail "expected IN subquery");
  let q2 = Sql.Parser.parse_query
      "SELECT name FROM Dept D WHERE NOT EXISTS (SELECT * FROM Emp E WHERE E.did = D.did)"
  in
  (match q2.Sql.Ast.where with
   | Some (Sql.Ast.Exists (false, _)) -> ()
   | _ -> Alcotest.fail "expected NOT EXISTS")

let test_parser_errors () =
  let bad sql =
    match Sql.Parser.parse sql with
    | exception Sql.Parser.Error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ sql)
  in
  bad "SELECT";
  bad "SELECT a FROM";
  bad "SELECT a FROM t WHERE";
  bad "FROM t SELECT a"

(* ---------- binder ---------- *)

let test_binder_resolution () =
  let b = bind "SELECT name, sal FROM Emp WHERE age < 30" in
  Alcotest.(check int) "select" 2 (List.length b.Rewrite.Qgm.select);
  Alcotest.(check int) "where" 1 (List.length b.Rewrite.Qgm.where);
  (* unqualified names resolved to the Emp alias *)
  (match b.Rewrite.Qgm.select with
   | (Expr.Col { Expr.rel = "Emp"; col = "name" }, "name") :: _ -> ()
   | _ -> Alcotest.fail "unexpected resolution")

let test_binder_ambiguity_and_errors () =
  let fails ?message sql =
    match bind sql with
    | exception Sql.Binder.Error m ->
      Option.iter
        (fun want -> Alcotest.(check string) (sql ^ ": message") want m)
        message
    | _ -> Alcotest.fail ("should not bind: " ^ sql)
  in
  (* 'did' exists in both Emp and Dept *)
  fails "SELECT did FROM Emp, Dept";
  fails "SELECT nosuch FROM Emp";
  fails "SELECT * FROM NoTable";
  fails "SELECT sal FROM Emp GROUP BY did";
  (* a relation alias bound twice, a subquery of two columns where one is
     compared, an ON predicate naming a relation joined after it, and a
     HAVING subquery naming a column that is not grouped *)
  fails "SELECT E.eid FROM Emp E, Dept E WHERE E.eid < 3";
  fails "SELECT D.name FROM Dept D WHERE D.did IN (SELECT E.did, E.eid FROM Emp E)";
  fails "SELECT D.name FROM Dept D WHERE D.did = (SELECT E.did, E.eid FROM Emp E)";
  fails
    "SELECT E.eid FROM Emp E LEFT OUTER JOIN Dept D ON D.mgr = F.eid \
     LEFT OUTER JOIN Emp F ON F.eid = E.mgr";
  (* the grouping rule, named as for a plain HAVING reference, also
     where an outer relation of the same alias would resolve it *)
  fails ~message:"column E.eid must appear in GROUP BY or inside an aggregate"
    "SELECT E.did FROM Emp E GROUP BY E.did HAVING EXISTS \
     (SELECT D.did FROM Dept D WHERE D.did = E.eid)";
  fails ~message:"column E.eid must appear in GROUP BY or inside an aggregate"
    "SELECT E.did FROM Emp E GROUP BY E.did HAVING E.eid > 3";
  fails ~message:"column D.budget must appear in GROUP BY or inside an aggregate"
    "SELECT D.name FROM Dept D WHERE EXISTS (SELECT D.did FROM Emp E, Dept D \
     WHERE E.did = D.did GROUP BY D.did HAVING D.did IN \
     (SELECT G.did FROM Dept G WHERE G.budget > D.budget))";
  (* ill-typed arithmetic, in a select list, a derived table and a
     grouped block's namespace *)
  let ill_typed ?message sql =
    match bind sql with
    | exception Sql.Binder.Error m ->
      Alcotest.(check string) (sql ^ ": stage") "type error"
        (String.sub m 0 (min 10 (String.length m)));
      Option.iter
        (fun want -> Alcotest.(check string) (sql ^ ": message") want m)
        message
    | _ -> Alcotest.fail ("should not bind: " ^ sql)
  in
  ill_typed "SELECT Emp.name + 1 FROM Emp";
  ill_typed "SELECT V.x FROM (SELECT name - 1 AS x FROM Emp) AS V";
  ill_typed "SELECT did, COUNT(*) * did + name FROM Emp GROUP BY did, name";
  (* SUM and AVG of a string or bool: values the sum would skip *)
  ill_typed "SELECT SUM(Emp.name) FROM Emp";
  ill_typed "SELECT AVG(name) FROM Emp";
  ill_typed "SELECT did, SUM(sal > 5) FROM Emp GROUP BY did";
  (* non-boolean operands of AND, OR and NOT, and non-boolean predicates *)
  ill_typed "SELECT Emp.name FROM Emp WHERE Emp.sal AND Emp.age";
  ill_typed "SELECT Emp.name FROM Emp WHERE NOT Emp.sal";
  ill_typed "SELECT Emp.sal AND Emp.age FROM Emp";
  (* a grouped block's aggregates are named by their SQL text *)
  ill_typed
    ~message:"type error: predicate COUNT(*) has type int, expected bool"
    "SELECT Emp.did FROM Emp GROUP BY Emp.did HAVING COUNT(*)";
  ill_typed
    ~message:
      "type error: predicate (SUM(Emp.eid) + 1) has type int, expected bool"
    "SELECT Emp.did FROM Emp GROUP BY Emp.did HAVING SUM(Emp.eid) + 1";
  ill_typed "SELECT Emp.name FROM Emp WHERE Emp.age > 30 OR Emp.name";
  (* comparisons of values that do not compare: every string would rank
     above every int, in WHERE, a join, an ON predicate and HAVING *)
  ill_typed "SELECT Emp.name FROM Emp WHERE Emp.name = 1";
  ill_typed "SELECT E.eid FROM Emp E, Dept D WHERE E.name = D.did";
  ill_typed "SELECT E.eid FROM Emp E LEFT OUTER JOIN Dept D ON E.name = D.did";
  ill_typed "SELECT Emp.did FROM Emp GROUP BY Emp.did HAVING MIN(Emp.name) > 3";
  (* ... and with a subquery's output column *)
  ill_typed "SELECT Emp.eid FROM Emp WHERE Emp.name IN (SELECT Dept.did FROM Dept)";
  ill_typed
    "SELECT Emp.eid FROM Emp WHERE Emp.name > (SELECT MAX(Dept.did) FROM Dept)";
  (* an untyped NULL is UNKNOWN; a correlated reference in a grouped
     block's HAVING resolves in the outer scope, and one in a WHERE
     subquery past an outer-joined relation of the same alias (D); a
     derived table's repeated output names (did, name) are told apart *)
  List.iter
    (fun sql -> ignore (bind sql))
    [ "SELECT V.eid FROM (SELECT * FROM Emp E, Dept D WHERE E.did = D.did) V";
      "SELECT V.did_2 FROM (SELECT E.did, D.did FROM Emp E, Dept D) V";
      "SELECT Emp.name FROM Emp WHERE NULL";
      "SELECT Emp.name FROM Emp WHERE Emp.sal > 1 AND NOT NULL";
      "SELECT D.name FROM Dept D WHERE EXISTS (SELECT E.did FROM Emp E \
       GROUP BY E.did HAVING MAX(E.sal) > 1 AND \
       EXISTS (SELECT F.eid FROM Emp F WHERE F.eid = D.mgr))";
      "SELECT D.name FROM Dept D WHERE EXISTS (SELECT E.eid FROM Emp E \
       LEFT OUTER JOIN (SELECT F.eid AS name FROM Emp F) D \
       ON E.eid = D.name WHERE E.name IN (SELECT D.name FROM Emp G))";
      "SELECT Emp.eid FROM Emp WHERE Emp.did IN (SELECT Dept.did FROM Dept)";
      "SELECT Emp.eid FROM Emp WHERE Emp.sal > (SELECT AVG(Dept.budget) FROM Dept)" ]

let test_binder_views () =
  let block =
    Sql.Binder.of_string (cat ())
      "CREATE VIEW denver AS SELECT did FROM Dept WHERE loc = 'Denver'; \
       SELECT * FROM denver"
  in
  match block.Rewrite.Qgm.from with
  | [ Rewrite.Qgm.Derived { alias = "denver"; _ } ] -> ()
  | _ -> Alcotest.fail "expected derived view source"

(* ---------- end to end ---------- *)

let test_e2e_simple () =
  check_against_interp "filter"
    "SELECT name, sal FROM Emp WHERE age < 30 AND sal > 90000"

let test_e2e_join () =
  check_against_interp "join"
    "SELECT E.name, D.loc FROM Emp E, Dept D WHERE E.did = D.did AND D.budget > 200000"

let test_e2e_group () =
  check_against_interp "group"
    "SELECT did, COUNT(*) AS n, SUM(sal) AS total FROM Emp GROUP BY did HAVING COUNT(*) > 3";
  (* two outputs, and two grouping keys, with one column name *)
  List.iter
    (fun same_name ->
       check_against_interp "outputs named alike" same_name;
       let r = run same_name in
       Alcotest.(check (list string)) "output names" [ "did"; "did" ]
         (List.map
            (fun (c : Schema.column) -> c.Schema.name)
            r.Exec.Executor.schema);
       Alcotest.(check bool) "rows" true (Array.length r.Exec.Executor.rows > 0))
    [ "SELECT E.did, D.did FROM Emp E, Dept D WHERE E.did = D.did";
      "SELECT E.did, D.did FROM Emp E, Dept D WHERE E.did = D.did \
       GROUP BY E.did, D.did" ];
  (* a HAVING subquery sees the grouping columns *)
  check_against_interp "HAVING subquery on a grouping column"
    "SELECT E.did FROM Emp E GROUP BY E.did HAVING EXISTS \
     (SELECT D.did FROM Dept D WHERE D.did = E.did)"

let test_e2e_nested_in () =
  check_against_interp "nested IN"
    "SELECT name FROM Emp WHERE did IN (SELECT did FROM Dept WHERE loc = 'Denver')";
  (* a grouped subquery's output [did] is not the outer block's D.did *)
  check_against_interp "IN over a grouped subquery"
    "SELECT D.name FROM Dept D WHERE D.did IN \
       (SELECT E.did FROM Emp E GROUP BY E.did)";
  check_against_interp "correlated IN over a grouped subquery"
    "SELECT D.name FROM Dept D WHERE D.did IN \
       (SELECT E.did FROM Emp E WHERE E.sal > D.budget GROUP BY E.did)";
  (* a select list naming the outer relation *)
  check_against_interp "IN over an outer column"
    "SELECT E.eid FROM Emp E WHERE E.name IN (SELECT E.dept_name FROM Dept G)";
  check_against_interp "IN over an outer and an inner column"
    "SELECT E.eid FROM Emp E WHERE E.eid IN (SELECT E.eid + G.did FROM Dept G)"

let test_e2e_correlated_exists () =
  check_against_interp "correlated EXISTS"
    "SELECT D.name FROM Dept D WHERE EXISTS \
       (SELECT * FROM Emp E WHERE E.did = D.did AND E.sal > 150000)";
  check_against_interp "EXISTS selecting an outer column"
    "SELECT E.eid FROM Emp E WHERE EXISTS \
       (SELECT E.eid FROM Dept G WHERE G.did = E.did)"

let test_e2e_scalar_subquery () =
  check_against_interp "paper count-bug query"
    "SELECT D.name FROM Dept D WHERE D.num_machines >= \
       (SELECT COUNT(*) FROM Emp E WHERE D.name = E.dept_name)"

let test_e2e_outerjoin () =
  check_against_interp "left outer join"
    "SELECT D.name, E.name FROM Dept D LEFT OUTER JOIN Emp E \
     ON D.did = E.did AND E.sal > 150000"

let test_e2e_view () =
  check_against_interp "view + merge"
    "CREATE VIEW rich AS SELECT name, did, sal FROM Emp WHERE sal > 120000; \
     SELECT R.name, D.loc FROM rich R, Dept D WHERE R.did = D.did"

let test_e2e_order_by () =
  let r = run "SELECT name, sal FROM Emp WHERE age < 25 ORDER BY sal DESC" in
  let sals =
    Array.to_list r.Exec.Executor.rows |> List.map (fun t -> Tuple.get t 1)
  in
  Alcotest.(check bool) "descending" true
    (List.for_all2 Value.equal sals
       (List.sort (fun a b -> Value.compare b a) sals))

let test_e2e_explain () =
  let block = bind "SELECT E.name FROM Emp E, Dept D WHERE E.did = D.did" in
  let text = Core.Pipeline.explain (cat ()) (db ()) block in
  Alcotest.(check bool) "mentions a join" true
    (let lower = String.lowercase_ascii text in
     let contains s =
       let n = String.length lower and m = String.length s in
       let rec go i = i + m <= n && (String.sub lower i m = s || go (i + 1)) in
       go 0
     in
     contains "join");
  Alcotest.(check bool) "has cost" true
    (String.length text > 0 && String.length text < 10_000)


let test_e2e_derived_table () =
  check_against_interp "derived table in FROM"
    "SELECT T.did, T.n FROM \
       (SELECT did, COUNT(*) AS n FROM Emp GROUP BY did) T \
     WHERE T.n > 10"

let test_e2e_distinct () =
  check_against_interp "distinct projection"
    "SELECT DISTINCT loc FROM Dept"

let test_e2e_arithmetic () =
  check_against_interp "arithmetic in select and where"
    "SELECT eid, sal / 1000 AS ksal FROM Emp WHERE sal % 2 = 0 AND sal + 1 > 50000"

let test_e2e_star_db () =
  (* the star demo database through SQL *)
  let w = Workload.Schemas.star ~fact_rows:2000 ~dim_rows:20 ~dims:2 () in
  let sql =
    "SELECT D.label, SUM(S.amount) AS total \
     FROM Sales S, Dim1 D WHERE S.dim1_id = D.id AND D.weight <= 50 \
     GROUP BY D.label"
  in
  let block = Sql.Binder.of_string w.Workload.Schemas.cat sql in
  let planned, _ =
    Core.Pipeline.run w.Workload.Schemas.cat w.Workload.Schemas.db block
  in
  let truth = Rewrite.Qgm_eval.run w.Workload.Schemas.cat block in
  Alcotest.(check bool) "star aggregation" true
    (Exec.Executor.same_multiset planned truth)

let test_e2e_is_null () =
  check_against_interp "IS NOT NULL"
    "SELECT eid FROM Emp WHERE name IS NOT NULL AND age IS NULL"


let test_e2e_union () =
  let sql_union =
    "SELECT name FROM Emp WHERE sal > 170000 \
     UNION SELECT name FROM Emp WHERE age < 23"
  in
  let q = Sql.Binder.query_of_string (cat ()) sql_union in
  let planned, reports = Core.Pipeline.run_query (cat ()) (db ()) q in
  let truth = Rewrite.Qgm_eval.run_query (cat ()) q in
  Alcotest.(check int) "two block reports" 2 (List.length reports);
  Alcotest.(check bool) "union equivalent" true
    (Exec.Executor.same_multiset planned truth);
  (* UNION deduplicates; UNION ALL does not *)
  let q_all =
    Sql.Binder.query_of_string (cat ())
      "SELECT name FROM Emp WHERE sal > 170000 \
       UNION ALL SELECT name FROM Emp WHERE sal > 170000"
  in
  let all_rows, _ = Core.Pipeline.run_query (cat ()) (db ()) q_all in
  let q_dedup =
    Sql.Binder.query_of_string (cat ())
      "SELECT name FROM Emp WHERE sal > 170000 \
       UNION SELECT name FROM Emp WHERE sal > 170000"
  in
  let dedup_rows, _ = Core.Pipeline.run_query (cat ()) (db ()) q_dedup in
  Alcotest.(check bool) "ALL keeps duplicates" true
    (Array.length all_rows.Exec.Executor.rows
     > Array.length dedup_rows.Exec.Executor.rows);
  (* arity mismatch rejected at binding *)
  match
    Sql.Binder.query_of_string (cat ())
      "SELECT name FROM Emp UNION SELECT name, sal FROM Emp"
  with
  | exception Sql.Binder.Error _ -> ()
  | _ -> Alcotest.fail "arity mismatch should not bind"

let () =
  Alcotest.run "sql"
    [ ("lexer",
       [ Alcotest.test_case "tokens" `Quick test_lexer;
         Alcotest.test_case "keywords" `Quick test_lexer_keywords ]);
      ("parser",
       [ Alcotest.test_case "shapes" `Quick test_parser_shapes;
         Alcotest.test_case "subqueries" `Quick test_parser_subqueries;
         Alcotest.test_case "errors" `Quick test_parser_errors ]);
      ("binder",
       [ Alcotest.test_case "resolution" `Quick test_binder_resolution;
         Alcotest.test_case "errors" `Quick test_binder_ambiguity_and_errors;
         Alcotest.test_case "views" `Quick test_binder_views ]);
      ("end-to-end",
       [ Alcotest.test_case "filter" `Quick test_e2e_simple;
         Alcotest.test_case "join" `Quick test_e2e_join;
         Alcotest.test_case "group" `Quick test_e2e_group;
         Alcotest.test_case "nested IN" `Quick test_e2e_nested_in;
         Alcotest.test_case "correlated EXISTS" `Quick test_e2e_correlated_exists;
         Alcotest.test_case "scalar subquery" `Quick test_e2e_scalar_subquery;
         Alcotest.test_case "left outer join" `Quick test_e2e_outerjoin;
         Alcotest.test_case "view" `Quick test_e2e_view;
         Alcotest.test_case "order by" `Quick test_e2e_order_by;
         Alcotest.test_case "derived table" `Quick test_e2e_derived_table;
         Alcotest.test_case "distinct" `Quick test_e2e_distinct;
         Alcotest.test_case "arithmetic" `Quick test_e2e_arithmetic;
         Alcotest.test_case "star schema" `Quick test_e2e_star_db;
         Alcotest.test_case "is null" `Quick test_e2e_is_null;
         Alcotest.test_case "union" `Quick test_e2e_union;
         Alcotest.test_case "explain" `Quick test_e2e_explain ]) ]
