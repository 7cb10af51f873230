(* Unit and property tests for the relational-algebra substrate: values,
   schemas, expressions (three-valued logic), CNF, query graphs. *)

open Relalg

let value = Alcotest.testable Value.pp Value.equal

let schema_ed =
  [ Schema.column ~rel:"E" ~name:"id" ~ty:Value.Tint;
    Schema.column ~rel:"E" ~name:"sal" ~ty:Value.Tint;
    Schema.column ~rel:"D" ~name:"id" ~ty:Value.Tint;
    Schema.column ~rel:"D" ~name:"loc" ~ty:Value.Tstring ]

let tuple_ed = Tuple.of_list [ Value.Int 1; Value.Int 90; Value.Int 7; Value.Str "Denver" ]

(* ---------- values ---------- *)

let test_value_order () =
  Alcotest.(check bool) "null lowest" true (Value.compare Value.Null (Value.Int (-100)) < 0);
  Alcotest.(check bool) "int/float mix" true (Value.compare (Value.Int 2) (Value.Float 2.5) < 0);
  Alcotest.(check bool) "int=float" true (Value.equal (Value.Int 2) (Value.Float 2.0));
  Alcotest.(check bool) "strings" true (Value.compare (Value.Str "a") (Value.Str "b") < 0)

let test_sql_cmp_null () =
  Alcotest.(check (option int)) "null vs int" None (Value.sql_cmp Value.Null (Value.Int 1));
  Alcotest.(check (option int)) "int vs null" None (Value.sql_cmp (Value.Int 1) Value.Null);
  Alcotest.(check (option int)) "eq" (Some 0) (Value.sql_cmp (Value.Int 1) (Value.Int 1))

(* ---------- schema ---------- *)

let test_schema_lookup () =
  Alcotest.(check int) "qualified" 1 (Schema.index_of schema_ed ~rel:"E" ~name:"sal");
  Alcotest.(check int) "unqualified unique" 3 (Schema.index_of schema_ed ~rel:"" ~name:"loc");
  Alcotest.check_raises "ambiguous" (Failure "ambiguous column reference: id")
    (fun () -> ignore (Schema.index_of schema_ed ~rel:"" ~name:"id"));
  let x rel = Schema.column ~rel ~name:"x" ~ty:Value.Tint in
  Alcotest.(check int) "unqualified column first" 1
    (Schema.index_of [ x "T"; x "" ] ~rel:"" ~name:"x");
  Alcotest.check_raises "two unqualified" (Failure "ambiguous column reference: x")
    (fun () -> ignore (Schema.index_of [ x ""; x "T"; x "" ] ~rel:"" ~name:"x"));
  Alcotest.(check bool) "missing" true
    (match Schema.index_of schema_ed ~rel:"E" ~name:"nope" with
     | exception Not_found -> true
     | _ -> false)

let test_schema_requalify () =
  let s = Schema.requalify schema_ed ~rel:"X" in
  Alcotest.(check int) "requalified" 1 (Schema.index_of s ~rel:"X" ~name:"sal")

(* ---------- expressions ---------- *)

let eval e = Expr.eval schema_ed tuple_ed e

let test_expr_arith () =
  Alcotest.check value "add" (Value.Int 91)
    (eval (Expr.Binop (Expr.Add, Expr.col ~rel:"E" ~col:"sal", Expr.int 1)));
  Alcotest.check value "div0" Value.Null
    (eval (Expr.Binop (Expr.Div, Expr.int 1, Expr.int 0)));
  Alcotest.check value "null propagates" Value.Null
    (eval (Expr.Binop (Expr.Mul, Expr.Const Value.Null, Expr.int 3)));
  Alcotest.check value "float promote" (Value.Float 2.5)
    (eval (Expr.Binop (Expr.Add, Expr.int 2, Expr.Const (Value.Float 0.5))))

let test_expr_three_valued () =
  let unknown = Expr.Cmp (Expr.Eq, Expr.Const Value.Null, Expr.int 1) in
  Alcotest.check value "unknown" Value.Null (eval unknown);
  Alcotest.check value "false and unknown" (Value.Bool false)
    (eval (Expr.And (Expr.bool false, unknown)));
  Alcotest.check value "true or unknown" (Value.Bool true)
    (eval (Expr.Or (Expr.bool true, unknown)));
  Alcotest.check value "true and unknown" Value.Null
    (eval (Expr.And (Expr.bool true, unknown)));
  Alcotest.check value "not unknown" Value.Null (eval (Expr.Not unknown));
  Alcotest.check value "is null" (Value.Bool true)
    (eval (Expr.Is_null (Expr.Const Value.Null)))

let test_expr_holds_rejects_unknown () =
  let unknown = Expr.Cmp (Expr.Eq, Expr.Const Value.Null, Expr.int 1) in
  Alcotest.(check bool) "holds unknown = false" false
    (Expr.holds schema_ed unknown tuple_ed)

let test_expr_columns () =
  let e =
    Expr.And
      (Expr.Cmp (Expr.Eq, Expr.col ~rel:"E" ~col:"id", Expr.col ~rel:"D" ~col:"id"),
       Expr.Cmp (Expr.Gt, Expr.col ~rel:"E" ~col:"sal", Expr.int 10))
  in
  Alcotest.(check (list string)) "relations" [ "D"; "E" ] (Expr.relations e);
  Alcotest.(check int) "columns" 3 (List.length (Expr.columns e))

let test_agg_fold () =
  let st = Expr.agg_init () in
  List.iter (Expr.agg_step st) [ Value.Int 3; Value.Null; Value.Int 5 ];
  Alcotest.check value "count skips null" (Value.Int 2) (Expr.agg_final (Expr.Count Expr.ftrue) st);
  Alcotest.check value "sum" (Value.Int 8) (Expr.agg_final (Expr.Sum Expr.ftrue) st);
  Alcotest.check value "min" (Value.Int 3) (Expr.agg_final (Expr.Min Expr.ftrue) st);
  Alcotest.check value "avg" (Value.Float 4.0) (Expr.agg_final (Expr.Avg Expr.ftrue) st);
  let empty = Expr.agg_init () in
  Alcotest.check value "empty sum is null" Value.Null (Expr.agg_final (Expr.Sum Expr.ftrue) empty);
  Alcotest.check value "empty count is 0" (Value.Int 0) (Expr.agg_final Expr.Count_star empty)

let test_agg_combine () =
  let a = Expr.agg_init () and b = Expr.agg_init () in
  List.iter (Expr.agg_step a) [ Value.Int 1; Value.Int 9 ];
  List.iter (Expr.agg_step b) [ Value.Int 4 ];
  let c = Expr.agg_combine a b in
  Alcotest.check value "combined sum" (Value.Int 14) (Expr.agg_final (Expr.Sum Expr.ftrue) c);
  Alcotest.check value "combined max" (Value.Int 9) (Expr.agg_final (Expr.Max Expr.ftrue) c);
  Alcotest.check value "combined count" (Value.Int 3) (Expr.agg_final Expr.Count_star c)

(* ---------- predicates ---------- *)

let test_conjuncts () =
  let a = Expr.Cmp (Expr.Gt, Expr.col ~rel:"E" ~col:"sal", Expr.int 1) in
  let b = Expr.Cmp (Expr.Lt, Expr.col ~rel:"E" ~col:"sal", Expr.int 9) in
  Alcotest.(check int) "split" 2 (List.length (Pred.conjuncts (Expr.And (a, b))));
  Alcotest.(check int) "true -> none" 0 (List.length (Pred.conjuncts Expr.ftrue));
  let back = Pred.of_conjuncts (Pred.conjuncts (Expr.And (a, b))) in
  Alcotest.(check int) "roundtrip" 2 (List.length (Pred.conjuncts back))

let test_classify () =
  let single = Expr.Cmp (Expr.Gt, Expr.col ~rel:"E" ~col:"sal", Expr.int 1) in
  let join = Expr.Cmp (Expr.Eq, Expr.col ~rel:"E" ~col:"id", Expr.col ~rel:"D" ~col:"id") in
  (match Pred.classify single with
   | Pred.Single "E" -> ()
   | _ -> Alcotest.fail "expected Single E");
  (match Pred.classify join with
   | Pred.Equi_join (a, b) ->
     Alcotest.(check string) "left" "E" a.Expr.rel;
     Alcotest.(check string) "right" "D" b.Expr.rel
   | _ -> Alcotest.fail "expected Equi_join");
  match Pred.classify (Expr.Cmp (Expr.Eq, Expr.int 1, Expr.int 1)) with
  | Pred.Constant -> ()
  | _ -> Alcotest.fail "expected Constant"

let test_equi_pairs () =
  let join = Expr.Cmp (Expr.Eq, Expr.col ~rel:"D" ~col:"id", Expr.col ~rel:"E" ~col:"id") in
  let pairs, residual = Pred.equi_pairs ~left:[ "E" ] ~right:[ "D" ] [ join ] in
  Alcotest.(check int) "one pair" 1 (List.length pairs);
  Alcotest.(check int) "no residual" 0 (List.length residual);
  let (l, r) = List.hd pairs in
  (* orientation normalized: left side of the pair is from the left set *)
  Alcotest.(check string) "pair left" "E" l.Expr.rel;
  Alcotest.(check string) "pair right" "D" r.Expr.rel

(* ---------- CNF property ---------- *)

(* Random predicates over two int columns, evaluated on random tuples:
   CNF must preserve the 2-valued outcome of WHERE (reject on UNKNOWN). *)
let small_schema =
  [ Schema.column ~rel:"T" ~name:"x" ~ty:Value.Tint;
    Schema.column ~rel:"T" ~name:"y" ~ty:Value.Tint ]

let gen_pred =
  let open QCheck.Gen in
  let leaf =
    let* col = oneofl [ "x"; "y" ] in
    let* op = oneofl [ Expr.Eq; Expr.Neq; Expr.Lt; Expr.Ge ] in
    let* c = int_range (-2) 2 in
    return (Expr.Cmp (op, Expr.col ~rel:"T" ~col, Expr.int c))
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [ (2, leaf);
          (1, map2 (fun a b -> Expr.And (a, b)) (go (depth - 1)) (go (depth - 1)));
          (1, map2 (fun a b -> Expr.Or (a, b)) (go (depth - 1)) (go (depth - 1)));
          (1, map (fun a -> Expr.Not a) (go (depth - 1))) ]
  in
  go 3

let arb_pred = QCheck.make ~print:Expr.to_string gen_pred

let prop_cnf_equivalent =
  QCheck.Test.make ~name:"cnf preserves WHERE semantics" ~count:300
    (QCheck.pair arb_pred (QCheck.pair QCheck.small_signed_int QCheck.small_signed_int))
    (fun (p, (x, y)) ->
       let tuple = Tuple.of_list [ Value.Int x; Value.Int y ] in
       let before = Expr.holds small_schema p tuple in
       let after = Expr.holds small_schema (Pred.cnf p) tuple in
       before = after)

(* The held compiler against the value compiler, and the two-tuple
   instances against the one-tuple ones over the concatenation: random
   well-typed predicates over a nullable int and a nullable string
   column on each side of a join. *)
let held_left =
  [ Schema.column ~rel:"L" ~name:"a" ~ty:Value.Tint;
    Schema.column ~rel:"L" ~name:"s" ~ty:Value.Tstring ]

let held_right =
  [ Schema.column ~rel:"R" ~name:"b" ~ty:Value.Tint;
    Schema.column ~rel:"R" ~name:"t" ~ty:Value.Tstring ]

let gen_held_case =
  let open QCheck.Gen in
  let nullable g = frequency [ (1, return Value.Null); (3, g) ] in
  let int_v = nullable (map (fun i -> Value.Int i) (int_range (-2) 2)) in
  let str_v = nullable (map (fun s -> Value.Str s) (oneofl [ "a"; "b" ])) in
  let int_e =
    frequency
      [ (3, return (Expr.col ~rel:"L" ~col:"a"));
        (3, return (Expr.col ~rel:"R" ~col:"b"));
        (2, map (fun v -> Expr.Const v) int_v) ]
  in
  let str_e =
    frequency
      [ (2, return (Expr.col ~rel:"L" ~col:"s"));
        (2, return (Expr.col ~rel:"R" ~col:"t"));
        (2, map (fun v -> Expr.Const v) str_v) ]
  in
  let cmp = oneofl Expr.[ Eq; Neq; Lt; Le; Gt; Ge ] in
  let leaf =
    frequency
      [ (3, map3 (fun op a b -> Expr.Cmp (op, a, b)) cmp int_e int_e);
        (2, map3 (fun op a b -> Expr.Cmp (op, a, b)) cmp str_e str_e);
        (1, map (fun e -> Expr.Is_null e) (oneof [ int_e; str_e ]));
        (1, map (fun v -> Expr.Const v)
              (oneofl Value.[ Bool true; Bool false; Null ])) ]
  in
  let rec pred depth =
    if depth = 0 then leaf
    else
      let sub = pred (depth - 1) in
      frequency
        [ (2, leaf);
          (1, map2 (fun a b -> Expr.And (a, b)) sub sub);
          (1, map2 (fun a b -> Expr.Or (a, b)) sub sub);
          (1, map (fun a -> Expr.Not a) sub);
          (1, map (fun a -> Expr.Is_null a) sub) ]
  in
  triple (pred 4) (pair int_v str_v) (pair int_v str_v)
  |> map (fun (e, (a, s), (b, t)) ->
      (e, Tuple.of_list [ a; s ], Tuple.of_list [ b; t ]))

let prop_held_compiler =
  QCheck.Test.make ~name:"held and two-tuple compilers agree" ~count:1000
    (QCheck.make
       ~print:(fun (e, x, y) ->
           Fmt.str "%a on %a, %a" Expr.pp e Tuple.pp x Tuple.pp y)
       gen_held_case)
    (fun (e, x, y) ->
       let s = Schema.concat held_left held_right in
       let t = Tuple.concat x y in
       let v = Expr.compile s e t and h = Expr.holds s e t in
       h = (v = Value.Bool true)
       && Expr.holds2 held_left held_right e x y = h
       && Expr.compile2 held_left held_right e x y = v)

let prop_value_total_order =
  let arb_value =
    QCheck.make
      ~print:Value.to_string
      QCheck.Gen.(
        oneof
          [ return Value.Null;
            map (fun b -> Value.Bool b) bool;
            map (fun i -> Value.Int i) (int_range (-5) 5);
            map (fun f -> Value.Float f) (float_range (-5.) 5.);
            map (fun s -> Value.Str s) (string_size (int_range 0 3)) ])
  in
  QCheck.Test.make ~name:"value compare is a total order" ~count:500
    (QCheck.triple arb_value arb_value arb_value)
    (fun (a, b, c) ->
       let sgn x = compare x 0 in
       (* antisymmetry *)
       sgn (Value.compare a b) = -sgn (Value.compare b a)
       (* transitivity of <= *)
       && (not (Value.compare a b <= 0 && Value.compare b c <= 0)
           || Value.compare a c <= 0))

(* The two instances of the one typing recursion agree: over random
   expressions (well- and ill-typed, with unknown, out-of-scope and
   ambiguous columns and untyped NULLs), [infer] raises exactly when
   [check] reports an error, with its first message, and otherwise
   returns [check]'s type (an undetermined one defaulting to int); the
   same for aggregates. *)
let typing_schema =
  [ Schema.column ~rel:"T" ~name:"i" ~ty:Value.Tint;
    Schema.column ~rel:"T" ~name:"f" ~ty:Value.Tfloat;
    Schema.column ~rel:"T" ~name:"s" ~ty:Value.Tstring;
    Schema.column ~rel:"T" ~name:"b" ~ty:Value.Tbool;
    Schema.column ~rel:"T" ~name:"k" ~ty:Value.Tint;
    Schema.column ~rel:"U" ~name:"k" ~ty:Value.Tstring ]

let gen_typed_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun (rel, col) -> Expr.col ~rel ~col)
          (oneofl
             [ ("T", "i"); ("T", "f"); ("T", "s"); ("T", "b"); ("", "i");
               ("U", "k"); ("", "k"); ("T", "nope"); ("X", "i") ]);
        map (fun v -> Expr.Const v)
          (oneofl
             Value.[ Null; Int 1; Float 0.5; Str "a"; Bool true ]) ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      let sub = go (depth - 1) in
      frequency
        [ (3, leaf);
          (2, map3 (fun op a b -> Expr.Binop (op, a, b))
                (oneofl Expr.[ Add; Sub; Mul; Div; Mod ]) sub sub);
          (2, map3 (fun op a b -> Expr.Cmp (op, a, b))
                (oneofl Expr.[ Eq; Lt ]) sub sub);
          (1, map2 (fun a b -> Expr.And (a, b)) sub sub);
          (1, map2 (fun a b -> Expr.Or (a, b)) sub sub);
          (1, map (fun a -> Expr.Not a) sub);
          (1, map (fun a -> Expr.Is_null a) sub) ]
  in
  go 3

let prop_typing_instances_agree =
  let agree check infer =
    let ty, errors = check () in
    match infer (), errors with
    | t, [] -> t = Option.value ty ~default:Value.Tint
    | _, _ :: _ -> false
    | exception Typing.Error m -> (
      match errors with
      | (first : Typing.error) :: _ -> first.Typing.message = m
      | [] -> false)
  in
  QCheck.Test.make ~name:"infer raises exactly when check reports" ~count:1000
    (QCheck.make ~print:Expr.to_string gen_typed_expr)
    (fun e ->
       let s = typing_schema in
       agree (fun () -> Typing.check s e) (fun () -> Typing.infer s e)
       && List.for_all
            (fun g ->
               agree (fun () -> Typing.check_agg s g)
                 (fun () -> Typing.infer_agg s g))
            Expr.[ Count e; Sum e; Min e; Avg e ])

(* ---------- query graph ---------- *)

let chain_graph n =
  let scans = List.init n (fun i -> (Printf.sprintf "R%d" (i + 1), "t")) in
  let preds =
    List.init (n - 1) (fun i ->
        Expr.Cmp
          (Expr.Eq,
           Expr.col ~rel:(Printf.sprintf "R%d" (i + 1)) ~col:"b",
           Expr.col ~rel:(Printf.sprintf "R%d" (i + 2)) ~col:"a"))
  in
  Query_graph.of_query ~scans preds

let test_query_graph_shapes () =
  Alcotest.(check bool) "chain connected" true (Query_graph.connected (chain_graph 5));
  (match Query_graph.shape (chain_graph 5) with
   | Query_graph.Chain -> ()
   | _ -> Alcotest.fail "expected chain");
  let star =
    Query_graph.of_query
      ~scans:[ ("F", "f"); ("D1", "d"); ("D2", "d"); ("D3", "d") ]
      (List.map
         (fun d ->
            Expr.Cmp (Expr.Eq, Expr.col ~rel:"F" ~col:d, Expr.col ~rel:d ~col:"id"))
         [ "D1"; "D2"; "D3" ])
  in
  (match Query_graph.shape star with
   | Query_graph.Star -> ()
   | _ -> Alcotest.fail "expected star");
  let disconnected = Query_graph.of_query ~scans:[ ("A", "a"); ("B", "b") ] [] in
  Alcotest.(check bool) "disconnected" false (Query_graph.connected disconnected)

let test_query_graph_neighbours () =
  let g = chain_graph 4 in
  Alcotest.(check (list string)) "middle node" [ "R1"; "R3" ]
    (Query_graph.neighbours g "R2");
  Alcotest.(check (list string)) "endpoint" [ "R2" ] (Query_graph.neighbours g "R1")

(* ---------- algebra ---------- *)

let test_algebra_schema () =
  let scan =
    Algebra.Scan { table = "Emp"; alias = "E";
                   schema = Schema.requalify schema_ed ~rel:"E" }
  in
  let q =
    Algebra.Project
      ([ (Expr.col ~rel:"E" ~col:"sal", "salary") ],
       Algebra.Select
         (Expr.Cmp (Expr.Gt, Expr.col ~rel:"E" ~col:"sal", Expr.int 10), scan))
  in
  let s = Algebra.schema q in
  Alcotest.(check int) "one col" 1 (Schema.arity s);
  Alcotest.(check string) "aliased" "salary" (List.hd s).Schema.name

let test_algebra_group_schema () =
  let scan =
    Algebra.Scan { table = "Emp"; alias = "E";
                   schema = Schema.requalify schema_ed ~rel:"E" }
  in
  let g =
    Algebra.Group_by
      { keys = [ (Expr.col ~rel:"E" ~col:"id", "id") ];
        aggs = [ (Expr.Avg (Expr.col ~rel:"E" ~col:"sal"), "avgsal");
                 (Expr.Count_star, "n") ];
        input = scan }
  in
  let s = Algebra.schema g in
  Alcotest.(check int) "three cols" 3 (Schema.arity s);
  Alcotest.(check bool) "avg is float" true
    ((List.nth s 1).Schema.ty = Value.Tfloat);
  Alcotest.(check bool) "count is int" true ((List.nth s 2).Schema.ty = Value.Tint)

let () =
  Alcotest.run "relalg"
    [ ("values",
       [ Alcotest.test_case "total order basics" `Quick test_value_order;
         Alcotest.test_case "sql_cmp on null" `Quick test_sql_cmp_null ]);
      ("schema",
       [ Alcotest.test_case "lookup" `Quick test_schema_lookup;
         Alcotest.test_case "requalify" `Quick test_schema_requalify ]);
      ("expr",
       [ Alcotest.test_case "arithmetic" `Quick test_expr_arith;
         Alcotest.test_case "three-valued logic" `Quick test_expr_three_valued;
         Alcotest.test_case "holds rejects unknown" `Quick test_expr_holds_rejects_unknown;
         Alcotest.test_case "column collection" `Quick test_expr_columns;
         Alcotest.test_case "aggregate folding" `Quick test_agg_fold;
         Alcotest.test_case "aggregate combine" `Quick test_agg_combine ]);
      ("pred",
       [ Alcotest.test_case "conjunct split" `Quick test_conjuncts;
         Alcotest.test_case "classification" `Quick test_classify;
         Alcotest.test_case "equi pairs orientation" `Quick test_equi_pairs ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_cnf_equivalent;
         QCheck_alcotest.to_alcotest prop_value_total_order;
         QCheck_alcotest.to_alcotest prop_held_compiler;
         QCheck_alcotest.to_alcotest prop_typing_instances_agree ]);
      ("query-graph",
       [ Alcotest.test_case "shapes" `Quick test_query_graph_shapes;
         Alcotest.test_case "neighbours" `Quick test_query_graph_neighbours ]);
      ("algebra",
       [ Alcotest.test_case "project schema" `Quick test_algebra_schema;
         Alcotest.test_case "group-by schema" `Quick test_algebra_group_schema ]) ]
