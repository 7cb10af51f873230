(* Differential tests for the columnar engine.  For every plan, at every
   point of the grid — dop 1 at chunk_rows 1, 3 and 1024 (inline
   dispatch), and dop 2 and 4 at morsel 1, 2, 3 and 16 (pooled
   dispatch) — the engine must produce bit-identical rows, in the same
   order, AND drive the Context (buffer pool page faults, CPU, spill)
   identically to the tuple-at-a-time interpreter, which remains the
   oracle.  Tiny morsels force multi-morsel execution on 5-row tables,
   so the exchange and merge machinery runs even on small inputs.

   On OCaml < 5 the pool degrades to dop 1, every node runs inline, and
   these tests check that the degradation is transparent. *)

open Relalg

let mk_catalog rs ss =
  let cat = Storage.Catalog.create () in
  let r = Storage.Catalog.create_table cat ~name:"R"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ] in
  let s = Storage.Catalog.create_table cat ~name:"S"
      ~columns:[ ("a", Value.Tint); ("c", Value.Tint) ] in
  List.iter (fun (a, b) -> Storage.Table.insert r (Tuple.of_list [ a; b ])) rs;
  List.iter (fun (a, c) -> Storage.Table.insert s (Tuple.of_list [ a; c ])) ss;
  cat

let default_r =
  [ (Value.Int 1, Value.Int 10); (Value.Int 2, Value.Int 20);
    (Value.Int 2, Value.Int 21); (Value.Int 3, Value.Int 30);
    (Value.Null, Value.Int 99) ]

let default_s =
  [ (Value.Int 2, Value.Int 200); (Value.Int 2, Value.Int 201);
    (Value.Int 3, Value.Int 300); (Value.Int 4, Value.Int 400);
    (Value.Null, Value.Int 999) ]

let scan t = Exec.Plan.Seq_scan { table = t; alias = t; filter = None }

let join_pred =
  Expr.Cmp (Expr.Eq, Expr.col ~rel:"R" ~col:"a", Expr.col ~rel:"S" ~col:"a")

let pair = ({ Expr.rel = "R"; col = "a" }, { Expr.rel = "S"; col = "a" })

let sort_on rel col input =
  Exec.Plan.Sort
    ([ { Exec.Plan.key = Expr.col ~rel ~col; descending = false } ], input)

let counters = Exec.Context.snapshot
let pp_counters = Fmt.str "%a" Exec.Context.pp_snapshot

let kinds =
  [ ("inner", Algebra.Inner); ("left_outer", Algebra.Left_outer);
    ("semi", Algebra.Semi); ("anti", Algebra.Anti) ]

(* ------------------------------------------------------------------ *)
(* The grid *)

(* One pool serves every pooled grid point; at dop 2 only two of its
   four workers may take part. *)
let pool = Domain_pool.create 4
let () = at_exit (fun () -> Domain_pool.shutdown pool)

type point = {
  label : string;
  run :
    ctx:Exec.Context.t -> Storage.Catalog.t -> Exec.Plan.t ->
    Exec.Executor.result;
}

let inline_point chunk_rows =
  { label = Printf.sprintf "dop=1 chunk_rows=%d" chunk_rows;
    run = (fun ~ctx cat plan -> Exec.Batch.run ~ctx ~chunk_rows cat plan) }

let pooled_point ~dop ~morsel =
  { label = Printf.sprintf "dop=%d morsel=%d" dop morsel;
    run =
      (fun ~ctx cat plan -> Exec.Morsel.run ~ctx ~pool ~dop ~morsel cat plan) }

let inline_grid = List.map inline_point [ 1; 3; 1024 ]

let pooled_grid =
  List.concat_map
    (fun dop -> List.map (fun morsel -> pooled_point ~dop ~morsel) [ 1; 2; 3; 16 ])
    [ 2; 4 ]

let grid = inline_grid @ pooled_grid

(* The differential harness: the interpreter and every grid point run
   [plan] with identically-configured fresh contexts; rows must match
   bit-for-bit and in order, counters must match exactly. *)
let differ ?buffer_pages ?work_mem_pages ?(points = grid) name cat plan =
  let ctx_i = Exec.Context.create ?buffer_pages ?work_mem_pages () in
  let oracle = Exec.Executor.run ~ctx:ctx_i cat plan in
  List.iter
    (fun pt ->
       let ctx = Exec.Context.create ?buffer_pages ?work_mem_pages () in
       let r = pt.run ~ctx cat plan in
       let name = Printf.sprintf "%s @ %s" name pt.label in
       Alcotest.(check int)
         (name ^ ": row count")
         (Array.length oracle.Exec.Executor.rows)
         (Array.length r.Exec.Executor.rows);
       Alcotest.(check bool)
         (name ^ ": rows identical") true
         (Array.for_all2 Tuple.equal oracle.Exec.Executor.rows
            r.Exec.Executor.rows);
       (* [Tuple.equal] is [Value.compare]-equality (Int 2 = Float 2.0);
          the engines must also agree on every cell's constructor *)
       Alcotest.(check bool)
         (name ^ ": cell identity") true
         (compare oracle.Exec.Executor.rows r.Exec.Executor.rows = 0);
       Alcotest.(check string)
         (name ^ ": counters")
         (pp_counters (counters ctx_i))
         (pp_counters (counters ctx)))
    points

(* The same comparison as a predicate, for the properties. *)
let agrees ?buffer_pages ?work_mem_pages points cat plan =
  let ctx_i = Exec.Context.create ?buffer_pages ?work_mem_pages () in
  let oracle = Exec.Executor.run ~ctx:ctx_i cat plan in
  List.for_all
    (fun pt ->
       let ctx = Exec.Context.create ?buffer_pages ?work_mem_pages () in
       let r = pt.run ~ctx cat plan in
       Array.length oracle.Exec.Executor.rows = Array.length r.Exec.Executor.rows
       && Array.for_all2 Tuple.equal oracle.Exec.Executor.rows
            r.Exec.Executor.rows
       && compare oracle.Exec.Executor.rows r.Exec.Executor.rows = 0
       && counters ctx_i = counters ctx)
    points

(* ------------------------------------------------------------------ *)
(* Operator coverage *)

let test_scans () =
  let cat = mk_catalog default_r default_s in
  ignore (Storage.Catalog.create_index cat ~table:"S" ~column:"a" ());
  differ "seq scan" cat (scan "R");
  differ "seq scan + pushed filter" cat
    (Exec.Plan.Seq_scan
       { table = "R"; alias = "R";
         filter =
           Some (Expr.Cmp (Expr.Ge, Expr.col ~rel:"R" ~col:"a", Expr.int 2)) });
  (* a NULL cell of an int column holds 0 in its data array: the
     filter must test the null bitmap first *)
  List.iter
    (fun (nm, op, k) ->
       differ ("seq scan + pushed filter on nullable " ^ nm) cat
         (Exec.Plan.Seq_scan
            { table = "R"; alias = "R";
              filter = Some (Expr.Cmp (op, Expr.col ~rel:"R" ~col:"a", Expr.int k)) }))
    [ ("a < 2", Expr.Lt, 2); ("a <> 3", Expr.Neq, 3); ("a = 0", Expr.Eq, 0) ];
  differ "index scan" cat
    (Exec.Plan.Index_scan
       { table = "S"; alias = "S"; column = "a";
         lo = Exec.Plan.Incl (Value.Int 2); hi = Exec.Plan.Excl (Value.Int 4);
         filter = None });
  differ "index scan + residual" cat
    (Exec.Plan.Index_scan
       { table = "S"; alias = "S"; column = "a"; lo = Exec.Plan.Unbounded;
         hi = Exec.Plan.Unbounded;
         filter =
           Some (Expr.Cmp (Expr.Gt, Expr.col ~rel:"S" ~col:"c", Expr.int 200))
       })

let test_scalar_ops () =
  let cat = mk_catalog default_r default_s in
  differ "filter" cat
    (Exec.Plan.Filter
       (Expr.Cmp (Expr.Ge, Expr.col ~rel:"R" ~col:"a", Expr.int 2), scan "R"));
  differ "filter empty result" cat
    (Exec.Plan.Filter
       (Expr.Cmp (Expr.Gt, Expr.col ~rel:"R" ~col:"a", Expr.int 99), scan "R"));
  differ "project" cat
    (Exec.Plan.Project
       ([ (Expr.Binop (Expr.Add, Expr.col ~rel:"R" ~col:"b", Expr.int 1), "b1");
          (Expr.col ~rel:"R" ~col:"a", "a") ],
        scan "R"));
  differ "sort asc" cat (sort_on "R" "a" (scan "R"));
  differ "sort desc multi-key" cat
    (Exec.Plan.Sort
       ([ { Exec.Plan.key = Expr.col ~rel:"R" ~col:"a"; descending = true };
          { Exec.Plan.key = Expr.col ~rel:"R" ~col:"b"; descending = false } ],
        scan "R"));
  (* computed sort key: forces the decorated path *)
  differ "sort computed key" cat
    (Exec.Plan.Sort
       ([ { Exec.Plan.key =
              Expr.Binop (Expr.Mul, Expr.col ~rel:"R" ~col:"b", Expr.int (-1));
            descending = false } ],
        scan "R"))

(* Materialize under the scalar operators: the memoized chunk feeds a
   filter's selection, a projection over that selection, and a sort. *)
let test_scalar_ops_materialized () =
  let cat = mk_catalog default_r default_s in
  differ "materialize" cat (Exec.Plan.Materialize (scan "R"));
  differ "project over sort over filter over materialize" cat
    (Exec.Plan.Project
       ( [ (Expr.Binop (Expr.Mul, Expr.col ~rel:"R" ~col:"a",
                        Expr.col ~rel:"R" ~col:"b"), "ab");
           (Expr.col ~rel:"R" ~col:"b", "b") ],
         sort_on "R" "b"
           (Exec.Plan.Filter
              ( Expr.Cmp (Expr.Le, Expr.col ~rel:"R" ~col:"b", Expr.int 30),
                Exec.Plan.Materialize (scan "R") )) ))

let test_joins () =
  let cat = mk_catalog default_r default_s in
  ignore (Storage.Catalog.create_index cat ~table:"S" ~column:"a" ());
  List.iter
    (fun (kn, kind) ->
       differ ("nested loop " ^ kn) cat
         (Exec.Plan.Nested_loop
            { kind; pred = join_pred; outer = scan "R"; inner = scan "S" });
       differ ("hash join " ^ kn) cat
         (Exec.Plan.Hash_join
            { kind; pairs = [ pair ]; residual = Expr.ftrue; left = scan "R";
              right = scan "S" });
       differ ("merge join " ^ kn) cat
         (Exec.Plan.Merge_join
            { kind; pairs = [ pair ]; residual = Expr.ftrue;
              left = sort_on "R" "a" (scan "R");
              right = sort_on "S" "a" (scan "S") });
       differ ("index-nl " ^ kn) cat
         (Exec.Plan.Index_nl
            { kind; outer = scan "R"; table = "S"; alias = "S";
              index = "idx_S_a"; columns = [ "a" ];
              outer_keys = [ Expr.col ~rel:"R" ~col:"a" ];
              residual = Expr.ftrue });
       (* generic hash path via a two-column key *)
       differ ("hash join generic " ^ kn) cat
         (Exec.Plan.Hash_join
            { kind;
              pairs =
                [ pair;
                  ({ Expr.rel = "R"; col = "b" }, { Expr.rel = "S"; col = "c" })
                ];
              residual = Expr.ftrue; left = scan "R"; right = scan "S" }))
    kinds

let test_join_residual () =
  let cat = mk_catalog default_r default_s in
  let residual =
    Expr.Cmp (Expr.Lt, Expr.col ~rel:"R" ~col:"b", Expr.col ~rel:"S" ~col:"c")
  in
  differ "hash join with residual" cat
    (Exec.Plan.Hash_join
       { kind = Algebra.Inner; pairs = [ pair ]; residual; left = scan "R";
         right = scan "S" });
  differ "merge join with residual" cat
    (Exec.Plan.Merge_join
       { kind = Algebra.Left_outer; pairs = [ pair ]; residual;
         left = sort_on "R" "a" (scan "R"); right = sort_on "S" "a" (scan "S") })

(* Non-integer keys force the generic (Value array) hash path. *)
let test_hash_join_generic_keys () =
  let cat = Storage.Catalog.create () in
  let r = Storage.Catalog.create_table cat ~name:"R"
      ~columns:[ ("a", Value.Tstring); ("b", Value.Tint) ] in
  let s = Storage.Catalog.create_table cat ~name:"S"
      ~columns:[ ("a", Value.Tstring); ("c", Value.Tint) ] in
  List.iter (fun t -> Storage.Table.insert r (Tuple.of_list t))
    [ [ Value.Str "x"; Value.Int 1 ]; [ Value.Str "y"; Value.Int 2 ];
      [ Value.Null; Value.Int 3 ]; [ Value.Str "x"; Value.Int 4 ] ];
  List.iter (fun t -> Storage.Table.insert s (Tuple.of_list t))
    [ [ Value.Str "x"; Value.Int 10 ]; [ Value.Str "z"; Value.Int 20 ];
      [ Value.Null; Value.Int 30 ] ];
  List.iter
    (fun (kn, kind) ->
       differ ("hash join string keys " ^ kn) cat
         (Exec.Plan.Hash_join
            { kind; pairs = [ pair ]; residual = Expr.ftrue; left = scan "R";
              right = scan "S" }))
    kinds

let test_empty_inputs () =
  List.iter
    (fun (nm, rs, ss) ->
       let cat = mk_catalog rs ss in
       List.iter
         (fun (kn, kind) ->
            differ (nm ^ " NL " ^ kn) cat
              (Exec.Plan.Nested_loop
                 { kind; pred = join_pred; outer = scan "R"; inner = scan "S" });
            differ (nm ^ " HJ " ^ kn) cat
              (Exec.Plan.Hash_join
                 { kind; pairs = [ pair ]; residual = Expr.ftrue;
                   left = scan "R"; right = scan "S" });
            differ (nm ^ " MJ " ^ kn) cat
              (Exec.Plan.Merge_join
                 { kind; pairs = [ pair ]; residual = Expr.ftrue;
                   left = sort_on "R" "a" (scan "R");
                   right = sort_on "S" "a" (scan "S") }))
         kinds)
    [ ("empty outer", [], default_s); ("empty inner", default_r, []);
      ("both empty", [], []) ];
  let cat = mk_catalog [] [] in
  differ "empty scan" cat (scan "R");
  (* scalar aggregate over the empty input: exactly one row *)
  differ "empty scalar agg" cat
    (Exec.Plan.Hash_agg
       { keys = [];
         aggs = [ (Expr.Count_star, "n");
                  (Expr.Sum (Expr.col ~rel:"R" ~col:"b"), "t") ];
         input = scan "R" })

let test_aggregates () =
  let cat = mk_catalog default_r default_s in
  let aggs =
    [ (Expr.Count_star, "n"); (Expr.Sum (Expr.col ~rel:"S" ~col:"c"), "total");
      (Expr.Min (Expr.col ~rel:"S" ~col:"c"), "lo");
      (Expr.Avg (Expr.col ~rel:"S" ~col:"c"), "avg") ]
  in
  differ "hash agg single int key" cat
    (Exec.Plan.Hash_agg
       { keys = [ (Expr.col ~rel:"S" ~col:"a", "a") ]; aggs; input = scan "S" });
  differ "stream agg" cat
    (Exec.Plan.Stream_agg
       { keys = [ (Expr.col ~rel:"S" ~col:"a", "a") ]; aggs;
         input = sort_on "S" "a" (scan "S") });
  differ "hash agg multi key" cat
    (Exec.Plan.Hash_agg
       { keys =
           [ (Expr.col ~rel:"S" ~col:"a", "a");
             (Expr.col ~rel:"S" ~col:"c", "c") ];
         aggs = [ (Expr.Count_star, "n") ]; input = scan "S" });
  differ "scalar agg" cat
    (Exec.Plan.Hash_agg { keys = []; aggs; input = scan "S" });
  let empty = mk_catalog [] [] in
  differ "scalar agg on empty" empty
    (Exec.Plan.Hash_agg { keys = []; aggs; input = scan "S" });
  differ "grouped agg on empty" empty
    (Exec.Plan.Hash_agg
       { keys = [ (Expr.col ~rel:"S" ~col:"a", "a") ];
         aggs = [ (Expr.Count_star, "n") ]; input = scan "S" });
  differ "distinct" cat
    (Exec.Plan.Hash_distinct
       (Exec.Plan.Project ([ (Expr.col ~rel:"S" ~col:"a", "a") ], scan "S")));
  (* over R: a NULL group key, and every aggregate function *)
  let agg input =
    { Exec.Plan.keys = [ (Expr.col ~rel:"R" ~col:"a", "a") ];
      aggs =
        [ (Expr.Count_star, "n");
          (Expr.Sum (Expr.col ~rel:"R" ~col:"b"), "t");
          (Expr.Min (Expr.col ~rel:"R" ~col:"b"), "mn");
          (Expr.Max (Expr.col ~rel:"R" ~col:"b"), "mx");
          (Expr.Avg (Expr.col ~rel:"R" ~col:"b"), "av") ];
      input }
  in
  differ "hash agg R" cat (Exec.Plan.Hash_agg (agg (scan "R")));
  differ "stream agg R" cat
    (Exec.Plan.Stream_agg (agg (sort_on "R" "a" (scan "R"))));
  differ "hash agg computed key" cat
    (Exec.Plan.Hash_agg
       { keys =
           [ (Expr.Binop (Expr.Div, Expr.col ~rel:"R" ~col:"b", Expr.int 10),
              "g") ];
         aggs = [ (Expr.Count_star, "n") ];
         input = scan "R" });
  differ "hash agg multi key R" cat
    (Exec.Plan.Hash_agg
       { keys =
           [ (Expr.col ~rel:"R" ~col:"a", "a");
             (Expr.col ~rel:"R" ~col:"b", "b") ];
         aggs = [ (Expr.Count_star, "n") ];
         input = scan "R" });
  differ "distinct R" cat
    (Exec.Plan.Hash_distinct
       (Exec.Plan.Project ([ (Expr.col ~rel:"R" ~col:"a", "a") ], scan "R")))

(* Float sums are non-associative: the exchange must fold every group's
   rows in global row order, or sums drift by ulps and this fails. *)
let test_float_sum_exact () =
  let cat = Storage.Catalog.create () in
  let t = Storage.Catalog.create_table cat ~name:"F"
      ~columns:[ ("g", Value.Tint); ("x", Value.Tfloat) ] in
  for i = 0 to 400 do
    Storage.Table.insert t
      (Tuple.of_list
         [ Value.Int (i mod 7); Value.Float (0.1 +. (float_of_int i /. 3.)) ])
  done;
  differ "float sum groups" cat
    (Exec.Plan.Hash_agg
       { keys = [ (Expr.col ~rel:"F" ~col:"g", "g") ];
         aggs =
           [ (Expr.Sum (Expr.col ~rel:"F" ~col:"x"), "s");
             (Expr.Avg (Expr.col ~rel:"F" ~col:"x"), "a") ];
         input = scan "F" });
  (* scalar float sum: single partition, still global order *)
  differ "float sum scalar" cat
    (Exec.Plan.Hash_agg
       { keys = [];
         aggs = [ (Expr.Sum (Expr.col ~rel:"F" ~col:"x"), "s") ];
         input = scan "F" });
  (* float join keys force the generic hash path; Int 2 = Float 2.0
     must still match across partitions *)
  let m = Storage.Catalog.create_table cat ~name:"M"
      ~columns:[ ("k", Value.Tfloat) ] in
  List.iter
    (fun v -> Storage.Table.insert m (Tuple.of_list [ v ]))
    [ Value.Float 2.0; Value.Int 2; Value.Float 2.5; Value.Null ];
  let n = Storage.Catalog.create_table cat ~name:"N"
      ~columns:[ ("k", Value.Tfloat) ] in
  List.iter
    (fun v -> Storage.Table.insert n (Tuple.of_list [ v ]))
    [ Value.Int 2; Value.Float 2.5; Value.Null; Value.Float 3.0 ];
  List.iter
    (fun (kn, kind) ->
       differ ("mixed int/float keys " ^ kn) cat
         (Exec.Plan.Hash_join
            { kind;
              pairs = [ ({ Expr.rel = "M"; col = "k" },
                         { Expr.rel = "N"; col = "k" }) ];
              residual = Expr.ftrue; left = scan "M"; right = scan "N" }))
    kinds

(* ------------------------------------------------------------------ *)
(* Three-valued logic at the engine seams.  The engine compiles
   specialized predicate/key paths (single-int hash keys, generic keys,
   vectorized filters); each must reproduce the interpreter's NULL
   semantics exactly: NULL join keys match nothing, comparisons against
   NULL are UNKNOWN even under NOT, and NULL group keys form one group. *)

let test_three_valued_logic () =
  (* key 0 on both sides: a NULL-as-0 encoding bug would invent matches *)
  let rs =
    [ (Value.Int 0, Value.Int 1); (Value.Null, Value.Int 2);
      (Value.Null, Value.Int 3); (Value.Int 2, Value.Int 4);
      (Value.Int 2, Value.Null) ]
  and ss =
    [ (Value.Int 0, Value.Int 10); (Value.Null, Value.Int 20);
      (Value.Int 2, Value.Int 30); (Value.Null, Value.Int 40) ]
  in
  let cat = mk_catalog rs ss in
  List.iter
    (fun (kn, kind) ->
       (* single-int fast path *)
       differ ("tvl null keys hash " ^ kn) cat
         (Exec.Plan.Hash_join
            { kind; pairs = [ pair ]; residual = Expr.ftrue;
              left = scan "R"; right = scan "S" });
       differ ("tvl null keys merge " ^ kn) cat
         (Exec.Plan.Merge_join
            { kind; pairs = [ pair ]; residual = Expr.ftrue;
              left = sort_on "R" "a" (scan "R");
              right = sort_on "S" "a" (scan "S") });
       (* two-column keys force the generic hash path *)
       differ ("tvl null generic keys " ^ kn) cat
         (Exec.Plan.Hash_join
            { kind;
              pairs =
                [ pair; ({ Expr.rel = "R"; col = "b" }, { Expr.rel = "S"; col = "c" }) ];
              residual = Expr.ftrue; left = scan "R"; right = scan "S" });
       differ ("tvl null keys NL " ^ kn) cat
         (Exec.Plan.Nested_loop
            { kind; pred = join_pred; outer = scan "R"; inner = scan "S" }))
    kinds;
  (* WHERE NOT (x = NULL): Eq yields UNKNOWN, NOT UNKNOWN stays UNKNOWN,
     so the filter must reject every row — including rows where x is
     itself NULL *)
  let x = Expr.col ~rel:"R" ~col:"a" in
  let not_eq_null =
    Expr.Not (Expr.Cmp (Expr.Eq, x, Expr.Const Value.Null))
  in
  differ "tvl NOT (x = NULL)" cat (Exec.Plan.Filter (not_eq_null, scan "R"));
  differ "tvl x = NULL" cat
    (Exec.Plan.Filter (Expr.Cmp (Expr.Eq, x, Expr.Const Value.Null), scan "R"));
  differ "tvl x <> NULL" cat
    (Exec.Plan.Filter (Expr.Cmp (Expr.Neq, x, Expr.Const Value.Null), scan "R"));
  let batch_rows plan =
    (Exec.Batch.run ~ctx:(Exec.Context.create ()) cat plan).Exec.Executor.rows
  in
  Alcotest.(check int) "NOT (x = NULL) rejects all rows" 0
    (Array.length (batch_rows (Exec.Plan.Filter (not_eq_null, scan "R"))));
  (* IS NULL is the only NULL test that selects *)
  differ "tvl x IS NULL" cat
    (Exec.Plan.Filter (Expr.Is_null x, scan "R"));
  Alcotest.(check int) "x IS NULL selects the two NULL-key rows" 2
    (Array.length (batch_rows (Exec.Plan.Filter (Expr.Is_null x, scan "R"))));
  (* NULL group keys: both NULL-key rows land in one group; COUNT(x)
     skips NULLs while COUNT star does not; SUM over all-NULL input is
     NULL not 0 *)
  let agg input =
    { Exec.Plan.keys = [ (x, "k") ];
      aggs =
        [ (Expr.Count_star, "n"); (Expr.Count x, "ca");
          (Expr.Count (Expr.col ~rel:"R" ~col:"b"), "cb");
          (Expr.Sum (Expr.col ~rel:"R" ~col:"b"), "sb");
          (Expr.Avg (Expr.col ~rel:"R" ~col:"b"), "av");
          (Expr.Min x, "mn") ];
      input }
  in
  differ "tvl null group keys hash" cat (Exec.Plan.Hash_agg (agg (scan "R")));
  differ "tvl null group keys stream" cat
    (Exec.Plan.Stream_agg (agg (sort_on "R" "a" (scan "R"))));
  Alcotest.(check int) "NULL keys collapse to one group (3 total)" 3
    (Array.length (batch_rows (Exec.Plan.Hash_agg (agg (scan "R")))));
  (* distinct treats NULL = NULL for grouping purposes *)
  differ "tvl distinct over nullable key" cat
    (Exec.Plan.Hash_distinct (Exec.Plan.Project ([ (x, "a") ], scan "R")))

(* ------------------------------------------------------------------ *)
(* Columnar-layout edge cases.  The typed column store classifies each
   column as unboxed ints, unboxed floats, or a boxed fallback, and
   filters produce selection vectors; every combination must stay
   differentially identical to the interpreter: columns that are
   entirely NULL, selection vectors that are empty, chunk granularities
   smaller than any operator's appetite, and string keys that force the
   boxed path under a selection vector. *)

let mk_str_catalog rs ss =
  let cat = Storage.Catalog.create () in
  let r = Storage.Catalog.create_table cat ~name:"R"
      ~columns:[ ("k", Value.Tstring); ("v", Value.Tint) ] in
  let s = Storage.Catalog.create_table cat ~name:"S"
      ~columns:[ ("k", Value.Tstring); ("w", Value.Tint) ] in
  List.iter (fun (k, v) -> Storage.Table.insert r (Tuple.of_list [ k; v ])) rs;
  List.iter (fun (k, w) -> Storage.Table.insert s (Tuple.of_list [ k; w ])) ss;
  cat

let composed_plan () =
  Exec.Plan.Project
    ( [ (Expr.col ~rel:"R" ~col:"a", "a");
        (Expr.col ~rel:"S" ~col:"c", "c") ],
      Exec.Plan.Sort
        ( [ { Exec.Plan.key = Expr.col ~rel:"S" ~col:"c"; descending = true } ],
          Exec.Plan.Filter
            ( Expr.Cmp (Expr.Ge, Expr.col ~rel:"S" ~col:"c", Expr.int 200),
              Exec.Plan.Hash_join
                { kind = Algebra.Inner; pairs = [ pair ];
                  residual = Expr.ftrue; left = scan "R"; right = scan "S" } )
        ) )

let test_columnar_edges () =
  (* 1. an all-NULL key column: the null bitmap is fully set, so joins
     match nothing and grouping collapses to the single NULL group *)
  List.iter
    (fun rows ->
       let cat =
         mk_catalog (List.init rows (fun i -> (Value.Null, Value.Int i))) default_s
       in
       let nm = Printf.sprintf "%d all-NULL" rows in
       List.iter
         (fun (kn, kind) ->
            differ (nm ^ " keys hash " ^ kn) cat
              (Exec.Plan.Hash_join
                 { kind; pairs = [ pair ]; residual = Expr.ftrue;
                   left = scan "R"; right = scan "S" }))
         kinds;
       differ (nm ^ " group keys") cat
         (Exec.Plan.Hash_agg
            { keys = [ (Expr.col ~rel:"R" ~col:"a", "a") ];
              aggs = [ (Expr.Count_star, "n");
                       (Expr.Sum (Expr.col ~rel:"R" ~col:"a"), "t") ];
              input = scan "R" }))
    [ 7; 9 ];
  (* an all-NULL aggregated column: SUM/AVG/MIN must come out NULL *)
  let cat2 = mk_catalog (List.init 5 (fun i -> (Value.Int i, Value.Null))) []
  in
  differ "all-NULL agg input" cat2
    (Exec.Plan.Hash_agg
       { keys = [];
         aggs = [ (Expr.Sum (Expr.col ~rel:"R" ~col:"b"), "s");
                  (Expr.Avg (Expr.col ~rel:"R" ~col:"b"), "a");
                  (Expr.Min (Expr.col ~rel:"R" ~col:"b"), "m") ];
         input = scan "R" });
  (* 2. an empty selection vector flowing into joins and aggregates: a
     filter that rejects every row leaves a chunk with len > 0 but zero
     selected positions *)
  let cat = mk_catalog default_r default_s in
  let none =
    Exec.Plan.Filter
      (Expr.Cmp (Expr.Gt, Expr.col ~rel:"R" ~col:"a", Expr.int 99), scan "R")
  in
  List.iter
    (fun (kn, kind) ->
       differ ("empty sel into hash join " ^ kn) cat
         (Exec.Plan.Hash_join
            { kind; pairs = [ pair ]; residual = Expr.ftrue; left = none;
              right = scan "S" });
       differ ("empty sel as build side " ^ kn) cat
         (Exec.Plan.Hash_join
            { kind;
              pairs =
                [ ({ Expr.rel = "S"; col = "a" }, { Expr.rel = "R"; col = "a" })
                ];
              residual = Expr.ftrue; left = scan "S"; right = none }))
    kinds;
  differ "empty sel into agg" cat
    (Exec.Plan.Hash_agg
       { keys = [ (Expr.col ~rel:"R" ~col:"a", "a") ];
         aggs = [ (Expr.Count_star, "n") ]; input = none });
  differ "empty sel into project+sort" cat
    (Exec.Plan.Project
       ([ (Expr.col ~rel:"R" ~col:"b", "b") ], sort_on "R" "b" none));
  (* 3. chunk granularity smaller than any operator's appetite must be
     invisible — rows, order, and counters *)
  List.iter
    (fun chunk_rows ->
       differ ~points:[ inline_point chunk_rows ]
         (Printf.sprintf "chunk_rows=%d composed" chunk_rows)
         cat (composed_plan ()))
    [ 1; 2; 3 ];
  (* 4. string join keys force the boxed column fallback; the filter
     underneath makes the boxed column read through a selection vector *)
  let spair = ({ Expr.rel = "R"; col = "k" }, { Expr.rel = "S"; col = "k" }) in
  List.iter
    (fun (nm, srs, sss, min_v) ->
       let scat = mk_str_catalog srs sss in
       let filtered_r =
         Exec.Plan.Filter
           (Expr.Cmp (Expr.Ge, Expr.col ~rel:"R" ~col:"v", Expr.int min_v),
            scan "R")
       in
       List.iter
         (fun (kn, kind) ->
            differ (nm ^ " string keys under selection hash " ^ kn) scat
              (Exec.Plan.Hash_join
                 { kind; pairs = [ spair ]; residual = Expr.ftrue;
                   left = filtered_r; right = scan "S" });
            differ (nm ^ " string keys under selection merge " ^ kn) scat
              (Exec.Plan.Merge_join
                 { kind; pairs = [ spair ]; residual = Expr.ftrue;
                   left = sort_on "R" "k" filtered_r;
                   right = sort_on "S" "k" (scan "S") }))
         kinds;
       differ (nm ^ " string group keys under selection") scat
         (Exec.Plan.Hash_agg
            { keys = [ (Expr.col ~rel:"R" ~col:"k", "k") ];
              aggs = [ (Expr.Count_star, "n");
                       (Expr.Max (Expr.col ~rel:"R" ~col:"v"), "m") ];
              input = filtered_r }))
    [ ( "set1",
        [ (Value.Str "ann", Value.Int 1); (Value.Str "bob", Value.Int 2);
          (Value.Str "bob", Value.Int 3); (Value.Null, Value.Int 4);
          (Value.Str "cat", Value.Int 5) ],
        [ (Value.Str "bob", Value.Int 10); (Value.Str "cat", Value.Int 20);
          (Value.Null, Value.Int 30); (Value.Str "dee", Value.Int 40) ],
        2 );
      ( "set2",
        List.mapi
          (fun i k -> (k, Value.Int i))
          [ Value.Str "ann"; Value.Str "bob"; Value.Str "bob"; Value.Null;
            Value.Str "cat"; Value.Str "dee" ],
        List.mapi
          (fun i k -> (k, Value.Int (10 * i)))
          [ Value.Str "bob"; Value.Str "cat"; Value.Null; Value.Str "eve" ],
        1 ) ]

(* ------------------------------------------------------------------ *)
(* The per-table column cache.  A scan shares its table's memoized typed
   columns ({!Storage.Table.column}); the cache is stale once the table
   has grown, and it lives on the table, so two tables never share one —
   not even two empty tables, whose row arrays are the same [[||]]. *)

let col_kind = function
  | Storage.Col.Ints _ -> "ints"
  | Storage.Col.Floats _ -> "floats"
  | Storage.Col.Boxed _ -> "boxed"

let test_table_cache () =
  List.iter
    (fun pt ->
       let nm s = Printf.sprintf "%s @ %s" s pt.label in
       let cat = mk_catalog default_r default_s in
       let r = Storage.Catalog.table cat "R" in
       let run plan =
         let ctx_i = Exec.Context.create () and ctx = Exec.Context.create () in
         let oracle = Exec.Executor.run ~ctx:ctx_i cat plan in
         let got = pt.run ~ctx cat plan in
         Alcotest.(check bool) (nm "rows = interpreter") true
           (compare oracle.Exec.Executor.rows got.Exec.Executor.rows = 0);
         Alcotest.(check string) (nm "counters = interpreter")
           (pp_counters (counters ctx_i)) (pp_counters (counters ctx));
         got.Exec.Executor.rows
       in
       let sum_b =
         Exec.Plan.Hash_agg
           { keys = []; aggs = [ (Expr.Sum (Expr.col ~rel:"R" ~col:"b"), "s") ];
             input =
               Exec.Plan.Seq_scan
                 { table = "R"; alias = "R";
                   filter =
                     Some (Expr.Cmp (Expr.Ge, Expr.col ~rel:"R" ~col:"b",
                                     Expr.int 20)) } }
       in
       Alcotest.(check int) (nm "5 rows") 5 (Array.length (run (scan "R")));
       ignore (run sum_b);
       Alcotest.(check string) (nm "R.b cached as ints") "ints"
         (col_kind (Storage.Table.column r 1));
       Storage.Table.insert r (Tuple.of_list [ Value.Int 7; Value.Int 70 ]);
       let rows = run (scan "R") in
       Alcotest.(check int) (nm "6 rows after insert") 6 (Array.length rows);
       Alcotest.(check bool) (nm "inserted row scanned") true
         (compare rows.(5) [| Value.Int 7; Value.Int 70 |] = 0);
       Alcotest.(check bool) (nm "sum sees the new row") true
         (compare (run sum_b) [| [| Value.Int 240 |] |] = 0);
       (match Storage.Table.column r 1 with
        | Storage.Col.Ints (d, _) ->
          Alcotest.(check int) (nm "typed column grew") 6 (Array.length d);
          Alcotest.(check int) (nm "typed column has 70") 70 d.(5)
        | c -> Alcotest.failf "R.b classified %s" (col_kind c));
       (* a Float after Ints: the rebuilt column is mixed, so boxed *)
       Storage.Table.insert r (Tuple.of_list [ Value.Float 2.5; Value.Null ]);
       ignore (run (scan "R"));
       ignore (run (Exec.Plan.Hash_join
                      { kind = Algebra.Inner; pairs = [ pair ];
                        residual = Expr.ftrue; left = scan "R";
                        right = scan "S" }));
       Alcotest.(check string) (nm "R.a rebuilt boxed") "boxed"
         (col_kind (Storage.Table.column r 0)))
    grid;
  (* two empty tables of different arity in one plan *)
  let cat = Storage.Catalog.create () in
  ignore
    (Storage.Catalog.create_table cat ~name:"E1" ~columns:[ ("a", Value.Tint) ]);
  ignore
    (Storage.Catalog.create_table cat ~name:"E3"
       ~columns:[ ("a", Value.Tint); ("b", Value.Tstring); ("c", Value.Tint) ]);
  let epair = ({ Expr.rel = "E3"; col = "a" }, { Expr.rel = "E1"; col = "a" }) in
  List.iter
    (fun (kn, kind) ->
       differ ("empty tables hash " ^ kn) cat
         (Exec.Plan.Hash_join
            { kind; pairs = [ epair ]; residual = Expr.ftrue; left = scan "E3";
              right = scan "E1" });
       differ ("empty tables nested loop " ^ kn) cat
         (Exec.Plan.Nested_loop
            { kind;
              pred = Expr.Cmp (Expr.Eq, Expr.col ~rel:"E1" ~col:"a",
                               Expr.col ~rel:"E3" ~col:"c");
              outer = scan "E1"; inner = scan "E3" }))
    kinds;
  differ "empty tables distinct" cat
    (Exec.Plan.Hash_distinct
       (Exec.Plan.Project
          ([ (Expr.col ~rel:"E3" ~col:"b", "b") ], scan "E3")));
  (* a temporary dropped and re-created under its name with another
     arity: the new table starts with an empty cache *)
  let tmp = Storage.Catalog.fresh_temp_name "v" in
  let mk_tmp columns rows =
    let t = Storage.Catalog.create_table cat ~name:tmp ~columns in
    List.iter (fun r -> Storage.Table.insert t (Tuple.of_list r)) rows
  in
  mk_tmp [ ("x", Value.Tint) ] [ [ Value.Int 1 ]; [ Value.Int 2 ] ];
  differ "temp table" cat (scan tmp);
  Storage.Catalog.remove_table cat tmp;
  mk_tmp
    [ ("x", Value.Tstring); ("y", Value.Tint) ]
    [ [ Value.Str "p"; Value.Int 5 ]; [ Value.Null; Value.Int 6 ];
      [ Value.Str "p"; Value.Int 7 ] ];
  differ "temp table re-created" cat
    (Exec.Plan.Hash_distinct
       (Exec.Plan.Project ([ (Expr.col ~rel:tmp ~col:"x", "x") ], scan tmp)));
  differ "temp table re-created, sorted" cat
    (Exec.Plan.Sort
       ([ { Exec.Plan.key = Expr.col ~rel:tmp ~col:"y"; descending = true } ],
        scan tmp))

(* ------------------------------------------------------------------ *)
(* Gather chains.  Join outputs are gather stores over their inputs
   (selections of the left input for semi/anti), read lazily by the
   operators above them.  Every join kind and algorithm, with and
   without a residual, feeds an integer SUM, a DISTINCT and a Sort, over
   NULL join keys, null-extended rows read through typed columns, a
   mixed Int/Float column and a three-table star. *)

let mk_gather_catalog () =
  let cat = Storage.Catalog.create () in
  let table name cols rows =
    let t =
      Storage.Catalog.create_table cat ~name
        ~columns:(List.map (fun c -> (c, Value.Tint)) cols)
    in
    List.iter (fun r -> Storage.Table.insert t (Tuple.of_list r)) rows
  in
  let i k = Value.Int k and f x = Value.Float x and null = Value.Null in
  table "R" [ "a"; "b" ]
    [ [ i 1; i 10 ]; [ i 2; i 20 ]; [ i 2; i 21 ]; [ i 3; i 30 ];
      [ null; i 99 ]; [ i 4; i 40 ]; [ i 3; null ] ];
  (* S.c mixes Int and Float: a boxed column *)
  table "S" [ "a"; "c" ]
    [ [ i 2; i 200 ]; [ i 2; f 2.5 ]; [ i 3; i 300 ]; [ null; i 999 ];
      [ i 5; f 5.5 ]; [ i 1; null ]; [ i 3; i 31 ] ];
  table "T" [ "a"; "d" ]
    [ [ i 1; i 1000 ]; [ i 2; i 2000 ]; [ i 3; null ]; [ null; i 4 ];
      [ i 2; i 2001 ] ];
  (* U.a is all Float-or-NULL: a Floats column, with -0.0 = 0.0 and a
     NaN for DISTINCT's hashing, and Int-against-Float merge keys *)
  table "U" [ "a"; "e" ]
    [ [ f 2.0; i 1 ]; [ f 3.0; i 2 ]; [ null; i 3 ]; [ f 2.0; i 4 ];
      [ f 2.5; i 5 ]; [ f 0.0; i 6 ]; [ f (-0.0); i 7 ]; [ f Float.nan; i 8 ];
      [ f Float.nan; i 9 ] ];
  ignore (Storage.Catalog.create_index cat ~table:"S" ~column:"a" ());
  ignore (Storage.Catalog.create_index cat ~table:"T" ~column:"a" ());
  ignore (Storage.Catalog.create_index cat ~table:"U" ~column:"a" ());
  cat

let c rel col = Expr.col ~rel ~col

(* [left.a = right.a] joined by every algorithm; [left] must expose
   [lrel].a, and [right] is a base table (index-NL probes its index). *)
let join_algorithms ~kind ~residual ~lrel ~left ~rrel =
  let key = ({ Expr.rel = lrel; col = "a" }, { Expr.rel = rrel; col = "a" }) in
  let eq = Expr.Cmp (Expr.Eq, c lrel "a", c rrel "a") in
  [ ( "nested loop",
      Exec.Plan.Nested_loop
        { kind; pred = Pred.of_conjuncts (eq :: Pred.conjuncts residual); outer = left;
          inner = scan rrel } );
    ( "hash",
      Exec.Plan.Hash_join
        { kind; pairs = [ key ]; residual; left; right = scan rrel } );
    ( "merge",
      Exec.Plan.Merge_join
        { kind; pairs = [ key ]; residual; left = sort_on lrel "a" left;
          right = sort_on rrel "a" (scan rrel) } );
    ( "index nl",
      Exec.Plan.Index_nl
        { kind; outer = left; table = rrel; alias = rrel;
          index = "idx_" ^ rrel ^ "_a"; columns = [ "a" ];
          outer_keys = [ c lrel "a" ]; residual } ) ]

(* SUM, DISTINCT and Sort over join [j]; [wide] when [j] keeps the right
   side's columns ([rcol] an int column of it). *)
let consumers ~wide ~rcol j =
  let r_cols = [ (c "R" "a", "a"); (c "R" "b", "b") ] in
  [ ( "sum",
      Exec.Plan.Hash_agg
        { keys = [ (c "R" "a", "a") ];
          aggs =
            (Expr.Sum (c "R" "b"), "sb") :: (Expr.Count_star, "n")
            :: (if wide then [ (Expr.Sum rcol, "sr"); (Expr.Max rcol, "mr") ]
                else []);
          input = j } );
    ( "scalar sum",
      Exec.Plan.Hash_agg
        { keys = []; aggs = [ (Expr.Sum (c "R" "b"), "s") ]; input = j } );
    ( "distinct",
      Exec.Plan.Hash_distinct
        (Exec.Plan.Project
           ((if wide then (rcol, "r") :: r_cols else r_cols), j)) );
    ( "sort",
      Exec.Plan.Sort
        ( { Exec.Plan.key = c "R" "b"; descending = true }
          :: (if wide then [ { Exec.Plan.key = rcol; descending = false } ]
              else []),
          j ) );
    ("join", j) ]

let test_gather_chains () =
  let cat = mk_gather_catalog () in
  let residuals =
    [ ("", Expr.ftrue);
      (" + residual", Expr.Cmp (Expr.Lt, c "R" "b", c "S" "c")) ]
  in
  List.iter
    (fun (kn, kind) ->
       let wide = kind = Algebra.Inner || kind = Algebra.Left_outer in
       List.iter
         (fun (rn, residual) ->
            List.iter
              (fun (an, j) ->
                 List.iter
                   (fun (cn, plan) ->
                      differ (Printf.sprintf "%s %s%s -> %s" an kn rn cn) cat plan)
                   (consumers ~wide ~rcol:(c "S" "c") j))
              (join_algorithms ~kind ~residual ~lrel:"R" ~left:(scan "R")
                 ~rrel:"S"))
         residuals;
       (* three-table star: R x S (inner, a gather store) joined to T by
          every algorithm; T.d through null extension *)
       let rs =
         Exec.Plan.Hash_join
           { kind = Algebra.Inner; pairs = [ pair ]; residual = Expr.ftrue;
             left = scan "R"; right = scan "S" }
       in
       List.iter
         (fun (an, j) ->
            List.iter
              (fun (cn, plan) ->
                 differ (Printf.sprintf "star %s %s -> %s" an kn cn) cat plan)
              (consumers ~wide ~rcol:(c "T" "d") j))
         (join_algorithms ~kind ~residual:Expr.ftrue ~lrel:"R" ~left:rs
            ~rrel:"T");
       (* Int keys against Float keys *)
       List.iter
         (fun (an, j) ->
            List.iter
              (fun (cn, plan) ->
                 differ (Printf.sprintf "int x float %s %s -> %s" an kn cn)
                   cat plan)
              (consumers ~wide ~rcol:(c "U" "e") j))
         (join_algorithms ~kind ~residual:Expr.ftrue ~lrel:"R"
            ~left:(scan "R") ~rrel:"U"))
    kinds;
  differ "float distinct" cat
    (Exec.Plan.Hash_distinct
       (Exec.Plan.Project ([ (c "U" "a", "a") ], scan "U")));
  differ "float sort" cat (sort_on "U" "a" (scan "U"));
  (* the injected NULL-key fault shows through a gather chain: under it,
     a NULL key on both sides of an int hash join matches *)
  let plan =
    Exec.Plan.Hash_agg
      { keys = []; aggs = [ (Expr.Count_star, "n"); (Expr.Sum (c "T" "d"), "s") ];
        input =
          Exec.Plan.Hash_join
            { kind = Algebra.Inner;
              pairs = [ ({ Expr.rel = "R"; col = "a" }, { Expr.rel = "T"; col = "a" }) ];
              residual = Expr.ftrue;
              left =
                Exec.Plan.Hash_join
                  { kind = Algebra.Left_outer; pairs = [ pair ];
                    residual = Expr.ftrue; left = scan "R"; right = scan "S" };
              right = scan "T" } }
  in
  let oracle = (Exec.Executor.run cat plan).Exec.Executor.rows in
  List.iter
    (fun pt ->
       let faulty =
         Fun.protect
           ~finally:(fun () -> Exec.Batch.fault_null_key_as_zero := false)
           (fun () ->
              Exec.Batch.fault_null_key_as_zero := true;
              (pt.run ~ctx:(Exec.Context.create ()) cat plan).Exec.Executor.rows)
       in
       Alcotest.(check bool)
         ("injected fault diverges @ " ^ pt.label) true
         (compare oracle faulty <> 0))
    grid

(* ------------------------------------------------------------------ *)
(* Cost-accounting-specific scenarios *)

(* The engine computes a nested loop's inner ONCE and replays its
   page-access pattern for the remaining outer tuples.  With a buffer pool
   smaller than the inner table, every rescan must fault identically to
   the interpreter's genuine re-execution — even without Materialize. *)
let test_rescan_faults_identically () =
  let rs = List.init 40 (fun i -> (Value.Int (i mod 5), Value.Int i)) in
  let ss = List.init 200 (fun i -> (Value.Int (i mod 5), Value.Int i)) in
  let cat = mk_catalog rs ss in
  differ ~buffer_pages:2 "NL rescan, tiny buffer" cat
    (Exec.Plan.Nested_loop
       { kind = Algebra.Inner; pred = join_pred; outer = scan "R";
         inner = scan "S" });
  (* inner with work above the scan: filter cpu + sort spill recharge too *)
  differ ~buffer_pages:2 ~work_mem_pages:1 "NL rescan over sort+filter" cat
    (Exec.Plan.Nested_loop
       { kind = Algebra.Inner; pred = join_pred; outer = scan "R";
         inner =
           Exec.Plan.Sort
             ([ { Exec.Plan.key = Expr.col ~rel:"S" ~col:"c";
                  descending = false } ],
              Exec.Plan.Filter
                (Expr.Cmp (Expr.Ge, Expr.col ~rel:"S" ~col:"c", Expr.int 3),
                 scan "S")) })

let test_materialize_counters () =
  let cat = mk_catalog default_r default_s in
  differ ~buffer_pages:2 "materialized NL inner" cat
    (Exec.Plan.Nested_loop
       { kind = Algebra.Inner; pred = join_pred; outer = scan "R";
         inner = Exec.Plan.Materialize (scan "S") });
  (* the engine must still scan S exactly once *)
  let ctx = Exec.Context.create ~buffer_pages:2 () in
  ignore
    (Exec.Batch.run ~ctx cat
       (Exec.Plan.Nested_loop
          { kind = Algebra.Inner; pred = join_pred; outer = scan "R";
            inner = Exec.Plan.Materialize (scan "S") }));
  Alcotest.(check int) "materialized inner scanned once" 2
    ctx.Exec.Context.seq_io

let test_sort_spill_accounting () =
  let rs = List.init 2000 (fun i -> (Value.Int (i * 7 mod 1000), Value.Int i)) in
  let cat = mk_catalog rs [] in
  differ ~work_mem_pages:2 "external sort spills identically" cat
    (sort_on "R" "a" (scan "R"));
  (* hash build side over work_mem: Grace partitioning spill *)
  let ss = List.init 1500 (fun i -> (Value.Int (i mod 50), Value.Int i)) in
  let cat2 = mk_catalog (List.init 100 (fun i -> (Value.Int (i mod 50), Value.Int i))) ss in
  differ ~work_mem_pages:2 "hash join spills identically" cat2
    (Exec.Plan.Hash_join
       { kind = Algebra.Inner; pairs = [ pair ]; residual = Expr.ftrue;
         left = scan "R"; right = scan "S" })

(* ------------------------------------------------------------------ *)
(* Composed plans: lint-clean under the static verifier, and still
   differentially identical. *)

let test_composed_lint_clean () =
  let cat = mk_catalog default_r default_s in
  let plan = composed_plan () in
  Alcotest.(check int) "lint-clean" 0 (List.length (Verify.physical cat plan));
  differ "composed plan" cat plan

(* ------------------------------------------------------------------ *)
(* Parallel machinery *)

(* Extra dops and morsel sizes beyond the grid, each with a pool of its
   own; and a 4-worker pool run at dop 2, where only workers 0 and 1 may
   do any work. *)
let test_dop_grid () =
  let cat = mk_catalog default_r default_s in
  let plan = composed_plan () in
  differ "composed" cat plan
    ~points:
      (List.map
         (fun (dop, morsel) ->
            { label = Printf.sprintf "owned pool dop=%d morsel=%d" dop morsel;
              run =
                (fun ~ctx cat plan -> Exec.Morsel.run ~ctx ~dop ~morsel cat plan) })
         [ (1, 1); (2, 1); (2, 3); (4, 2); (8, 2); (16, 7) ]);
  let obs = Exec.Instrument.create plan in
  ignore
    (Exec.Morsel.run ~ctx:(Exec.Context.create ()) ~obs ~pool ~dop:2 ~morsel:1
       cat plan);
  let pars =
    List.filter_map (fun o -> o.Exec.Instrument.par) (Exec.Instrument.ops obs)
  in
  if Domain_pool.available then
    Alcotest.(check bool) "some operator ran parallel phases" true (pars <> []);
  List.iter
    (fun (pr : Exec.Instrument.par) ->
       Alcotest.(check int) "par dop" 2 pr.Exec.Instrument.par_dop;
       Array.iteri
         (fun w rows ->
            if w >= 2 then begin
              Alcotest.(check int) (Printf.sprintf "rows on worker %d" w) 0 rows;
              Alcotest.(check (float 0.)) (Printf.sprintf "time on worker %d" w)
                0. pr.Exec.Instrument.worker_wall.(w)
            end)
         pr.Exec.Instrument.worker_rows)
    pars;
  List.iter
    (fun (t : Exec.Instrument.task) ->
       Alcotest.(check bool)
         (Printf.sprintf "task on worker %d < 2" t.Exec.Instrument.t_worker)
         true (t.Exec.Instrument.t_worker < 2))
    (Exec.Instrument.timeline obs)

(* Inline and pooled nodes in one plan: a schedule that pins every other
   node to dop 1 makes those nodes walk [chunk_rows] ranges while the
   rest spread morsels — granulation and the mix must be invisible. *)
let test_mixed_dispatch () =
  let cat = mk_catalog default_r default_s in
  let plan = composed_plan () in
  let pinned = List.filteri (fun i _ -> i mod 2 = 0) (Exec.Plan.preorder plan) in
  let schedule p = if List.memq p pinned then 1 else 4 in
  differ "composed, alternate nodes inline" cat plan
    ~points:
      (List.concat_map
         (fun chunk_rows ->
            List.map
              (fun (dop, schedule) ->
                 { label =
                     Printf.sprintf "dop=%d chunk_rows=%d morsel=8%s" dop
                       chunk_rows
                       (if schedule = None then "" else " alternating");
                   run =
                     (fun ~ctx cat plan ->
                        Exec.Morsel.run ~ctx ~pool ~dop ~morsel:8 ?schedule
                          ~chunk_rows cat plan) })
              [ (4, None); (4, Some schedule); (2, Some schedule) ])
         [ 1; 2; 3 ])

(* Spills and a tiny buffer pool: charge ordering against the stateful
   LRU must survive parallel execution. *)
let test_spill_and_pool () =
  let rs =
    List.init 300 (fun i -> (Value.Int (i mod 17), Value.Int i))
  in
  let ss =
    List.init 200 (fun i -> (Value.Int (i mod 13), Value.Int (1000 + i)))
  in
  let cat = mk_catalog rs ss in
  differ "spilling hash join" ~buffer_pages:4 ~work_mem_pages:2 cat
    (Exec.Plan.Hash_join
       { kind = Algebra.Inner; pairs = [ pair ]; residual = Expr.ftrue;
         left = scan "R"; right = scan "S" });
  differ "spilling sort" ~buffer_pages:4 ~work_mem_pages:2 cat
    (sort_on "R" "b" (scan "R"));
  differ "nested loop rescan charging" ~buffer_pages:4 ~work_mem_pages:2 cat
    (Exec.Plan.Nested_loop
       { kind = Algebra.Semi; pred = join_pred;
         outer = scan "R"; inner = Exec.Plan.Materialize (scan "S") })

(* A larger input: many morsels per operator, real domain fan-out. *)
let test_larger_input () =
  let rs = List.init 5000 (fun i -> (Value.Int (i mod 97), Value.Int i)) in
  let ss =
    List.init 3000 (fun i -> (Value.Int (i mod 89), Value.Int (i * 3)))
  in
  let cat = mk_catalog rs ss in
  let plans =
    [ ("scan+filter",
       Exec.Plan.Seq_scan
         { table = "R"; alias = "R";
           filter =
             Some
               (Expr.Cmp (Expr.Lt, Expr.col ~rel:"R" ~col:"a", Expr.int 40))
         });
      ("hash join",
       Exec.Plan.Hash_join
         { kind = Algebra.Inner; pairs = [ pair ]; residual = Expr.ftrue;
           left = scan "R"; right = scan "S" });
      ("hash agg",
       Exec.Plan.Hash_agg
         { keys = [ (Expr.col ~rel:"R" ~col:"a", "a") ];
           aggs =
             [ (Expr.Count_star, "n");
               (Expr.Sum (Expr.col ~rel:"R" ~col:"b"), "t") ];
           input = scan "R" });
      ("sort", sort_on "R" "b" (scan "R"));
      ("distinct",
       Exec.Plan.Hash_distinct
         (Exec.Plan.Project ([ (Expr.col ~rel:"R" ~col:"a", "a") ], scan "R")))
    ]
  in
  List.iter
    (fun (name, plan) ->
       differ name cat plan ~points:(pooled_point ~dop:4 ~morsel:256 :: grid))
    plans

let test_par_stats () =
  let rs = List.init 500 (fun i -> (Value.Int (i mod 7), Value.Int i)) in
  let cat = mk_catalog rs [] in
  (* a bare scan shares the table's array view without parallel work, so
     push a keep-everything filter: its selection runs on the workers *)
  let plan =
    Exec.Plan.Seq_scan
      { table = "R"; alias = "R";
        filter = Some (Expr.Cmp (Expr.Ge, Expr.col ~rel:"R" ~col:"b",
                                 Expr.int 0)) }
  in
  let obs = Exec.Instrument.create plan in
  let ctx = Exec.Context.create () in
  ignore (Exec.Morsel.run ~ctx ~obs ~dop:4 ~morsel:16 cat plan);
  match Exec.Instrument.lookup obs plan with
  | None -> Alcotest.fail "scan op not found"
  | Some o ->
    Alcotest.(check int) "act_rows" 500 o.Exec.Instrument.act_rows;
    if Domain_pool.available then begin
      match o.Exec.Instrument.par with
      | None -> Alcotest.fail "expected par stats at dop 4"
      | Some p ->
        Alcotest.(check int) "par dop" 4 p.Exec.Instrument.par_dop;
        Alcotest.(check int) "worker rows sum to scanned rows" 500
          (Array.fold_left ( + ) 0 p.Exec.Instrument.worker_rows);
        Alcotest.(check bool) "some worker busy time recorded" true
          (Array.exists (fun w -> w >= 0.) p.Exec.Instrument.worker_wall)
    end

(* A schedule pinning every node to dop 1 must run inline (no par
   stats) and still be exact. *)
let test_schedule_sequential () =
  let rs = List.init 200 (fun i -> (Value.Int (i mod 7), Value.Int i)) in
  let cat = mk_catalog rs [] in
  let plan = scan "R" in
  let obs = Exec.Instrument.create plan in
  let ctx = Exec.Context.create () in
  let r =
    Exec.Morsel.run ~ctx ~obs ~dop:4 ~morsel:16 ~schedule:(fun _ -> 1) cat
      plan
  in
  Alcotest.(check int) "rows" 200 (Array.length r.Exec.Executor.rows);
  (match Exec.Instrument.lookup obs plan with
   | Some o ->
     Alcotest.(check bool) "no par stats when scheduled at 1" true
       (o.Exec.Instrument.par = None)
   | None -> Alcotest.fail "op missing");
  let ctx_i = Exec.Context.create () in
  ignore (Exec.Executor.run ~ctx:ctx_i cat plan);
  Alcotest.(check string) "counters still exact"
    (pp_counters (counters ctx_i))
    (pp_counters (counters ctx))

(* ------------------------------------------------------------------ *)
(* Domain_pool unit tests *)

let test_pool_basic () =
  Domain_pool.with_pool 4 (fun pool ->
      let n = 1000 in
      let out = Array.make n 0 in
      Domain_pool.run pool ~tasks:n (fun ~worker:_ i -> out.(i) <- i * i);
      Alcotest.(check bool) "all tasks ran" true
        (Array.for_all (fun x -> x >= 0) out);
      let ok = ref true in
      Array.iteri (fun i x -> if x <> i * i then ok := false) out;
      Alcotest.(check bool) "task results correct" true !ok;
      (* capped workers still complete every task *)
      let out2 = Array.make n 0 in
      Domain_pool.run pool ~workers:1 ~tasks:n (fun ~worker i ->
          Alcotest.(check int) "workers:1 runs inline" 0 worker;
          out2.(i) <- i + 1);
      Alcotest.(check int) "capped run complete" ((n * (n + 1)) / 2)
        (Array.fold_left ( + ) 0 out2);
      (* zero tasks is a no-op *)
      Domain_pool.run pool ~tasks:0 (fun ~worker:_ _ -> assert false));
  (* dop accounting *)
  Domain_pool.with_pool 1 (fun p ->
      Alcotest.(check int) "dop 1 pool" 1 (Domain_pool.dop p));
  if Domain_pool.available then
    Domain_pool.with_pool 3 (fun p ->
        Alcotest.(check int) "dop 3 pool" 3 (Domain_pool.dop p))

exception Boom

let test_pool_exception () =
  Domain_pool.with_pool 4 (fun pool ->
      let raised =
        try
          Domain_pool.run pool ~tasks:100 (fun ~worker:_ i ->
              if i = 57 then raise Boom);
          false
        with Boom -> true
      in
      Alcotest.(check bool) "task exception propagates" true raised;
      (* the pool survives a failed job *)
      let sum = ref 0 in
      let m = Mutex.create () in
      Domain_pool.run pool ~tasks:100 (fun ~worker:_ i ->
          Mutex.lock m;
          sum := !sum + i;
          Mutex.unlock m);
      Alcotest.(check int) "pool usable after failure" 4950 !sum)

let test_pool_reuse () =
  (* many sequential jobs against one pool: the wake/quiesce protocol
     must not lose tasks or deadlock *)
  Domain_pool.with_pool 4 (fun pool ->
      for round = 1 to 50 do
        let n = 17 * round mod 97 in
        let hits = Array.make (max 1 n) 0 in
        Domain_pool.run pool ~tasks:n (fun ~worker:_ i ->
            hits.(i) <- hits.(i) + 1);
        for i = 0 to n - 1 do
          if hits.(i) <> 1 then
            Alcotest.failf "round %d: task %d ran %d times" round i hits.(i)
        done
      done)

(* ------------------------------------------------------------------ *)
(* Properties: on random inputs, every plan shape is differentially
   identical — rows, order, and counters. *)

let arb_rows =
  QCheck.(list_of_size Gen.(int_range 0 30)
            (pair (int_range 0 6) (int_range 0 60)))

let random_plans (rs, ss) =
  let mk (a, b) = (Value.Int a, Value.Int b) in
  let cat = mk_catalog (List.map mk rs) (List.map mk ss) in
  let plans =
    List.map
      (fun (_, kind) ->
         Exec.Plan.Nested_loop
           { kind; pred = join_pred; outer = scan "R"; inner = scan "S" })
      kinds
    @ List.map
        (fun (_, kind) ->
           Exec.Plan.Hash_join
             { kind; pairs = [ pair ]; residual = Expr.ftrue;
               left = scan "R"; right = scan "S" })
        kinds
    @ List.map
        (fun (_, kind) ->
           Exec.Plan.Merge_join
             { kind; pairs = [ pair ]; residual = Expr.ftrue;
               left = sort_on "R" "a" (scan "R");
               right = sort_on "S" "a" (scan "S") })
        kinds
    @ [ Exec.Plan.Hash_agg
          { keys = [ (Expr.col ~rel:"R" ~col:"a", "a") ];
            aggs = [ (Expr.Count_star, "n");
                     (Expr.Sum (Expr.col ~rel:"R" ~col:"b"), "t") ];
            input = scan "R" };
        Exec.Plan.Hash_distinct
          (Exec.Plan.Project
             ([ (Expr.col ~rel:"R" ~col:"a", "a") ], scan "R"));
        composed_plan () ]
  in
  (cat, plans)

let prop_inline_differential =
  QCheck.Test.make ~name:"batch engine matches interpreter" ~count:50
    (QCheck.pair arb_rows arb_rows)
    (fun input ->
       let cat, plans = random_plans input in
       List.for_all
         (agrees ~buffer_pages:4 ~work_mem_pages:2 inline_grid cat)
         plans)

let prop_pooled_differential =
  QCheck.Test.make ~name:"morsel engine matches batch on random inputs"
    ~count:40
    (QCheck.pair arb_rows arb_rows)
    (fun input ->
       let cat, plans = random_plans input in
       List.for_all
         (agrees ~buffer_pages:4 ~work_mem_pages:2 pooled_grid cat)
         plans)

(* Mixed Int/Float/Null cells in one column exercise the classifier's
   Floats and Boxed layouts; project-over-filter reads expressions
   through a selection vector.  Small chunk and morsel sizes shift every
   range boundary. *)

let arb_mixed_rows =
  let cell =
    QCheck.Gen.(frequency
                  [ (4, map (fun i -> Value.Int i) (int_range 0 6));
                    (2, map (fun f -> Value.Float (float_of_int f /. 2.))
                         (int_range 0 12));
                    (1, return Value.Null) ])
  in
  QCheck.make
    QCheck.Gen.(list_size (int_range 0 30) (pair cell cell))
    ~print:(fun l ->
        String.concat ";"
          (List.map
             (fun (a, b) ->
                Printf.sprintf "(%s,%s)" (Value.to_string a)
                  (Value.to_string b))
             l))

let prop_columnar_differential =
  QCheck.Test.make ~name:"columnar layouts match interpreter" ~count:60
    (QCheck.pair arb_mixed_rows (QCheck.make QCheck.Gen.(int_range 1 5)))
    (fun (rs, size) ->
       let cat = mk_catalog rs [] in
       let a = Expr.col ~rel:"R" ~col:"a"
       and b = Expr.col ~rel:"R" ~col:"b" in
       let filtered =
         Exec.Plan.Filter (Expr.Cmp (Expr.Ge, a, Expr.int 2), scan "R")
       in
       let grouped =
         Exec.Plan.Hash_agg
           { keys = [ (a, "a") ];
             aggs = [ (Expr.Count_star, "n"); (Expr.Sum b, "s") ];
             input = filtered }
       in
       (* Sub, Div and Mod items — a constant-0 divisor, and a divisor
          column holding zeros — over a child with a row view (the
          filtered scan) and one with typed columns (the aggregate) *)
       let arith x y =
         [ (Expr.Binop (Expr.Sub, x, y), "d");
           (Expr.Binop (Expr.Div, x, Expr.int 0), "q0");
           (Expr.Binop (Expr.Div, x, y), "q");
           (Expr.Binop (Expr.Mod, x, y), "m");
           (Expr.Binop (Expr.Mod, y, Expr.int 3), "m3") ]
       in
       let g c = Expr.col ~rel:"" ~col:c in
       let plans =
         [ Exec.Plan.Project
             ( [ (Expr.Binop (Expr.Add, b, Expr.int 1), "b1"); (a, "a") ],
               filtered );
           Exec.Plan.Project
             ([ (Expr.Binop (Expr.Mul, a, b), "ab") ], filtered);
           Exec.Plan.Project (arith a b, filtered);
           Exec.Plan.Project (arith (g "a") (g "s"), grouped);
           sort_on "R" "b" filtered;
           grouped;
           (* adjacency grouping on the mixed Int/Float/NULL key *)
           Exec.Plan.Stream_agg
             { keys = [ (a, "a") ];
               aggs =
                 [ (Expr.Count_star, "n"); (Expr.Sum b, "s");
                   (Expr.Avg b, "v"); (Expr.Min b, "lo") ];
               input = sort_on "R" "a" filtered };
           Exec.Plan.Hash_distinct (Exec.Plan.Project ([ (a, "a") ], filtered))
         ]
       in
       List.for_all
         (agrees [ inline_point size; pooled_point ~dop:4 ~morsel:size ] cat)
         plans)

(* ------------------------------------------------------------------ *)
(* End-to-end: the pipeline under both engine configs agrees on rows and
   counters for optimized multi-join queries. *)

let test_pipeline_engines_agree () =
  let w = Workload.Schemas.emp_dept ~emps:800 ~depts:40 () in
  let cat = w.Workload.Schemas.cat and db = w.Workload.Schemas.db in
  let sqls =
    [ "SELECT Emp.name, Dept.name FROM Emp, Dept \
       WHERE Emp.did = Dept.did AND Emp.sal > 50000";
      "SELECT Dept.name, COUNT(*), SUM(Emp.sal) FROM Emp, Dept \
       WHERE Emp.did = Dept.did GROUP BY Dept.name";
      "SELECT DISTINCT Dept.loc FROM Dept ORDER BY Dept.loc" ]
  in
  List.iter
    (fun sql ->
       let q = Sql.Binder.query_of_string cat sql in
       let run engine =
         let ctx = Exec.Context.create () in
         let config = { Core.Pipeline.default_config with engine } in
         let result, _ = Core.Pipeline.run_query ~ctx ~config cat db q in
         (result, counters ctx)
       in
       let ri, ci = run `Interpreted in
       let rb, cb = run `Batch in
       Alcotest.(check int)
         (sql ^ ": rows") (Array.length ri.Exec.Executor.rows)
         (Array.length rb.Exec.Executor.rows);
       Alcotest.(check bool)
         (sql ^ ": identical rows") true
         (Array.for_all2 Tuple.equal ri.Exec.Executor.rows
            rb.Exec.Executor.rows);
       Alcotest.(check string)
         (sql ^ ": counters") (pp_counters ci) (pp_counters cb))
    sqls

(* Full pipeline at config.dop 4 (two-phase schedule, pooled dispatch)
   vs dop 1 (inline) over fuzz-generated databases and queries —
   Zipfian keys, NULL fractions, empty tables, ORDER BY, subqueries.
   Full equality (rows in order + counters) subsumes the multiset and
   sortedness requirements. *)
let prop_pipeline_dop =
  QCheck.Test.make ~name:"pipeline dop=4 matches dop=1 exactly" ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
       let spec, ast = Fuzz.Gen.case ~seed in
       let run dop =
         (* fresh catalog per run: planning materializes view temps *)
         let cat, db = Fuzz.Dbspec.build spec in
         let q = Sql.Binder.bind_query cat ast in
         let ctx = Exec.Context.create () in
         let config =
           { Core.Pipeline.default_config with dop; morsel_rows = 16 }
         in
         let result, _ = Core.Pipeline.run_query ~ctx ~config cat db q in
         (result, counters ctx)
       in
       match run 1 with
       | exception _ -> QCheck.assume_fail ()
       | r1, c1 ->
         let r4, c4 = run 4 in
         Array.length r1.Exec.Executor.rows
         = Array.length r4.Exec.Executor.rows
         && Array.for_all2 Tuple.equal r1.Exec.Executor.rows
              r4.Exec.Executor.rows
         && c1 = c4)

(* Two suites: Alcotest shortens test names to fit beside the widest
   group label of a run, so the engine groups run apart from the
   parallel ones and keep their full names.  A failure in the first
   raises, so the executable still exits non-zero. *)
let () =
  Alcotest.run ~and_exit:false "columnar"
    [ ("operators",
       [ Alcotest.test_case "scans" `Quick test_scans;
         Alcotest.test_case "filter/project/sort" `Quick test_scalar_ops;
         Alcotest.test_case "filter/project/sort/materialize" `Quick
           test_scalar_ops_materialized;
         Alcotest.test_case "joins, all algorithms and kinds" `Quick test_joins;
         Alcotest.test_case "join residuals" `Quick test_join_residual;
         Alcotest.test_case "generic hash keys" `Quick
           test_hash_join_generic_keys;
         Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
         Alcotest.test_case "aggregates + distinct" `Quick test_aggregates;
         Alcotest.test_case "float exactness + mixed keys" `Quick
           test_float_sum_exact;
         Alcotest.test_case "three-valued logic" `Quick
           test_three_valued_logic;
         Alcotest.test_case "columnar layout edges" `Quick
           test_columnar_edges;
         Alcotest.test_case "table column cache" `Quick test_table_cache;
         Alcotest.test_case "gather chains" `Quick test_gather_chains ]);
      ("cost accounting",
       [ Alcotest.test_case "rescan faults identically" `Quick
           test_rescan_faults_identically;
         Alcotest.test_case "materialize" `Quick test_materialize_counters;
         Alcotest.test_case "sort/hash spill" `Quick
           test_sort_spill_accounting ]);
      ("composed",
       [ Alcotest.test_case "lint-clean composed plan" `Quick
           test_composed_lint_clean;
         QCheck_alcotest.to_alcotest prop_inline_differential;
         QCheck_alcotest.to_alcotest prop_columnar_differential ]);
      ("pipeline",
       [ Alcotest.test_case "engines agree end-to-end" `Quick
           test_pipeline_engines_agree ]) ];
  Alcotest.run "columnar parallel"
    [ ("parallel machinery",
       [ Alcotest.test_case "dop/morsel grid" `Quick test_dop_grid;
         Alcotest.test_case "columnar layout edges" `Quick test_mixed_dispatch;
         Alcotest.test_case "spill + buffer pool" `Quick test_spill_and_pool;
         Alcotest.test_case "larger input" `Quick test_larger_input;
         Alcotest.test_case "per-worker stats" `Quick test_par_stats;
         Alcotest.test_case "sequential schedule" `Quick
           test_schedule_sequential ]);
      ("domain pool",
       [ Alcotest.test_case "basic" `Quick test_pool_basic;
         Alcotest.test_case "exceptions" `Quick test_pool_exception;
         Alcotest.test_case "reuse" `Quick test_pool_reuse ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_pooled_differential;
         QCheck_alcotest.to_alcotest prop_pipeline_dop ]) ]
