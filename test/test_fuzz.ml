(* Tests for the differential fuzzer itself: generator determinism, the
   SQL round-trip property, a bounded smoke run over the full oracle
   grid, replay of the checked-in corpus, and the acceptance check that a
   deliberately injected engine bug is caught and shrunk to a tiny
   repro. *)

(* dune runs tests from _build/default/test; fall back to the source path
   when run from the repo root by hand. *)
let corpus_dir =
  List.find_opt Sys.file_exists
    [ "../fuzz/corpus"; "fuzz/corpus"; "../../../fuzz/corpus" ]

(* ------------------------------------------------------------------ *)
(* Determinism: a case is a pure function of its seed. *)

let test_determinism () =
  List.iter
    (fun seed ->
       let db1, q1 = Fuzz.Gen.case ~seed in
       let db2, q2 = Fuzz.Gen.case ~seed in
       Alcotest.(check bool)
         (Printf.sprintf "seed %d: identical database" seed)
         true
         (Fuzz.Dbspec.equal db1 db2);
       Alcotest.(check string)
         (Printf.sprintf "seed %d: identical SQL" seed)
         (Sql.Printer.query_to_string q1)
         (Sql.Printer.query_to_string q2))
    [ 1; 7; 42; 1000; 99991; 123456 ];
  (* and seeds actually vary the workload *)
  let sqls =
    List.init 20 (fun i ->
        let _, q = Fuzz.Gen.case ~seed:(i + 1) in
        Sql.Printer.query_to_string q)
  in
  Alcotest.(check bool)
    "different seeds generate different queries" true
    (List.length (List.sort_uniq compare sqls) > 10)

(* ------------------------------------------------------------------ *)
(* Round-trip property: print -> re-parse -> re-bind -> structurally
   equal bound tree.  This is the sql-roundtrip oracle in isolation, on
   more seeds than the smoke run covers. *)

let test_roundtrip () =
  for seed = 1 to 150 do
    let spec, q = Fuzz.Gen.case ~seed in
    let cat, _ = Fuzz.Dbspec.build spec in
    let bound = Sql.Binder.bind_query cat q in
    let sql = Sql.Printer.query_to_string q in
    match Sql.Parser.parse sql with
    | [ Sql.Ast.Select_stmt q' ] ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: bound trees equal after round-trip" seed)
        true
        (bound = Sql.Binder.bind_query cat q')
    | _ ->
      Alcotest.failf "seed %d: printed SQL is not a single SELECT: %s" seed
        sql
    | exception e ->
      Alcotest.failf "seed %d: printed SQL does not re-parse (%s): %s" seed
        (Printexc.to_string e) sql
  done

(* ------------------------------------------------------------------ *)
(* Bounded fuzz smoke: the full grid over a fixed seed band must be
   divergence-free. *)

let test_smoke () =
  let failures = Fuzz.Driver.run_range ~seed:1 60 in
  List.iter
    (fun (fc : Fuzz.Driver.failure_case) ->
       Alcotest.failf "seed %d diverged: %s\n%s" fc.Fuzz.Driver.seed
         (Format.asprintf "%a" Fuzz.Oracle.pp_failure fc.Fuzz.Driver.failure)
         (Fuzz.Repro.to_string fc.Fuzz.Driver.repro))
    failures;
  Alcotest.(check int) "no divergences over seeds 1..60" 0
    (List.length failures)

(* ------------------------------------------------------------------ *)
(* Corpus replay: every checked-in repro passes the full grid. *)

let test_corpus () =
  match corpus_dir with
  | None -> Alcotest.fail "fuzz/corpus not found from the test directory"
  | Some dir ->
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".repro")
      |> List.sort compare
    in
    Alcotest.(check bool) "corpus is non-empty" true (files <> []);
    List.iter
      (fun f ->
         let r = Fuzz.Repro.load (Filename.concat dir f) in
         match Fuzz.Repro.replay r with
         | None -> ()
         | Some failure ->
           Alcotest.failf "%s: %s" f
             (Format.asprintf "%a" Fuzz.Oracle.pp_failure failure))
      files

(* ------------------------------------------------------------------ *)
(* No silent fallback: under the default rewrites every block the
   generator produces — correlated scalar aggregates in grouped blocks
   included — is planned, never handed to the tuple interpreter. *)

let test_all_planned () =
  for seed = 1 to 1000 do
    let spec, ast = Fuzz.Gen.case ~seed in
    let cat, db = Fuzz.Dbspec.build spec in
    let _, reports =
      Core.Pipeline.run_query cat db (Sql.Binder.bind_query cat ast)
    in
    List.iter
      (fun (r : Core.Pipeline.report) ->
         if r.Core.Pipeline.path <> Core.Pipeline.Planned then
           Alcotest.failf "seed %d: block interpreted (%s): %s" seed
             (Option.value ~default:"?"
                (Core.Pipeline.fallback_reason r.Core.Pipeline.rewritten))
             (Sql.Printer.query_to_string ast))
      reports
  done

(* ------------------------------------------------------------------ *)
(* Acceptance: injecting a NULL-join-key bug into the batch engine's
   single-int hash path is (a) caught by the multiset oracle, (b) shrunk
   to at most 3 relations, and (c) the saved repro text round-trips and
   replays red with the fault on, green with it off. *)

let test_injected_fault_caught () =
  let found =
    Fun.protect
      ~finally:(fun () -> Exec.Batch.fault_null_key_as_zero := false)
      (fun () ->
         Exec.Batch.fault_null_key_as_zero := true;
         Fuzz.Driver.run_range ~max_failures:1 ~seed:1 300)
  in
  match found with
  | [] -> Alcotest.fail "injected NULL-key fault not caught in seeds 1..300"
  | fc :: _ ->
    Alcotest.(check string) "caught by the multiset oracle" "multiset"
      fc.Fuzz.Driver.failure.Fuzz.Oracle.oracle;
    Alcotest.(check bool) "shrunk to at most 3 relations" true
      (Fuzz.Gen.relation_count fc.Fuzz.Driver.query <= 3);
    (* serialized repro round-trips *)
    let text = Fuzz.Repro.to_string fc.Fuzz.Driver.repro in
    let r = Fuzz.Repro.of_string text in
    Alcotest.(check string) "repro text round-trips" text
      (Fuzz.Repro.to_string r);
    (* red with the fault, green without *)
    let with_fault =
      Fun.protect
        ~finally:(fun () -> Exec.Batch.fault_null_key_as_zero := false)
        (fun () ->
           Exec.Batch.fault_null_key_as_zero := true;
           Fuzz.Repro.replay r)
    in
    Alcotest.(check bool) "repro fails while the fault is injected" true
      (with_fault <> None);
    Alcotest.(check bool) "repro passes once the fault is removed" true
      (Fuzz.Repro.replay r = None)

let () =
  Alcotest.run "fuzz"
    [ ("generator",
       [ Alcotest.test_case "determinism" `Quick test_determinism;
         Alcotest.test_case "sql round-trip" `Quick test_roundtrip ]);
      ("differential",
       [ Alcotest.test_case "smoke: seeds 1..60, full grid" `Quick
           test_smoke;
         Alcotest.test_case "corpus replay" `Quick test_corpus;
         Alcotest.test_case "seeds 1..1000 all planned" `Quick
           test_all_planned ]);
      ("acceptance",
       [ Alcotest.test_case "injected fault caught and shrunk" `Quick
           test_injected_fault_caught ]) ]
