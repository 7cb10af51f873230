(* Plan-identity golden: prints one line per optimization over a grid of
   join graphs and configurations — the winning plan's shape, its cost to
   17 significant digits, a structural digest of the whole plan (every
   predicate, residual and index probe, not just the shape) and the
   enumeration counters.  The test diffs the output against
   plan_golden.expected, so any drift in the chosen plan, a cost tie-break
   or an enumeration count fails it; the property tests elsewhere compare
   costs only.

   Grid, System-R (Join_order): chain, cycle, star and clique for
   n = 4..8; left-deep and bushy; interesting orders on and off;
   [default_config] and [system_r_1979]; with and without ORDER BY R1.a.
   A second data variant (n = 4..6, larger tables) adds indexes
   (single-column and composite), filters, a theta conjunct and a
   three-relation conjunct, so index nested loops, residuals and
   hyperedges are covered too.  Naive and Cascades run the same graphs
   for n <= 6.

   Regenerate (only when a plan change is intended) with
     dune exec test/plan_golden.exe > test/plan_golden.expected *)

open Relalg

let shapes =
  Workload.Schemas.
    [ (Chain_q, "chain"); (Cycle_q, "cycle"); (Star_q, "star");
      (Clique_q, "clique") ]

let col rel c = Expr.Col { Expr.rel; col = c }

(* The plain graphs of [join_shape] (120 rows), or the rich variant (2000
   rows, so index probes can beat scans): indexes on every odd relation's
   [a] and a composite (b, a) index on every third, a [c] filter on every
   even relation, a theta conjunct R1.c < R2.c and a three-relation
   conjunct R1.a + R2.b = R3.c. *)
let pieces ~rich ~shape ~n =
  let rows = if rich then 2000 else 120 in
  let p = Workload.Schemas.join_shape ~rows ~shape ~n () in
  let cat = p.Workload.Schemas.jcat in
  if not rich then (cat, p.Workload.Schemas.jdb, p)
  else begin
    List.iteri
      (fun i (_, table) ->
         if i mod 2 = 1 then
           ignore (Storage.Catalog.create_index cat ~table ~column:"a" ());
         if i mod 3 = 0 then
           ignore
             (Storage.Catalog.create_index cat ~table ~columns:[ "b"; "a" ] ()))
      p.Workload.Schemas.relations;
    let filters =
      List.filteri (fun i _ -> i mod 2 = 0) p.Workload.Schemas.relations
      |> List.mapi (fun i (alias, _) ->
          Expr.Cmp (Expr.Lt, col alias "c", Expr.Const (Value.Int (20 + i))))
    in
    let extra =
      [ Expr.Cmp (Expr.Lt, col "R1" "c", col "R2" "c");
        Expr.Cmp
          (Expr.Eq, Expr.Binop (Expr.Add, col "R1" "a", col "R2" "b"),
           col "R3" "c") ]
    in
    ( cat,
      Stats.Table_stats.analyze_catalog cat,
      { p with
        Workload.Schemas.predicates =
          p.Workload.Schemas.predicates @ extra @ filters } )
  end

let spj cat (p : Workload.Schemas.join_pieces) ~ordered =
  Systemr.Spj.make
    ~order_by:
      (if ordered then [ ({ Expr.rel = "R1"; col = "a" }, Algebra.Asc) ]
       else [])
    ~relations:
      (List.map
         (fun (alias, table) ->
            { Systemr.Spj.alias; table;
              schema =
                Schema.requalify
                  (Storage.Catalog.table cat table).Storage.Table.schema
                  ~rel:alias })
         p.Workload.Schemas.relations)
    ~predicates:p.Workload.Schemas.predicates ()

(* Compact operator tree: enough to read a diff; the digest covers the
   rest. *)
let rec shape_of (p : Exec.Plan.t) =
  match p with
  | Exec.Plan.Seq_scan { alias; _ } -> alias
  | Exec.Plan.Index_scan { alias; column; _ } -> alias ^ "[" ^ column ^ "]"
  | Exec.Plan.Sort (_, i) -> "Sort(" ^ shape_of i ^ ")"
  | Exec.Plan.Materialize i -> "Mat(" ^ shape_of i ^ ")"
  | Exec.Plan.Project (_, i) -> "Proj(" ^ shape_of i ^ ")"
  | Exec.Plan.Nested_loop { outer; inner; _ } ->
    "NL(" ^ shape_of outer ^ "," ^ shape_of inner ^ ")"
  | Exec.Plan.Index_nl { outer; alias; index; _ } ->
    "INL(" ^ shape_of outer ^ "," ^ alias ^ "." ^ index ^ ")"
  | Exec.Plan.Merge_join { left; right; _ } ->
    "SMJ(" ^ shape_of left ^ "," ^ shape_of right ^ ")"
  | Exec.Plan.Hash_join { left; right; _ } ->
    "HJ(" ^ shape_of left ^ "," ^ shape_of right ^ ")"
  | p -> Exec.Plan.describe p

let digest (p : Exec.Plan.t) =
  String.sub
    (Digest.to_hex (Digest.string (Marshal.to_string p [ Marshal.No_sharing ])))
    0 12

let line label (c : Systemr.Candidate.t) counts =
  Printf.printf "%s cost=%.17g plan=%s digest=%s %s\n" label
    c.Systemr.Candidate.cost (shape_of c.Systemr.Candidate.plan)
    (digest c.Systemr.Candidate.plan) counts

let methods = [ ("default", Systemr.Join_order.default_config);
                ("sr1979", Systemr.Join_order.system_r_1979) ]

let () =
  List.iter
    (fun rich ->
       let ns = if rich then [ 4; 5; 6 ] else [ 4; 5; 6; 7; 8 ] in
       List.iter
         (fun (shape, sname) ->
            List.iter
              (fun n ->
                 let cat, db, p = pieces ~rich ~shape ~n in
                 List.iter
                   (fun ordered ->
                      let q = spj cat p ~ordered in
                      let case =
                        Printf.sprintf "%s%s n=%d%s" sname
                          (if rich then "+idx" else "") n
                          (if ordered then " orderby" else "")
                      in
                      List.iter
                        (fun (mname, base) ->
                           List.iter
                             (fun bushy ->
                                List.iter
                                  (fun interesting_orders ->
                                     let config =
                                       { base with
                                         Systemr.Join_order.bushy;
                                         interesting_orders }
                                     in
                                     let r =
                                       Systemr.Join_order.optimize ~config cat
                                         db q
                                     in
                                     let c = r.Systemr.Join_order.counters in
                                     line
                                       (Printf.sprintf "systemr %s %s %s io=%b"
                                          case mname
                                          (if bushy then "bushy" else "linear")
                                          interesting_orders)
                                       r.Systemr.Join_order.best
                                       (Printf.sprintf
                                          "subsets=%d splits=%d costed=%d \
                                           pruned=%d"
                                          c.Systemr.Join_order.subsets
                                          c.Systemr.Join_order.splits
                                          c.Systemr.Join_order.costed
                                          c.Systemr.Join_order.pruned))
                                  [ true; false ])
                             [ false; true ];
                           if n <= 6 then begin
                             let r = Systemr.Naive.optimize ~config:base cat db q in
                             line
                               (Printf.sprintf "naive %s %s" case mname)
                               r.Systemr.Naive.best
                               (Printf.sprintf "costed=%d sequences=%d"
                                  r.Systemr.Naive.plans_costed
                                  r.Systemr.Naive.sequences);
                             let config =
                               { Cascades.Search.join_config =
                                   { base with bushy = true } }
                             in
                             let r = Cascades.Search.optimize ~config cat db q in
                             line
                               (Printf.sprintf "cascades %s %s" case mname)
                               r.Cascades.Search.best
                               (Printf.sprintf "groups=%d exprs=%d costed=%d"
                                  r.Cascades.Search.groups
                                  r.Cascades.Search.exprs
                                  r.Cascades.Search.plans_costed)
                           end)
                        methods)
                   [ false; true ])
              ns)
         shapes)
    [ false; true ]
