(* Join-enumeration benchmark: graph-aware csg–cmp enumeration vs the
   all-masks/all-splits enumerator ([Join_order.exhaustive]).

   Before any timing, the harness proves the fast enumerator equivalent on
   every benchmarked shape: at the pre-check size both enumerators must
   agree on the final plan cost and cost exactly the same splits and
   candidates (across bushy/left-deep, interesting orders on/off, with and
   without a required output order), and every plan the fast enumerator
   emits must pass the [Verify.physical] lint.  Any violation exits 1, so
   a speedup can never come from a search-space hole.

   Results go to BENCH_opt.json: per shape (chain, cycle, star, clique) ×
   mode (left-deep, bushy) × n, the fast enumerator's wall clock, its
   effort counters (DP subsets, splits considered, candidates costed,
   candidates the Pareto sets dominated) and the minor-heap words one
   fast optimization allocates (deterministic on one domain, unlike the
   clock).  The old enumerator is timed for bushy rows only, up to a
   cutoff (bushy splits grow as 3^n): in left-deep mode [exhaustive]
   runs the same walk.  Untimed rows report it as null.

   Usage: enum_bench [--smoke] [--out FILE]
     --smoke   n ≤ 6, single repetition — a CI liveness check (the
               equivalence pre-check still runs in full at the smoke
               sizes), no timing claims
     --out     output path (default BENCH_opt.json) *)

open Relalg

type scale = {
  reps : int;
  precheck_n : int;
  ns : int list;  (** timed sizes (chain / cycle / star) *)
  clique_ns : int list;
}

let full = { reps = 3; precheck_n = 8; ns = [ 4; 8; 12; 16 ];
             clique_ns = [ 4; 6; 8; 10 ] }
let smoke = { reps = 1; precheck_n = 6; ns = [ 4; 6 ]; clique_ns = [ 4; 6 ] }

let shapes =
  [ ("chain", Workload.Schemas.Chain_q); ("cycle", Workload.Schemas.Cycle_q);
    ("star", Workload.Schemas.Star_q); ("clique", Workload.Schemas.Clique_q) ]

(* The old enumerator's bushy split loop walks all 3^n (mask, submask)
   pairs; cap it where that stays under a few seconds.  The new
   enumerator runs at every size. *)
let old_cutoff ~shape = match shape with "clique" -> 10 | _ -> 12

let optimize config (p : Workload.Schemas.join_pieces) q =
  Systemr.Join_order.optimize ~config p.Workload.Schemas.jcat
    p.Workload.Schemas.jdb q

(* ------------------------------------------------------------------ *)
(* Equivalence pre-check (runs before any timing) *)

let check_equivalence ~n shape_name shape =
  let p = Workload.Schemas.join_shape ~rows:300 ~shape ~n () in
  let order_bys =
    [ ("none", []);
      ("R1.a", [ ({ Expr.rel = "R1"; col = "a" }, Algebra.Asc) ]) ]
  in
  List.iter
    (fun bushy ->
       List.iter
         (fun interesting_orders ->
            List.iter
              (fun (ob_name, order_by) ->
                 let q = Util.spj_of_pieces ~order_by p in
                 let fast_cfg =
                   { Systemr.Join_order.default_config with
                     bushy; interesting_orders }
                 in
                 let fast = optimize fast_cfg p q in
                 let slow =
                   optimize (Systemr.Join_order.exhaustive fast_cfg) p q
                 in
                 let cf = fast.Systemr.Join_order.best.Systemr.Candidate.cost
                 and cs = slow.Systemr.Join_order.best.Systemr.Candidate.cost in
                 let tol = 1e-6 *. Float.max 1. (Float.max cf cs) in
                 let label =
                   Printf.sprintf "%s n=%d %s io=%b order=%s" shape_name n
                     (if bushy then "bushy" else "left-deep")
                     interesting_orders ob_name
                 in
                 if Float.abs (cf -. cs) > tol then begin
                   Printf.eprintf
                     "FAIL %s: fast cost %.6f <> exhaustive cost %.6f\n"
                     label cf cs;
                   exit 1
                 end;
                 let ef = fast.Systemr.Join_order.counters
                 and es = slow.Systemr.Join_order.counters in
                 if
                   ef.Systemr.Join_order.splits <> es.Systemr.Join_order.splits
                   || ef.Systemr.Join_order.costed
                      <> es.Systemr.Join_order.costed
                 then begin
                   Printf.eprintf
                     "FAIL %s: fast splits/costed %d/%d <> exhaustive %d/%d\n"
                     label ef.Systemr.Join_order.splits
                     ef.Systemr.Join_order.costed es.Systemr.Join_order.splits
                     es.Systemr.Join_order.costed;
                   exit 1
                 end;
                 let diags =
                   Verify.physical p.Workload.Schemas.jcat
                     fast.Systemr.Join_order.best.Systemr.Candidate.plan
                 in
                 if Verify.Diag.has_errors diags then begin
                   Fmt.epr "FAIL %s: plan lint errors: %a@." label
                     Verify.Diag.pp_list diags;
                   exit 1
                 end)
              order_bys)
         [ true; false ])
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Timing *)

(* best-of-[reps] wall clock; returns (seconds, minor-heap words the last
   run allocated, last result).  The word count is the same on every run
   of a deterministic [f] on one domain. *)
let time_runs reps f =
  let best = ref infinity and last = ref None and words = ref 0. in
  for _ = 1 to reps do
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let t0 = Obs.Clock.now () in
    let r = f () in
    let dt = Obs.Clock.now () -. t0 in
    words := Gc.minor_words () -. w0;
    if dt < !best then best := dt;
    last := Some r
  done;
  match !last with None -> assert false | Some r -> (!best, !words, r)

type row = {
  shape : string;
  mode : string;  (* "left-deep" | "bushy" *)
  n : int;
  new_s : float;
  minor_words : float;  (* allocated by one fast optimization *)
  old_s : float option;
      (* None for left-deep rows and beyond the old enumerator's cutoff *)
  analysis_s : float;
      (* abstract-interpretation pass over the winning plan: the cost the
         [analysis] pipeline option adds on top of optimization *)
  counters : Systemr.Join_order.counters;
}

let speedup r =
  match r.old_s with
  | Some o when r.new_s > 0. -> Some (o /. r.new_s)
  | _ -> None

let bench_point ~reps ~shape_name ~shape ~bushy ~n : row =
  let p = Workload.Schemas.join_shape ~rows:300 ~shape ~n () in
  let q = Util.spj_of_pieces p in
  let fast_cfg =
    { Systemr.Join_order.default_config with bushy }
  in
  let new_s, minor_words, res =
    time_runs reps (fun () -> optimize fast_cfg p q)
  in
  let old_s =
    if bushy && n <= old_cutoff ~shape:shape_name then
      let slow_cfg = Systemr.Join_order.exhaustive fast_cfg in
      let s, _, _ = time_runs reps (fun () -> optimize slow_cfg p q) in
      Some s
    else None
  in
  let best = res.Systemr.Join_order.best.Systemr.Candidate.plan in
  let analysis_s, _, _ =
    time_runs reps (fun () ->
        Analysis.Absint.annotate_plan ~db:p.Workload.Schemas.jdb
          p.Workload.Schemas.jcat best)
  in
  { shape = shape_name; mode = (if bushy then "bushy" else "left-deep"); n;
    new_s; minor_words; old_s; analysis_s;
    counters = res.Systemr.Join_order.counters }

let bench_all (sc : scale) : row list =
  List.concat_map
    (fun (shape_name, shape) ->
       let ns = if shape_name = "clique" then sc.clique_ns else sc.ns in
       List.concat_map
         (fun bushy ->
            List.map
              (fun n ->
                 bench_point ~reps:sc.reps ~shape_name ~shape ~bushy ~n)
              ns)
         [ false; true ])
    shapes

(* ------------------------------------------------------------------ *)
(* Output *)

let json_of_rows ~smoke ~precheck_n (rows : row list) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"smoke\": %b,\n  \"reps\": \"best-of\",\n\
       \  \"equivalence_precheck\": {\"n\": %d, \"shapes\": [%s], \
        \"modes\": [\"left-deep\", \"bushy\"], \
        \"interesting_orders\": [true, false], \
        \"order_by\": [\"none\", \"R1.a\"], \
        \"cost_equal_to_exhaustive\": true, \
        \"splits_costed_equal_to_exhaustive\": true, \
        \"plans_lint_clean\": true},\n"
       smoke precheck_n
       (String.concat ", "
          (List.map (fun (s, _) -> Printf.sprintf "%S" s) shapes)));
  (match
     List.find_opt
       (fun r -> r.shape = "chain" && r.mode = "bushy" && r.n = 12)
       rows
   with
   | Some r ->
     (match speedup r with
      | Some s ->
        Buffer.add_string b
          (Printf.sprintf "  \"chain12_bushy_speedup\": %.2f,\n" s)
      | None -> ())
   | None -> ());
  let max_pct =
    List.fold_left
      (fun acc r ->
         if r.new_s > 0. then Float.max acc (100. *. r.analysis_s /. r.new_s)
         else acc)
      0. rows
  in
  let total_pct =
    let an = List.fold_left (fun acc r -> acc +. r.analysis_s) 0. rows
    and opt = List.fold_left (fun acc r -> acc +. r.new_s) 0. rows in
    if opt > 0. then 100. *. an /. opt else 0.
  in
  Buffer.add_string b
    (Printf.sprintf
       "  \"analysis_overhead_total_pct\": %.2f,\n\
       \  \"analysis_overhead_max_pct\": %.2f,\n"
       total_pct max_pct);
  Buffer.add_string b "  \"points\": [\n";
  List.iteri
    (fun i r ->
       let c = r.counters in
       Buffer.add_string b
         (Printf.sprintf
            "    {\"shape\": %S, \"mode\": %S, \"n\": %d, \
             \"new_s\": %.6f, \"minor_words\": %.0f, \"old_s\": %s, \
             \"speedup\": %s, \
             \"analysis_s\": %.6f, \"analysis_pct\": %.2f, \
             \"subsets\": %d, \"splits\": %d, \"costed\": %d, \
             \"pruned\": %d}%s\n"
            r.shape r.mode r.n r.new_s r.minor_words
            (match r.old_s with
             | Some s -> Printf.sprintf "%.6f" s
             | None -> "null")
            (match speedup r with
             | Some s -> Printf.sprintf "%.2f" s
             | None -> "null")
            r.analysis_s
            (if r.new_s > 0. then 100. *. r.analysis_s /. r.new_s else 0.)
            c.Systemr.Join_order.subsets c.Systemr.Join_order.splits
            c.Systemr.Join_order.costed c.Systemr.Join_order.pruned
            (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let () =
  let smoke_flag = ref false and out = ref "BENCH_opt.json" in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest -> smoke_flag := true; parse rest
    | "--out" :: f :: rest -> out := f; parse rest
    | a :: _ -> Printf.eprintf "unknown argument: %s\n" a; exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let sc = if !smoke_flag then smoke else full in
  List.iter
    (fun (shape_name, shape) ->
       check_equivalence ~n:sc.precheck_n shape_name shape;
       Printf.printf "precheck %-6s n=%d: fast = exhaustive (cost, splits, \
                      costed), plans lint clean\n%!" shape_name sc.precheck_n)
    shapes;
  let rows = bench_all sc in
  Printf.printf "%-6s %-9s %3s %10s %12s %10s %8s %9s %8s %8s %8s %8s\n"
    "shape" "mode" "n" "new_s" "minor_words" "old_s" "speedup" "anlys%"
    "subsets" "splits" "costed" "pruned";
  List.iter
    (fun r ->
       let c = r.counters in
       Printf.printf
         "%-6s %-9s %3d %10.4f %12.0f %10s %8s %8.2f%% %8d %8d %8d %8d\n"
         r.shape r.mode r.n r.new_s r.minor_words
         (match r.old_s with
          | Some s -> Printf.sprintf "%.4f" s
          | None -> "-")
         (match speedup r with
          | Some s -> Printf.sprintf "%.1fx" s
          | None -> "-")
         (if r.new_s > 0. then 100. *. r.analysis_s /. r.new_s else 0.)
         c.Systemr.Join_order.subsets c.Systemr.Join_order.splits
         c.Systemr.Join_order.costed c.Systemr.Join_order.pruned)
    rows;
  let oc = open_out !out in
  output_string oc (json_of_rows ~smoke:!smoke_flag ~precheck_n:sc.precheck_n rows);
  close_out oc;
  Printf.printf
    "wrote %s (equivalence pre-check passed for every shape)\n" !out
