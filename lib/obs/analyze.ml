(* EXPLAIN ANALYZE rendering: for every block of a query's span tree, the
   annotated plan tree with estimated vs actual cardinalities, q-error,
   rescans and exclusive counter deltas per operator, plus a per-plan
   max-q-error summary. *)

module I = Exec.Instrument

(* q-error, the standard multiplicative estimation-error metric:
   max(est/act, act/est).  Both zero -> 1 (a correct zero estimate);
   exactly one zero -> infinite (the unbounded-error case — Chaudhuri's
   "provably error-prone" distinct estimates land here). *)
let q_error ~est ~act =
  if est <= 0. && act <= 0. then 1.0
  else if est <= 0. || act <= 0. then infinity
  else Float.max (est /. act) (act /. est)

let op_q_error (o : I.op) : float option =
  if not o.I.executed then None
  else
    match o.I.est_rows with
    | None -> None
    | Some est -> Some (q_error ~est ~act:(float_of_int o.I.act_rows))

(* Worst estimate among operators that actually executed. *)
let max_q_error (r : I.t) : (float * I.op) option =
  List.fold_left
    (fun acc o ->
       match op_q_error o with
       | None -> acc
       | Some q -> (
         match acc with
         | Some (best, _) when best >= q -> acc
         | _ -> Some (q, o)))
    None (I.ops r)

let pp_q ppf q =
  if Float.is_finite q then Fmt.pf ppf "%.2f" q else Fmt.string ppf "inf"

let pp_est ppf = function
  | None -> Fmt.string ppf "?"
  | Some e -> Fmt.pf ppf "%.1f" e

let op_line ~show_wall depth (o : I.op) : string =
  let pad = String.make (2 * depth) ' ' in
  let s = o.I.self in
  let head =
    Fmt.str "[%2d] %s%s" o.I.id pad (Exec.Plan.describe o.I.node)
  in
  let metrics =
    if not o.I.executed then "never executed"
    else
      Fmt.str "est=%a act=%d q=%a rescans=%d %a%s" pp_est o.I.est_rows
        o.I.act_rows
        Fmt.(option ~none:(any "?") pp_q)
        (op_q_error o) o.I.rescans Exec.Context.pp_snapshot s
        (if show_wall then Fmt.str " wall=%.3fms" (o.I.wall_s *. 1000.)
         else "")
  in
  Fmt.str "%-52s  %s" head metrics

(* Per-worker actuals of a morsel-parallel operator.  Which worker got
   which morsel is scheduling-dependent, so this line — like wall-clock —
   only appears under [show_wall]. *)
let par_line depth (p : I.par) : string =
  let pad = String.make (2 * depth) ' ' in
  Fmt.str "     %s  par: dop=%d rows=[%s] busy=[%s]ms" pad p.I.par_dop
    (String.concat " "
       (Array.to_list (Array.map string_of_int p.I.worker_rows)))
    (String.concat " "
       (Array.to_list
          (Array.map (fun w -> Fmt.str "%.3f" (w *. 1000.)) p.I.worker_wall)))

(* One recorder's plan as an indented tree, one operator per line. *)
let render_plan ~show_wall (r : I.t) : string =
  let b = Buffer.create 512 in
  let rec walk depth (p : Exec.Plan.t) =
    (match I.lookup r p with
     | None -> ()
     | Some o ->
       Buffer.add_string b (op_line ~show_wall depth o);
       Buffer.add_char b '\n';
       match o.I.par with
       | Some pr when show_wall ->
         Buffer.add_string b (par_line depth pr);
         Buffer.add_char b '\n'
       | _ -> ());
    List.iter (walk (depth + 1)) (Exec.Plan.children p)
  in
  (match I.ops r with
   | [] -> ()
   | root :: _ -> walk 0 root.I.node);
  (match max_q_error r with
   | None -> ()
   | Some (q, o) ->
     Buffer.add_string b
       (Fmt.str "max q-error: %a at op %d (%s)\n" pp_q q o.I.id
          (Exec.Plan.describe o.I.node)));
  Buffer.contents b

(* Every [block] span under [root] in order: its execute span's recorder
   rendered as a plan, or the interpreter-fallback line when the block
   ran without a plan.  UNION arms get a header each. *)
let render ?(show_wall = true) (root : Span.t) : string =
  let blocks = Span.named root "block" in
  let many = List.length blocks > 1 in
  String.concat ""
    (List.mapi
       (fun i blk ->
          (if many then Printf.sprintf "-- union arm %d\n" (i + 1) else "")
          ^
          match Span.recorders blk with
          | r :: _ -> render_plan ~show_wall r
          | [] ->
            "(correlated query: tuple-iteration interpreter — no \
             per-operator statistics)\n")
       blocks)
