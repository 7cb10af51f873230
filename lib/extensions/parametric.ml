(* Parametric query optimization (Section 7.4, after Ioannidis et al. [33]
   and Graefe/Ward's dynamic plans [19]): when a query contains a runtime
   parameter, defer the final plan choice — optimize at several candidate
   parameter values, keep the distinct plans, and dispatch on the actual
   value at execution time.

   Plans are deduplicated by *shape*: the plan with every literal constant
   blanked out, so two instantiations of the same strategy count once. *)

open Relalg

(* Blank out literal constants so structurally identical strategies compare
   equal. *)
let blank_expr : Expr.t -> Expr.t =
  Expr.map (function Expr.Const _ -> Expr.Const Value.Null | e -> e)

let blank_bound : Exec.Plan.bound -> Exec.Plan.bound = function
  | Exec.Plan.Unbounded -> Exec.Plan.Unbounded
  | Exec.Plan.Incl _ | Exec.Plan.Excl _ -> Exec.Plan.Incl Value.Null

let rec shape (p : Exec.Plan.t) : Exec.Plan.t =
  match p with
  | Exec.Plan.Seq_scan { table; alias; filter } ->
    Exec.Plan.Seq_scan { table; alias; filter = Option.map blank_expr filter }
  | Exec.Plan.Index_scan { table; alias; column; lo; hi; filter } ->
    Exec.Plan.Index_scan
      { table; alias; column; lo = blank_bound lo; hi = blank_bound hi;
        filter = Option.map blank_expr filter }
  | Exec.Plan.Filter (e, i) -> Exec.Plan.Filter (blank_expr e, shape i)
  | Exec.Plan.Project (items, i) ->
    Exec.Plan.Project (List.map (fun (e, a) -> (blank_expr e, a)) items, shape i)
  | Exec.Plan.Sort (k, i) -> Exec.Plan.Sort (k, shape i)
  | Exec.Plan.Materialize i -> Exec.Plan.Materialize (shape i)
  | Exec.Plan.Nested_loop { kind; pred; outer; inner } ->
    Exec.Plan.Nested_loop
      { kind; pred = blank_expr pred; outer = shape outer; inner = shape inner }
  | Exec.Plan.Index_nl { kind; outer; table; alias; index; columns; outer_keys; residual } ->
    Exec.Plan.Index_nl
      { kind; outer = shape outer; table; alias; index; columns; outer_keys;
        residual = blank_expr residual }
  | Exec.Plan.Merge_join { kind; pairs; residual; left; right } ->
    Exec.Plan.Merge_join
      { kind; pairs; residual = blank_expr residual; left = shape left;
        right = shape right }
  | Exec.Plan.Hash_join { kind; pairs; residual; left; right } ->
    Exec.Plan.Hash_join
      { kind; pairs; residual = blank_expr residual; left = shape left;
        right = shape right }
  | Exec.Plan.Hash_agg { keys; aggs; input } ->
    Exec.Plan.Hash_agg { keys; aggs; input = shape input }
  | Exec.Plan.Stream_agg { keys; aggs; input } ->
    Exec.Plan.Stream_agg { keys; aggs; input = shape input }
  | Exec.Plan.Hash_distinct i -> Exec.Plan.Hash_distinct (shape i)

let shape_key p = Exec.Plan.to_string (shape p)

type t = {
  samples : (Value.t * Exec.Plan.t * float) list;
  (* sorted by parameter; (value, plan optimized there, estimated cost) *)
  shapes : int; (* distinct plan shapes across the parameter space *)
}

(* Optimize the parameterized query at each candidate parameter value. *)
let optimize ?(config = Systemr.Join_order.default_config) cat db
    ~(param_values : Value.t list) (make_query : Value.t -> Systemr.Spj.t) : t
  =
  let samples =
    List.map
      (fun v ->
         let res = Systemr.Join_order.optimize ~config cat db (make_query v) in
         ( v,
           res.Systemr.Join_order.best.Systemr.Candidate.plan,
           res.Systemr.Join_order.best.Systemr.Candidate.cost ))
      (List.sort Value.compare param_values)
  in
  let shapes =
    List.map (fun (_, p, _) -> shape_key p) samples
    |> List.sort_uniq String.compare |> List.length
  in
  { samples; shapes }

(* Runtime dispatch: the plan optimized at the nearest sampled parameter at
   or below the actual value (clamping at the extremes). *)
let plan_for (t : t) (v : Value.t) : Exec.Plan.t =
  match t.samples with
  | [] -> invalid_arg "Parametric.plan_for: no samples"
  | (_, first, _) :: _ ->
    let best =
      List.fold_left
        (fun acc (sv, plan, _) ->
           if Value.compare sv v <= 0 then Some plan else acc)
        None t.samples
    in
    Option.value best ~default:first

(* The plan a conventional optimizer would pick: optimized once at a fixed
   "expected" parameter value. *)
let static_plan ?(config = Systemr.Join_order.default_config) cat db
    (make_query : Value.t -> Systemr.Spj.t) ~(assumed : Value.t) :
  Exec.Plan.t =
  (Systemr.Join_order.optimize ~config cat db (make_query assumed))
    .Systemr.Join_order.best.Systemr.Candidate.plan

(* Re-bind the literal parameter inside a plan: replaces every occurrence
   of [assumed] with [actual] in filters and index bounds, so a static plan
   can be executed at a different parameter value. *)
let rec rebind ~(assumed : Value.t) ~(actual : Value.t) (p : Exec.Plan.t) :
  Exec.Plan.t =
  let re_expr =
    Expr.map (function
      | Expr.Const v when Value.equal v assumed -> Expr.Const actual
      | e -> e)
  in
  let re_bound = function
    | Exec.Plan.Incl v when Value.equal v assumed -> Exec.Plan.Incl actual
    | Exec.Plan.Excl v when Value.equal v assumed -> Exec.Plan.Excl actual
    | b -> b
  in
  let go = rebind ~assumed ~actual in
  match p with
  | Exec.Plan.Seq_scan { table; alias; filter } ->
    Exec.Plan.Seq_scan { table; alias; filter = Option.map re_expr filter }
  | Exec.Plan.Index_scan { table; alias; column; lo; hi; filter } ->
    Exec.Plan.Index_scan
      { table; alias; column; lo = re_bound lo; hi = re_bound hi;
        filter = Option.map re_expr filter }
  | Exec.Plan.Filter (e, i) -> Exec.Plan.Filter (re_expr e, go i)
  | Exec.Plan.Project (items, i) -> Exec.Plan.Project (items, go i)
  | Exec.Plan.Sort (k, i) -> Exec.Plan.Sort (k, go i)
  | Exec.Plan.Materialize i -> Exec.Plan.Materialize (go i)
  | Exec.Plan.Nested_loop { kind; pred; outer; inner } ->
    Exec.Plan.Nested_loop
      { kind; pred = re_expr pred; outer = go outer; inner = go inner }
  | Exec.Plan.Index_nl { kind; outer; table; alias; index; columns; outer_keys; residual } ->
    Exec.Plan.Index_nl
      { kind; outer = go outer; table; alias; index; columns; outer_keys;
        residual = re_expr residual }
  | Exec.Plan.Merge_join { kind; pairs; residual; left; right } ->
    Exec.Plan.Merge_join
      { kind; pairs; residual = re_expr residual; left = go left;
        right = go right }
  | Exec.Plan.Hash_join { kind; pairs; residual; left; right } ->
    Exec.Plan.Hash_join
      { kind; pairs; residual = re_expr residual; left = go left;
        right = go right }
  | Exec.Plan.Hash_agg { keys; aggs; input } ->
    Exec.Plan.Hash_agg { keys; aggs; input = go input }
  | Exec.Plan.Stream_agg { keys; aggs; input } ->
    Exec.Plan.Stream_agg { keys; aggs; input = go input }
  | Exec.Plan.Hash_distinct i -> Exec.Plan.Hash_distinct (go i)
