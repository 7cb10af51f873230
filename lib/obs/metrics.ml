(* Process-wide metrics registry: monotonic counters, max-gauges and
   log-bucketed histograms, keyed by name.  Deliberately small — the
   registry exists so long-lived drivers (CLI, fuzzer, benches, the
   future service layer) can report "what has this process done" without
   threading state through every layer.

   Names may carry Prometheus-style labels inline —
   ["stage_seconds{stage=\"optimize\"}"] — which the registry treats as
   opaque key text; only the Prometheus renderer splits them.

   Histograms bucket by powers of two: an observation [v] lands in the
   bucket with the smallest upper bound [2^e >= v].  Log buckets give a
   bounded relative error (any percentile read from bucket bounds is
   within 2x of the true order statistic) over an unbounded range with a
   handful of live buckets — the standard trick for latency and q-error
   distributions, which span many decades. *)

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  h_buckets : (int, int ref) Hashtbl.t; (* exponent e -> count; ub = 2^e *)
}

type cell = Counter of int ref | Max_gauge of float ref | Histogram of hist

let registry : (string, cell) Hashtbl.t = Hashtbl.create 16

let counter name =
  match Hashtbl.find_opt registry name with
  | Some (Counter r) -> r
  | Some _ -> invalid_arg ("Metrics: " ^ name ^ " is not a counter")
  | None ->
    let r = ref 0 in
    Hashtbl.replace registry name (Counter r);
    r

let incr ?(by = 1) name =
  let r = counter name in
  r := !r + by

let observe_max name v =
  match Hashtbl.find_opt registry name with
  | Some (Max_gauge r) -> if v > !r then r := v
  | Some _ -> invalid_arg ("Metrics: " ^ name ^ " is not a gauge")
  | None -> Hashtbl.replace registry name (Max_gauge (ref v))

(* Exponent of the power-of-two bucket containing [v]: the smallest [e]
   with [v <= 2^e].  Non-positive and non-finite observations clamp to
   the extreme buckets.  [frexp v = (m, e)] has [v = m * 2^e] with
   [0.5 <= m < 1], so [v <= 2^e] and, except at exact powers of two
   (m = 0.5, which belong one bucket down), [v > 2^(e-1)]. *)
let min_exp = -40 (* 2^-40 s ~ 1 ps: smaller observations merge here *)

let max_exp = 62

let bucket_exp (v : float) : int =
  if not (Float.is_finite v) || v > 4.611686018427387904e18 then max_exp
  else if v <= 0. then min_exp
  else
    let m, e = Float.frexp v in
    let e = if m = 0.5 then e - 1 else e in
    if e < min_exp then min_exp else if e > max_exp then max_exp else e

let observe_hist name v =
  let h =
    match Hashtbl.find_opt registry name with
    | Some (Histogram h) -> h
    | Some _ -> invalid_arg ("Metrics: " ^ name ^ " is not a histogram")
    | None ->
      let h = { h_count = 0; h_sum = 0.; h_buckets = Hashtbl.create 8 } in
      Hashtbl.replace registry name (Histogram h);
      h
  in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  let e = bucket_exp v in
  match Hashtbl.find_opt h.h_buckets e with
  | Some r -> Stdlib.incr r
  | None -> Hashtbl.replace h.h_buckets e (ref 1)

(* ------------------------------------------------------------------ *)
(* Snapshots: immutable views for renderers and tests.  Reading never
   creates or retypes a cell, so render paths cannot raise. *)

type hist_snapshot = {
  count : int;
  sum : float;
  buckets : (float * int) list;
      (* (upper bound, CUMULATIVE count <= bound), sorted by bound;
         the last entry's count equals [count] *)
}

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of hist_snapshot

let snapshot_hist (h : hist) : hist_snapshot =
  let exps =
    Hashtbl.fold (fun e r acc -> (e, !r) :: acc) h.h_buckets []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let cum = ref 0 in
  let buckets =
    List.map
      (fun (e, n) ->
         cum := !cum + n;
         (Float.ldexp 1. e, !cum))
      exps
  in
  { count = h.h_count; sum = h.h_sum; buckets }

(* Percentile estimate from bucket bounds: the upper bound of the first
   bucket whose cumulative count reaches rank [ceil(p * count)].  Within
   2x of the true order statistic by construction of the buckets; exact
   enough for p50/p95/p99 summaries.  Monotone in [p]. *)
let percentile (s : hist_snapshot) (p : float) : float option =
  if s.count = 0 then None
  else begin
    let p = Float.max 0. (Float.min 1. p) in
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int s.count))) in
    let rec go = function
      | [] -> None (* unreachable: last cumulative count = s.count *)
      | (ub, cum) :: rest -> if cum >= rank then Some ub else go rest
    in
    go s.buckets
  end

let get name =
  match Hashtbl.find_opt registry name with
  | Some (Counter r) -> Some (float_of_int !r)
  | Some (Max_gauge r) -> Some !r
  | Some (Histogram h) -> Some (float_of_int h.h_count)
  | None -> None

(* Typed read of every cell, sorted by name.  This — not [get] — is the
   renderer-facing accessor: it distinguishes counters from gauges from
   histograms and can never raise, whatever names exist. *)
let dump_cells () : (string * value) list =
  Hashtbl.fold (fun name cell acc -> (name, cell) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (name, cell) ->
      match cell with
      | Counter r -> (name, Counter_v !r)
      | Max_gauge r -> (name, Gauge_v !r)
      | Histogram h -> (name, Histogram_v (snapshot_hist h)))

let find_hist name : hist_snapshot option =
  match Hashtbl.find_opt registry name with
  | Some (Histogram h) -> Some (snapshot_hist h)
  | _ -> None

let reset () = Hashtbl.reset registry

let dump () =
  List.map
    (fun (name, v) ->
       match v with
       | Counter_v n -> (name, string_of_int n)
       | Gauge_v g -> (name, Printf.sprintf "%.4g" g)
       | Histogram_v s ->
         let pct p =
           match percentile s p with
           | Some v -> Printf.sprintf "%.4g" v
           | None -> "-"
         in
         ( name,
           Printf.sprintf "count=%d sum=%.4g p50=%s p95=%s p99=%s" s.count
             s.sum (pct 0.50) (pct 0.95) (pct 0.99) ))
    (dump_cells ())

let render () =
  dump ()
  |> List.map (fun (k, v) -> Printf.sprintf "%-40s %s" k v)
  |> String.concat "\n"

(* Canonical metric names, so emitters and readers agree on spelling. *)
let queries_run = "queries_run"
let blocks_planned = "blocks_planned"
let fuzz_oracle_pass = "fuzz_oracle_pass"
let fuzz_oracle_fail = "fuzz_oracle_fail"
let qerror_max = "qerror_max"
let feedback_overrides = "feedback_overrides"
let feedback_recorded = "feedback_recorded"
let feedback_stale = "feedback_stale"
let sketches_built = "sketches_built"

(* Histograms *)
let query_seconds = "query_seconds"
let qerror_hist = "qerror"
let digest_seconds = "plan_digest_seconds"
let fuzz_case_seconds = "fuzz_case_seconds"

let stage_seconds (stage : string) =
  Printf.sprintf "stage_seconds{stage=%S}" stage
