(* Two-phase parallel optimization (Section 7.1, XPRS [31,32] and Hasan
   [28]).

   Phase 1 produced a single-site physical plan (any of our optimizers).
   Phase 2 decomposes it into pipelined segments separated by blocking
   operators (sort, hash build, materialize, aggregation), derives each
   segment's work (its operators' own costs over [Obs.Est]'s rows and
   pages), degree-of-parallelism cap, and the *partitioning* of the
   stream it produces (a physical property, after Hasan), then schedules
   segments wave by wave over [processors].

   Communication: a join input not already partitioned on the join key must
   be repartitioned — cost proportional to the rows moved.
   [partition_aware = false] reproduces XPRS's phase 2, which ignores
   partitioning reuse (every join repartitions both inputs); [true]
   reproduces Hasan's improvement, treating the partitioning attribute as a
   physical property and reusing compatible upstream partitioning. *)

open Relalg

type partitioning =
  | Any (* round-robin / unknown *)
  | On of Expr.col_ref list (* hash-partitioned on these columns *)

type segment = {
  id : int;
  ops : string list; (* operator names, for display *)
  work : float;
  max_dop : float; (* parallelizability cap (e.g. pages of its scans) *)
  comm_rows : float; (* rows repartitioned to feed this segment *)
  deps : int list; (* blocking predecessors *)
  produces : partitioning;
}

type schedule = {
  segments : segment list;
  response_time : float;
  total_work : float;
  comm_cost : float;
}

type config = { processors : int; partition_aware : bool }

let default_config = { processors = 8; partition_aware = true }

(* Cost of repartitioning one row, in sequential-page units. *)
let comm_cost_per_row = 0.002

let cols_equal (a : Expr.col_ref list) (b : Expr.col_ref list) =
  List.length a = List.length b && List.for_all2 (fun x y -> x = y) a b

let compatible have want =
  match have, want with
  | On h, On w -> cols_equal h w
  | (Any | On _), _ -> false

(* ------------------------------------------------------------------ *)
(* Per-operator work: a node's own cost, children excluded, priced by the
   cost model over the plan estimator's rows and pages. *)

let own_work cat db (est : Obs.Est.t) (p : Exec.Plan.t) : float =
  let module Cm = Cost.Cost_model in
  let params = Cm.default_params in
  (* [est] annotates every node of the plan [p] comes from *)
  let rows q = Option.get (Obs.Est.card est q) in
  let pages q = Option.get (Obs.Est.pages est q) in
  let base table =
    let t = Storage.Catalog.table cat table in
    ( (Stats.Table_stats.for_table db t).Stats.Table_stats.rows,
      float_of_int (Storage.Table.page_count t) )
  in
  match p with
  | Exec.Plan.Seq_scan { table; _ } ->
    let table_rows, table_pages = base table in
    Cm.seq_scan params ~pages:table_pages ~rows:table_rows
  | Exec.Plan.Index_scan { table; _ } ->
    let table_rows, table_pages = base table in
    Cm.index_scan params ~clustered:true ~pages:table_pages ~rows:table_rows
      ~matches:(rows p)
  | Exec.Plan.Filter (_, i) -> Cm.filter params ~rows:(rows i)
  | Exec.Plan.Project (_, i) -> Cm.project params ~rows:(rows i)
  | Exec.Plan.Sort (_, i) -> Cm.sort params ~pages:(pages i) ~rows:(rows i)
  | Exec.Plan.Materialize i -> params.Cm.seq_page *. pages i
  | Exec.Plan.Nested_loop { outer; inner; _ } ->
    Cm.nested_loop params ~outer_rows:(rows outer) ~inner_rows:(rows inner)
      ~inner_pages:(pages inner)
  | Exec.Plan.Index_nl { outer; table; _ } ->
    let table_rows, table_pages = base table in
    Cm.index_nl params ~outer_rows:(rows outer) ~inner_rows:table_rows
      ~inner_pages:table_pages
      ~matches_per_probe:(rows p /. Float.max 1. (rows outer))
      ~clustered:false
  | Exec.Plan.Merge_join { left; right; _ } ->
    Cm.merge_join params ~left_rows:(rows left) ~right_rows:(rows right)
      ~out_rows:(rows p)
  | Exec.Plan.Hash_join { left; right; _ } ->
    Cm.hash_join params ~left_rows:(rows left) ~right_rows:(rows right)
      ~left_pages:(pages left) ~right_pages:(pages right) ~out_rows:(rows p)
  | Exec.Plan.Hash_agg { input; _ } ->
    Cm.hash_agg params ~rows:(rows input) ~groups:(rows p)
  | Exec.Plan.Stream_agg { input; _ } -> Cm.stream_agg params ~rows:(rows input)
  | Exec.Plan.Hash_distinct i -> Cm.hash_distinct params ~rows:(rows i)

(* ------------------------------------------------------------------ *)
(* Segment extraction *)

type builder = {
  mutable segs : segment list;
  mutable next : int;
  (* plan node -> id of the segment it executes in (physical identity) *)
  mutable assign : (Exec.Plan.t * int) list;
  cfg : config;
  cat : Storage.Catalog.t;
  db : Stats.Table_stats.db;
  est : Obs.Est.t;
}

(* The pipelined segment currently being assembled bottom-up. *)
type open_seg = {
  o_ops : string list;
  o_dop : float;
  o_deps : int list;
  o_comm : float; (* rows repartitioned within this open segment *)
  o_part : partitioning;
  o_nodes : Exec.Plan.t list; (* plan nodes executing in this segment *)
}

(* A segment's work is the sum of its nodes' own work. *)
let close b (o : open_seg) : segment =
  let work =
    List.fold_left (fun a n -> a +. own_work b.cat b.db b.est n) 0. o.o_nodes
  in
  let s =
    { id = b.next; ops = o.o_ops; work; max_dop = o.o_dop;
      comm_rows = o.o_comm; deps = o.o_deps; produces = o.o_part }
  in
  b.next <- b.next + 1;
  b.segs <- b.segs @ [ s ];
  List.iter (fun n -> b.assign <- (n, s.id) :: b.assign) o.o_nodes;
  s

let rec walk (b : builder) (p : Exec.Plan.t) : open_seg =
  let rows q = Option.get (Obs.Est.card b.est q) in
  (* [p] joins the pipeline [o] *)
  let extend name o =
    { o with o_ops = o.o_ops @ [ name ]; o_nodes = o.o_nodes @ [ p ] }
  in
  (* [p] starts a pipeline after the blocking segment [closed] *)
  let after name (closed : segment) part =
    { o_ops = [ name ]; o_dop = closed.max_dop; o_deps = [ closed.id ];
      o_comm = 0.; o_part = part; o_nodes = [ p ] }
  in
  match p with
  | Exec.Plan.Seq_scan { table; _ } | Exec.Plan.Index_scan { table; _ } ->
    let pages =
      float_of_int (Storage.Table.page_count (Storage.Catalog.table b.cat table))
    in
    { o_ops = [ "scan " ^ table ]; o_dop = Float.max 1. pages; o_deps = [];
      o_comm = 0.; o_part = Any; o_nodes = [ p ] }
  | Exec.Plan.Filter (_, i) -> extend "filter" (walk b i)
  | Exec.Plan.Project (_, i) -> extend "project" (walk b i)
  | Exec.Plan.Hash_distinct i -> extend "distinct" (walk b i)
  | Exec.Plan.Sort (_, i) | Exec.Plan.Materialize i ->
    (* blocking: close the child's pipeline *)
    let closed = close b (walk b i) in
    let name = match p with Exec.Plan.Sort _ -> "sort" | _ -> "materialize" in
    after name closed closed.produces
  | Exec.Plan.Hash_agg { input; keys; _ } | Exec.Plan.Stream_agg { input; keys; _ }
    ->
    let closed = close b (walk b input) in
    let part =
      On
        (List.filter_map
           (fun (ke, _) -> match ke with Expr.Col c -> Some c | _ -> None)
           keys)
    in
    after "aggregate" closed part
  | Exec.Plan.Nested_loop { outer; inner; _ } ->
    let o = walk b outer in
    let inner_seg = close b (walk b inner) in
    { (extend "nested-loop join" o) with o_deps = o.o_deps @ [ inner_seg.id ] }
  | Exec.Plan.Index_nl { outer; _ } -> extend "index-nl join" (walk b outer)
  | Exec.Plan.Merge_join { pairs; left; right; _ }
  | Exec.Plan.Hash_join { pairs; left; right; _ } ->
    let want_l = On (List.map fst pairs) and want_r = On (List.map snd pairs) in
    let lo = walk b left and ro = walk b right in
    let comm_of have want rows =
      if b.cfg.partition_aware && compatible have want then 0. else rows
    in
    (* build/right side blocks; probe/left side pipelines into the join *)
    let right_seg =
      close b
        { ro with
          o_ops = ro.o_ops @ [ "build" ];
          o_comm = ro.o_comm +. comm_of ro.o_part want_r (rows right);
          o_part = want_r }
    in
    let name =
      match p with Exec.Plan.Merge_join _ -> "merge join" | _ -> "hash join"
    in
    { (extend name lo) with
      o_dop = Float.max lo.o_dop 1.;
      o_deps = lo.o_deps @ [ right_seg.id ];
      o_comm = lo.o_comm +. comm_of lo.o_part want_l (rows left);
      o_part = want_l }

let decompose_assign ?est (cfg : config) cat db (plan : Exec.Plan.t) :
  segment list * (Exec.Plan.t * int) list =
  let est =
    match est with Some est -> est | None -> Obs.Est.annotate cat db plan
  in
  let b = { segs = []; next = 0; assign = []; cfg; cat; db; est } in
  let top = walk b plan in
  ignore (close b top);
  (b.segs, b.assign)

let decompose (cfg : config) cat db (plan : Exec.Plan.t) : segment list =
  fst (decompose_assign cfg cat db plan)

(* The degree of parallelism each plan node actually runs at: its
   segment's cap, clamped to the processor budget — the same dop the
   wave scheduler charges that segment with.  Nodes the decomposition
   does not reach (none today) default to the full budget. *)
let node_dop ?est (cfg : config) cat db (plan : Exec.Plan.t) :
  Exec.Plan.t -> int =
  let segs, assign = decompose_assign ?est cfg cat db plan in
  let budget = max 1 cfg.processors in
  let seg_dop sid =
    let s = List.find (fun s -> s.id = sid) segs in
    min budget (max 1 (int_of_float (Float.ceil s.max_dop)))
  in
  let nodes = Array.of_list (List.map fst assign) in
  let dops = Array.of_list (List.map (fun (_, sid) -> seg_dop sid) assign) in
  fun node ->
    match Exec.Plan.find_id nodes node with
    | Some i -> dops.(i)
    | None -> budget

(* ------------------------------------------------------------------ *)
(* Phase-2 scheduling: topological waves of malleable tasks *)

let schedule_segments (cfg : config) (segs : segment list) : schedule =
  let p = float_of_int (max 1 cfg.processors) in
  let total_work = List.fold_left (fun a s -> a +. s.work) 0. segs in
  let comm_cost =
    List.fold_left (fun a s -> a +. (s.comm_rows *. comm_cost_per_row)) 0. segs
  in
  let done_ = Hashtbl.create 16 in
  let remaining = ref segs in
  let t = ref 0. in
  while !remaining <> [] do
    let ready, blocked =
      List.partition
        (fun s -> List.for_all (Hashtbl.mem done_) s.deps)
        !remaining
    in
    if ready = [] then begin
      (* cannot happen: segments form a DAG by construction *)
      List.iter (fun s -> Hashtbl.replace done_ s.id ()) blocked;
      remaining := []
    end
    else begin
      (* malleable-task wave: time = max(total/p, longest segment at its
         own parallelism cap) *)
      let seg_comm s = s.comm_rows *. comm_cost_per_row in
      let wave_work =
        List.fold_left (fun a s -> a +. s.work +. seg_comm s) 0. ready
      in
      let longest =
        List.fold_left
          (fun a s ->
             Float.max a
               (((s.work +. seg_comm s)
                 /. Float.min p (Float.max 1. s.max_dop))))
          0. ready
      in
      t := !t +. Float.max (wave_work /. p) longest;
      List.iter (fun s -> Hashtbl.replace done_ s.id ()) ready;
      remaining := blocked
    end
  done;
  { segments = segs; response_time = !t; total_work; comm_cost }

let run ?(config = default_config) cat db (plan : Exec.Plan.t) : schedule =
  schedule_segments config (decompose config cat db plan)

let pp_schedule ppf (s : schedule) =
  Fmt.pf ppf "@[<v>%d segments, work %.1f, comm %.1f, response %.2f@,%a@]"
    (List.length s.segments) s.total_work s.comm_cost s.response_time
    Fmt.(list ~sep:cut (fun ppf seg ->
        Fmt.pf ppf "  seg%d [%s] work=%.1f dop<=%.0f deps=%a comm=%.0f"
          seg.id (String.concat " -> " seg.ops) seg.work seg.max_dop
          Fmt.(list ~sep:(any ",") int) seg.deps seg.comm_rows))
    s.segments
