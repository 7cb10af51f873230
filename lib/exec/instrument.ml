(* Per-operator runtime instrumentation, shared by both engines.

   A recorder assigns every node of a physical plan a stable operator id
   (its pre-order index) before execution.  The engines then report each
   node execution through [measure] / [measured_replay], and the recorder
   accumulates per-operator actuals:

   - [act_rows]: rows produced by the first (cold) execution only, so the
     number is comparable between the tuple-at-a-time interpreter (which
     re-executes nested-loop inners) and the batch engine (which executes
     once and replays).
   - [rescans]: re-executions (interpreter) or replay invocations (batch)
     after the cold run.  Both engines drive rescans from the same outer
     cardinalities, so these match too.
   - [self]: counter activity attributed exclusively to this operator — a
     frame stack subtracts whatever nested child executions charged.
   - [wall_s]: exclusive wall-clock seconds, same attribution rule.

   The recorder is engine-agnostic: it never inspects operator semantics,
   only the dynamic nesting of executions. *)

(* Per-worker actuals for pooled operator phases; worker 0 is
   the coordinating domain. *)
type par = {
  par_dop : int;
  worker_wall : float array;
  worker_rows : int array;
}

(* One executed parallel task (a morsel, a partition build, ...):
   which worker ran which operator over which monotonic-clock interval.
   The full list is the execution's worker timeline — the raw material
   for the Chrome-trace profile export. *)
type task = {
  t_worker : int;
  t_op : int; (* operator id *)
  t_name : string; (* operator description, for display *)
  t_start : float; (* absolute Mclock seconds *)
  t_end : float;
}

type op = {
  id : int;
  node : Plan.t;
  mutable est_rows : float option; (* filled in post-hoc by Obs.Est *)
  mutable act_rows : int;
  mutable rescans : int;
  mutable wall_s : float;
  mutable self : Context.snapshot;
  mutable executed : bool;
  mutable par : par option;
}

type frame = {
  op : op;
  start_snap : Context.snapshot;
  start_time : float;
  (* Work charged by nested child executions, to subtract out. *)
  mutable child_snap : Context.snapshot;
  mutable child_time : float;
}

type t = {
  ops : op array;
  nodes : Plan.t array; (* preorder: [nodes.(id)] is op [id]'s node *)
  mutable stack : frame list;
  mutable timeline : task list; (* reversed; [timeline] reverses *)
  mutable par_mismatches : int;
      (* parallel phases whose worker-array width differed from an
         earlier phase of the same operator (merged, not dropped) *)
}

let create (plan : Plan.t) : t =
  let nodes = Array.of_list (Plan.preorder plan) in
  let ops =
    Array.mapi
      (fun id node ->
         { id; node; est_rows = None; act_rows = 0; rescans = 0;
           wall_s = 0.; self = Context.snapshot_zero; executed = false;
           par = None })
      nodes
  in
  { ops; nodes; stack = []; timeline = []; par_mismatches = 0 }

(* The engines execute the exact nodes [create] walked. *)
let lookup (r : t) (p : Plan.t) : op option =
  Option.map (Array.get r.ops) (Plan.find_id r.nodes p)

let ops (r : t) : op list = Array.to_list r.ops

let timeline (r : t) : task list = List.rev r.timeline

let par_mismatches (r : t) : int = r.par_mismatches

(* Record one parallel task's interval on [p]'s operator.  Called by the
   coordinator after a parallel phase completes (workers write disjoint
   slots of a pre-sized array; the coordinator folds it in here), so the
   recorder's mutable state is only ever touched from one domain. *)
let record_task (r : t) (p : Plan.t) ~(worker : int) ~(start_s : float)
    ~(end_s : float) : unit =
  match lookup r p with
  | None -> ()
  | Some o ->
    r.timeline <-
      { t_worker = worker; t_op = o.id; t_name = Plan.describe o.node;
        t_start = start_s; t_end = Float.max start_s end_s }
      :: r.timeline

let push_frame (r : t) (o : op) (ctx : Context.t) : frame =
  let f =
    { op = o;
      start_snap = Context.snapshot ctx;
      start_time = Mclock.now ();
      child_snap = Context.snapshot_zero;
      child_time = 0. }
  in
  r.stack <- f :: r.stack;
  f

(* Pop [f], attribute its exclusive share (total minus what nested child
   executions claimed), and roll the totals up into the enclosing frame's
   child accumulators. *)
let finish_frame (r : t) (f : frame) (ctx : Context.t) =
  r.stack <- List.tl r.stack;
  let total_time = Mclock.elapsed_s f.start_time in
  let total_snap = Context.diff (Context.snapshot ctx) f.start_snap in
  let o = f.op in
  o.wall_s <- o.wall_s +. (total_time -. f.child_time);
  o.self <- Context.snapshot_add o.self (Context.diff total_snap f.child_snap);
  match r.stack with
  | parent :: _ ->
    parent.child_snap <- Context.snapshot_add parent.child_snap total_snap;
    parent.child_time <- parent.child_time +. total_time
  | [] -> ()

(* [measure r ctx p ~rows f] runs one execution of node [p].  The first
   execution records [rows result] as the cold row count; later ones count
   as rescans.  Unknown nodes (e.g. sub-plans fabricated mid-run) fall
   through unmeasured. *)
let measure (r : t) (ctx : Context.t) (p : Plan.t) ~(rows : 'a -> int)
    (f : unit -> 'a) : 'a =
  match lookup r p with
  | None -> f ()
  | Some o ->
    let frame = push_frame r o ctx in
    (match f () with
     | result ->
       if o.executed then o.rescans <- o.rescans + 1
       else begin
         o.executed <- true;
         o.act_rows <- rows result
       end;
       finish_frame r frame ctx;
       result
     | exception e ->
       finish_frame r frame ctx;
       raise e)

(* Wrap a batch-engine replay closure so each invocation counts as a
   rescan of [p] and its work is attributed like a nested execution. *)
(* Fold one parallel phase's per-worker stats into [p]'s operator.  An
   operator may run several parallel phases (e.g. hash join: partition,
   build, probe); phases accumulate element-wise. *)
let record_par (r : t) (p : Plan.t) ~(dop : int) ~(wall : float array)
    ~(rows : int array) : unit =
  match lookup r p with
  | None -> ()
  | Some o -> (
    match o.par with
    | Some pr when Array.length pr.worker_wall = Array.length wall ->
      for w = 0 to Array.length wall - 1 do
        pr.worker_wall.(w) <- pr.worker_wall.(w) +. wall.(w);
        pr.worker_rows.(w) <- pr.worker_rows.(w) + rows.(w)
      done
    | Some pr ->
      (* width changed between phases (e.g. pool resized between runs):
         merge into max-width arrays rather than dropping the sample,
         and count the mismatch so callers can surface it *)
      r.par_mismatches <- r.par_mismatches + 1;
      let n = max (Array.length pr.worker_wall) (Array.length wall) in
      let mwall = Array.make n 0. and mrows = Array.make n 0 in
      Array.iteri (fun w v -> mwall.(w) <- v) pr.worker_wall;
      Array.iteri (fun w v -> mrows.(w) <- v) pr.worker_rows;
      Array.iteri (fun w v -> mwall.(w) <- mwall.(w) +. v) wall;
      Array.iteri (fun w v -> mrows.(w) <- mrows.(w) + v) rows;
      o.par <-
        Some
          { par_dop = max pr.par_dop dop; worker_wall = mwall;
            worker_rows = mrows }
    | None ->
      o.par <-
        Some
          { par_dop = dop; worker_wall = Array.copy wall;
            worker_rows = Array.copy rows })

let measured_replay (r : t) (ctx : Context.t) (p : Plan.t)
    (replay : unit -> unit) : unit -> unit =
  match lookup r p with
  | None -> replay
  | Some o ->
    fun () ->
      let frame = push_frame r o ctx in
      (match replay () with
       | () ->
         o.rescans <- o.rescans + 1;
         finish_frame r frame ctx
       | exception e ->
         finish_frame r frame ctx;
         raise e)
