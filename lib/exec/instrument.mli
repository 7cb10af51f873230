(** Per-operator runtime instrumentation, shared by both engines.

    A recorder assigns each node of a physical plan a stable operator id —
    its pre-order index — before execution.  Because interpreter and batch
    runs execute the same tree, ids (and the actuals keyed by them) are
    directly comparable across engines. *)

(** Parallel-execution actuals for one operator (pooled dispatch only):
    per-worker busy seconds and rows produced, summed over the
    operator's parallel phases.  Worker 0 is the coordinating domain. *)
type par = {
  par_dop : int;
  worker_wall : float array;  (** busy seconds per worker *)
  worker_rows : int array;  (** rows produced per worker *)
}

(** One executed parallel task: worker, operator, and its monotonic
    start/end ({!Mclock} seconds).  The execution's full task list is
    the worker timeline behind the Chrome-trace profile export. *)
type task = {
  t_worker : int;
  t_op : int;  (** operator id *)
  t_name : string;  (** operator description *)
  t_start : float;
  t_end : float;
}

type op = {
  id : int;  (** pre-order index in the plan tree *)
  node : Plan.t;
  mutable est_rows : float option;
      (** optimizer cardinality estimate, attached post-hoc *)
  mutable act_rows : int;  (** rows produced by the first (cold) execution *)
  mutable rescans : int;
      (** re-executions (interpreter) / replay invocations (batch) *)
  mutable wall_s : float;  (** exclusive wall-clock seconds *)
  mutable self : Context.snapshot;  (** exclusive counter deltas *)
  mutable executed : bool;
  mutable par : par option;
      (** per-worker actuals; [None] unless a pooled dispatch ran this
          operator's kernels in parallel *)
}

type t

(** Walk [plan] and assign operator ids. *)
val create : Plan.t -> t

(** All operators in id order. *)
val ops : t -> op list

(** Worker timeline: every recorded parallel task, in recording order. *)
val timeline : t -> task list

(** Parallel phases whose worker-array width differed from an earlier
    phase of the same operator; such samples are merged into max-width
    arrays (never dropped), and this counter surfaces that it happened. *)
val par_mismatches : t -> int

(** Record one parallel task's interval against node [p] (coordinator
    only).  Unknown nodes are ignored; [end_s] is clamped to
    [>= start_s]. *)
val record_task :
  t -> Plan.t -> worker:int -> start_s:float -> end_s:float -> unit

(** Find the operator for a physical node ([==] identity). *)
val lookup : t -> Plan.t -> op option

(** [measure r ctx p ~rows f] runs one execution of node [p] under the
    recorder: the first execution records [rows result] as the cold row
    count, later executions count as rescans; counter and wall-clock
    activity is attributed exclusively (child executions subtracted).
    Nodes unknown to the recorder run unmeasured. *)
val measure :
  t -> Context.t -> Plan.t -> rows:('a -> int) -> (unit -> 'a) -> 'a

(** Wrap a batch-engine replay closure so each invocation counts as a
    rescan of [p], with the same attribution rules as [measure]. *)
val measured_replay :
  t -> Context.t -> Plan.t -> (unit -> unit) -> unit -> unit

(** Accumulate one parallel phase's per-worker busy time and row counts
    into [p]'s operator (element-wise add onto any previous phase).
    Unknown nodes are ignored. *)
val record_par :
  t -> Plan.t -> dop:int -> wall:float array -> rows:int array -> unit
