(** A fixed-size pool of worker domains executing indexed task batches.

    [run pool ~tasks f] evaluates [f ~worker i] for every [i] in
    [0 .. tasks-1], distributing tasks over the pool's domains by atomic
    work stealing.  The calling domain participates as worker [0]; the
    spawned domains that join a batch are numbered [1, 2, ...] in the
    order they join, so with [~workers:w] every worker index is below
    [w].  [run] returns only after every task
    has finished, so writes made by the tasks are visible to the caller
    afterwards.  Tasks must not themselves call [run] on the same pool.

    On OCaml < 5 (no domains) the module degrades to a sequential loop:
    [available] is [false], every pool has [dop] 1, and [run] evaluates the
    tasks in index order on the caller.  On OCaml 5 task execution order is
    unspecified, so tasks must write to disjoint state. *)

(** [true] when real parallel domains back the pool. *)
val available : bool

(** Domains the runtime recommends (1 on OCaml < 5). *)
val cpu_count : unit -> int

type t

(** [create n] spawns [max 0 (n-1)] worker domains (the caller is the
    n-th worker).  [n <= 1] spawns nothing. *)
val create : int -> t

(** Total workers, including the caller: spawned domains + 1. *)
val dop : t -> int

(** [run pool ~tasks f] executes [f ~worker i] for [i = 0..tasks-1] and
    waits for completion.  [?workers] caps how many workers participate
    (default: all); the caller always participates.  The first exception
    raised by a task is re-raised after all workers have quiesced. *)
val run : ?workers:int -> t -> tasks:int -> (worker:int -> int -> unit) -> unit

(** Join all worker domains.  The pool must not be used afterwards. *)
val shutdown : t -> unit

(** [with_pool n f] = [f (create n)], guaranteeing shutdown. *)
val with_pool : int -> (t -> 'a) -> 'a
