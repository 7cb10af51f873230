(** Execution context: buffer pool plus physical I/O and CPU accounting —
    the source of every "measured cost" number in the experiments. *)

type t = {
  pool : Storage.Buffer.Pool.t;
  work_mem_pages : int;  (** memory for sorts and hash builds *)
  mutable seq_io : int;  (** physical page reads, sequential pattern *)
  mutable rand_io : int;  (** physical page reads, random pattern *)
  mutable spill_io : int;  (** temp pages written + read back *)
  mutable cpu_ops : int;  (** abstract per-tuple operations *)
}

val create : ?buffer_pages:int -> ?work_mem_pages:int -> unit -> t

(** Access a page through the pool, charging a physical read on miss. *)
val read_page : t -> random:bool -> Storage.Buffer.page_id -> unit

val charge_cpu : t -> int -> unit
val charge_spill : t -> int -> unit

(** Pure record of the four counters at one instant. *)
type snapshot = { seq : int; rand : int; spill : int; cpu : int }

val snapshot_zero : snapshot
val snapshot : t -> snapshot

(** [diff later earlier] — the work charged between two snapshots. *)
val diff : snapshot -> snapshot -> snapshot

val snapshot_add : snapshot -> snapshot -> snapshot
val pp_snapshot : Format.formatter -> snapshot -> unit

(** Scalar cost in the cost model's units (random reads dearer than
    sequential, CPU far cheaper than either). *)
val weighted_cost :
  ?seq_weight:float -> ?rand_weight:float -> ?cpu_weight:float -> t -> float

val pp : Format.formatter -> t -> unit
