(* Execution context: buffer pool plus physical I/O and CPU accounting.
   All experiment "measured cost" numbers come from these counters. *)

type t = {
  pool : Storage.Buffer.Pool.t;
  work_mem_pages : int; (* memory for sorts and hash builds before spilling *)
  mutable seq_io : int; (* physical page reads, sequential pattern *)
  mutable rand_io : int; (* physical page reads, random pattern *)
  mutable spill_io : int; (* temp-file pages written + read back *)
  mutable cpu_ops : int; (* abstract per-tuple operations *)
}

let create ?(buffer_pages = 1024) ?(work_mem_pages = 64) () =
  { pool = Storage.Buffer.Pool.create ~capacity:buffer_pages;
    work_mem_pages;
    seq_io = 0;
    rand_io = 0;
    spill_io = 0;
    cpu_ops = 0 }

let read_page ctx ~random pid =
  match Storage.Buffer.Pool.access ctx.pool pid with
  | `Hit -> ()
  | `Miss ->
    if random then ctx.rand_io <- ctx.rand_io + 1
    else ctx.seq_io <- ctx.seq_io + 1

let charge_cpu ctx n = ctx.cpu_ops <- ctx.cpu_ops + n

(* Pure snapshot of the four counters; [diff later earlier] is the work
   charged between the two snapshots.  Call sites that compare or
   attribute counter activity go through these instead of ad-hoc field
   reads. *)
type snapshot = { seq : int; rand : int; spill : int; cpu : int }

let snapshot_zero = { seq = 0; rand = 0; spill = 0; cpu = 0 }

let snapshot ctx =
  { seq = ctx.seq_io; rand = ctx.rand_io; spill = ctx.spill_io;
    cpu = ctx.cpu_ops }

let diff (later : snapshot) (earlier : snapshot) =
  { seq = later.seq - earlier.seq;
    rand = later.rand - earlier.rand;
    spill = later.spill - earlier.spill;
    cpu = later.cpu - earlier.cpu }

let snapshot_add a b =
  { seq = a.seq + b.seq; rand = a.rand + b.rand; spill = a.spill + b.spill;
    cpu = a.cpu + b.cpu }

let pp_snapshot ppf s =
  Fmt.pf ppf "seq=%d rand=%d spill=%d cpu=%d" s.seq s.rand s.spill s.cpu

let charge_spill ctx pages = ctx.spill_io <- ctx.spill_io + pages

(* Weighted cost in the same units as the cost model: random reads are
   dearer than sequential ones, CPU ops far cheaper than either. *)
let weighted_cost ?(seq_weight = 1.0) ?(rand_weight = 4.0)
    ?(cpu_weight = 0.001) ctx =
  (seq_weight *. float_of_int (ctx.seq_io + ctx.spill_io))
  +. (rand_weight *. float_of_int ctx.rand_io)
  +. (cpu_weight *. float_of_int ctx.cpu_ops)

let pp ppf ctx =
  Fmt.pf ppf "io: %d seq + %d rand + %d spill, cpu: %d ops" ctx.seq_io
    ctx.rand_io ctx.spill_io ctx.cpu_ops
