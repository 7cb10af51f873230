(** Index-access cost charging and data fetching, shared by {!Executor}
    and {!Batch}.  Charging is separated from data movement so the batch
    engine can account inner rescans without recomputing them. *)

open Relalg

val log2_ceil : int -> int

(** Temp pages written + read by an external sort of [pages] pages. *)
val sort_spill_pages : work_mem:int -> pages:int -> int

(** Drive the buffer pool exactly as one execution of an index fetch of
    [entries] (starting at entry position [lo_pos]) would: internal levels
    random, touched leaf pages, then base-table pages; also charges one CPU
    op per entry. *)
val charge_index_fetch :
  Context.t -> Storage.Btree.t -> Storage.Table.t ->
  entries:(Value.t list * int) array -> lo_pos:int -> unit

(** The data half, for the interpreter: the base-table rows of the
    entries, in entry order (the batch engine selects their row ids
    instead). *)
val fetch_rows :
  Storage.Table.t -> (Value.t list * int) array -> Tuple.t array
