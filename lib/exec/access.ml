(* Index-access cost charging and data fetching, shared by the interpreter
   (Executor) and the batch engine (Batch).

   The two halves are deliberately separate: [charge_index_fetch] drives
   the buffer-pool simulator exactly as one execution of an index fetch
   would (internal levels random, touched leaf pages, then base-table
   pages — contiguous for a clustered index, one possibly-buffered random
   page per match otherwise), while [fetch_rows] moves the data for the
   interpreter.  The batch engine never moves rows: it selects the
   entries' row ids from the table's store, and charges rescans by
   replaying [charge_index_fetch]. *)

open Relalg

let log2_ceil n =
  let rec go acc p = if p >= n then acc else go (acc + 1) (p * 2) in
  if n <= 1 then 0 else go 0 1

(* Sort spill: number of temp pages written+read for an external sort of
   [pages] pages with [work_mem] pages of memory (multiway merge). *)
let sort_spill_pages ~work_mem ~pages =
  if pages <= work_mem then 0
  else
    let fan = max 2 (work_mem - 1) in
    let rec passes runs acc =
      if runs <= 1 then acc else passes ((runs + fan - 1) / fan) (acc + 1)
    in
    let initial_runs = (pages + work_mem - 1) / work_mem in
    2 * pages * passes initial_runs 1

let charge_index_fetch ctx (idx : Storage.Btree.t) (t : Storage.Table.t)
    ~(entries : (Value.t list * int) array) ~lo_pos =
  for _ = 1 to Storage.Btree.height idx do
    Context.read_page ctx ~random:true (idx.Storage.Btree.name, -1)
  done;
  let n = Array.length entries in
  if n > 0 then begin
    let first_leaf = Storage.Btree.leaf_page_of idx lo_pos in
    let last_leaf = Storage.Btree.leaf_page_of idx (lo_pos + n - 1) in
    for lp = first_leaf to last_leaf do
      Context.read_page ctx ~random:(lp = first_leaf) (idx.Storage.Btree.name, lp)
    done
  end;
  Context.charge_cpu ctx n;
  if idx.Storage.Btree.clustered then begin
    (* row ids of a clustered index range are contiguous pages: each
       distinct page is read once, in order of first touch *)
    let seen = Bytes.make (Storage.Table.page_count t) '\000' in
    Array.iter
      (fun (_, rid) ->
         let pg = Storage.Table.page_of_row t rid in
         if Bytes.get seen pg = '\000' then begin
           Bytes.set seen pg '\001';
           Context.read_page ctx ~random:false (t.Storage.Table.name, pg)
         end)
      entries
  end
  else
    Array.iter
      (fun (_, rid) ->
         Context.read_page ctx ~random:true
           (t.Storage.Table.name, Storage.Table.page_of_row t rid))
      entries

let fetch_rows (t : Storage.Table.t) (entries : (Value.t list * int) array) :
  Tuple.t array =
  Array.map (fun (_, rid) -> Storage.Table.get t rid) entries
