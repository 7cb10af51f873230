(* Statistical summaries of base data (Section 5.1.1): per-table row and
   page counts, per-column distinct counts, null fraction, second-lowest /
   second-highest values (the paper's outlier-robust min/max), and an
   optional histogram on numeric columns. *)

open Relalg

type col_stats = {
  n_distinct : float;
  null_frac : float;
  lo : float option; (* second-lowest value, numeric columns *)
  hi : float option; (* second-highest *)
  min_v : float option; (* exact minimum (numeric columns) — sound bound *)
  max_v : float option; (* exact maximum — sound bound *)
  hist : Histogram.t option;
  sketch : Sketch.t option; (* Fast-AGMS sketch, folded in after execution *)
}

type t = {
  table : string;
  rows : float;
  pages : int;
  cols : (string * col_stats Lazy.t) list; (* by column name *)
}

(* The statistics registry: the [stats]-side companion of the catalog. *)
type db = (string, t) Hashtbl.t

let create_db () : db = Hashtbl.create 16

let numeric_values (table : Storage.Table.t) ci : float array =
  let out = Storage.Vec.create () in
  Storage.Table.iter
    (fun tu ->
       match Value.to_float (Tuple.get tu ci) with
       | Some f -> Storage.Vec.push out f
       | None -> ())
    table;
  Storage.Vec.to_array out

let robust_bounds (sorted : float array) =
  let n = Array.length sorted in
  if n = 0 then (None, None)
  else if n <= 2 then (Some sorted.(0), Some sorted.(n - 1))
  else (Some sorted.(1), Some sorted.(n - 2))
    (* 2nd-lowest / 2nd-highest: min and max are likely outliers (5.1.1) *)

let analyze_column ?(hist_buckets = 20) ?(hist_kind = Sample.Equi_depth)
    (table : Storage.Table.t) cname : col_stats =
  let ci = Storage.Table.column_index table cname in
  let n = Storage.Table.row_count table in
  let nulls = ref 0 in
  let distinct = Hashtbl.create 256 in
  Storage.Table.iter
    (fun tu ->
       let v = Tuple.get tu ci in
       if Value.is_null v then incr nulls else Hashtbl.replace distinct v ())
    table;
  let col = List.nth table.Storage.Table.schema ci in
  let is_numeric =
    match col.Schema.ty with
    | Value.Tint | Value.Tfloat -> true
    | Value.Tbool | Value.Tstring -> false
  in
  let values = if is_numeric then numeric_values table ci else [||] in
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  let lo, hi = robust_bounds sorted in
  let min_v, max_v =
    let n = Array.length sorted in
    if n = 0 then (None, None) else (Some sorted.(0), Some sorted.(n - 1))
  in
  let hist =
    if is_numeric && Array.length values > 0 then
      Some (Sample.build hist_kind ~buckets:hist_buckets values)
    else None
  in
  { n_distinct = float_of_int (Hashtbl.length distinct);
    null_frac = (if n = 0 then 0. else float_of_int !nulls /. float_of_int n);
    lo;
    hi;
    min_v;
    max_v;
    hist;
    sketch = None }

(* [column] builds one column's entry.  [Lazy.from_val] of a record is
   the record itself, so an eagerly analyzed column costs no deferral
   and reads through [Lazy.force] without allocating. *)
let summarize column (table : Storage.Table.t) : t =
  { table = table.Storage.Table.name;
    rows = float_of_int (Storage.Table.row_count table);
    pages = Storage.Table.page_count table;
    cols =
      List.map
        (fun (c : Schema.column) -> (c.Schema.name, column c.Schema.name))
        table.Storage.Table.schema }

let analyze ?hist_buckets ?hist_kind table : t =
  summarize
    (fun name ->
       Lazy.from_val (analyze_column ?hist_buckets ?hist_kind table name))
    table

(* A temporary's columns are analyzed on first read: the closure holds
   the table itself, so it can be forced after the table has left the
   catalog.  The table must not change afterwards. *)
let analyze_deferred table : t =
  summarize (fun name -> lazy (analyze_column table name)) table

(* ANALYZE every table of the catalog into a fresh registry. *)
let analyze_catalog ?hist_buckets ?hist_kind (cat : Storage.Catalog.t) : db =
  let db = create_db () in
  List.iter
    (fun name ->
       Hashtbl.replace db name
         (analyze ?hist_buckets ?hist_kind (Storage.Catalog.table cat name)))
    (Storage.Catalog.table_names cat);
  db

let find (db : db) table : t option = Hashtbl.find_opt db table

(* Tables unknown to the registry (fabricated temporaries) fall back to
   their physical row and page counts with no column statistics. *)
let for_table (db : db) (tbl : Storage.Table.t) : t =
  match find db tbl.Storage.Table.name with
  | Some ts -> ts
  | None ->
    { table = tbl.Storage.Table.name;
      rows = float_of_int (Storage.Table.row_count tbl);
      pages = Storage.Table.page_count tbl;
      cols = [] }

(* [f] over a column's statistics, deferred while they are: an unread
   column is not computed.  A computed one is mapped now and costs no
   deferral. *)
let map_deferred f c =
  if Lazy.is_val c then Lazy.from_val (f (Lazy.force c))
  else lazy (f (Lazy.force c))

let rec find_forced name = function
  | [] -> None
  | (n, c) :: rest ->
    if String.equal n name then Some (Lazy.force c) else find_forced name rest

let col (t : t) name : col_stats option = find_forced name t.cols

let pp_col ppf (name, c) =
  let c = Lazy.force c in
  Fmt.pf ppf "%s: ndv=%.0f nulls=%.2f lo=%a hi=%a%s" name c.n_distinct
    c.null_frac
    Fmt.(option ~none:(any "-") float) c.lo
    Fmt.(option ~none:(any "-") float) c.hi
    (match c.hist with None -> "" | Some h ->
       Printf.sprintf " hist(%d)" (Histogram.bucket_count h))

let pp ppf t =
  Fmt.pf ppf "@[<v>%s: %.0f rows, %d pages@,%a@]" t.table t.rows t.pages
    Fmt.(list ~sep:cut pp_col) t.cols
