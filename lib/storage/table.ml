(* Heap tables: an append-only in-memory tuple store with a page model.
   Row ids are dense 0-based positions; the page of row [i] is
   [i / tuples_per_page], which lets scans and index lookups charge the
   buffer-pool simulator with realistic page access patterns. *)

open Relalg

type t = {
  name : string;
  schema : Schema.t; (* columns qualified by the table name *)
  rows : Tuple.t Vec.t;
  mutable rows_view : Tuple.t array option;
      (* memoized array view; tables are append-only, so a cached view
         is stale iff its length differs from the live row count *)
  cols_view : Col.t option array;
      (* memoized typed columns, one slot per column, under the same
         staleness rule *)
  per_page : int; (* tuples per page, fixed by the schema *)
}

let create ?(non_null = []) ~name ~(columns : (string * Value.ty) list) () : t
  =
  let schema =
    List.map
      (fun (cn, ty) ->
         Schema.with_nullable
           (List.mem cn non_null |> not)
           (Schema.column ~rel:name ~name:cn ~ty))
      columns
  in
  { name; schema; rows = Vec.create (); rows_view = None;
    cols_view = Array.make (Schema.arity schema) None;
    per_page = Page.tuples_per_page schema }

let insert t (tuple : Tuple.t) =
  if Tuple.arity tuple <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Table.insert %s: arity %d <> %d" t.name
         (Tuple.arity tuple) (Schema.arity t.schema));
  Vec.push t.rows tuple

let row_count t = Vec.length t.rows

let get t rid = Vec.get t.rows rid

(* Shared immutable array view of all rows, built once per table size.
   Callers must treat it as read-only. *)
let rows_array t =
  match t.rows_view with
  | Some a when Array.length a = Vec.length t.rows -> a
  | _ ->
    let a = Array.init (Vec.length t.rows) (Vec.get t.rows) in
    t.rows_view <- Some a;
    a

(* Typed column [j] of all rows, classified once per table size from
   {!rows_array}.  Shared and immutable, like the row view. *)
let column t j =
  let n = Vec.length t.rows in
  match t.cols_view.(j) with
  | Some c when Col.length c = n -> c
  | _ ->
    let rows = rows_array t in
    let c = Col.classify n (fun i -> Tuple.get (Array.unsafe_get rows i) j) in
    t.cols_view.(j) <- Some c;
    c

let tuples_per_page t = t.per_page

let page_count t = Page.pages_for ~rows:(row_count t) t.schema

let page_of_row t rid = rid / tuples_per_page t

let iter f t = Vec.iter f t.rows

and iteri f t =
  for rid = 0 to row_count t - 1 do
    f rid (get t rid)
  done

let to_list t = Vec.to_list t.rows

(* Column position within this table's schema. *)
let column_index t name =
  Schema.index_of t.schema ~rel:t.name ~name

let pp ppf t =
  Fmt.pf ppf "%s%a (%d rows, %d pages)" t.name Schema.pp t.schema
    (row_count t) (page_count t)
