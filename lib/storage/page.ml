(* Page model.  Tables live in memory, but every size and cost in the system
   is expressed in pages of [page_size] bytes so that I/O-centric results
   from the paper keep their shape. *)

let page_size = 8192

(* Fixed per-type widths; strings are modelled as padded CHAR(24). *)
let value_width : Relalg.Value.ty -> int = function
  | Relalg.Value.Tbool -> 1
  | Relalg.Value.Tint -> 8
  | Relalg.Value.Tfloat -> 8
  | Relalg.Value.Tstring -> 24

let tuple_header = 16

let tuple_width (schema : Relalg.Schema.t) =
  tuple_header
  + List.fold_left (fun acc c -> acc + value_width c.Relalg.Schema.ty) 0 schema

let per_page width = max 1 (page_size / width)

let tuples_per_page schema = per_page (tuple_width schema)

let pages_for_width ~rows width =
  let per_page = per_page width in
  if rows = 0 then 1 else (rows + per_page - 1) / per_page

let pages_for ~rows schema = pages_for_width ~rows (tuple_width schema)
