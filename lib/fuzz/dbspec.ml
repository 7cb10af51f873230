(* Value-level database specifications for the differential fuzzer. *)

open Relalg

type index = { icols : string list; iclustered : bool }

type table = {
  tname : string;
  cols : (string * Value.ty) list;
  rows : Value.t array array;
  indexes : index list;
}

type t = { tables : table list }

let build (spec : t) : Storage.Catalog.t * Stats.Table_stats.db =
  let cat = Storage.Catalog.create () in
  List.iter
    (fun tb ->
       let t = Storage.Catalog.create_table cat ~name:tb.tname ~columns:tb.cols in
       Array.iter (fun r -> Storage.Table.insert t (Array.copy r)) tb.rows;
       List.iter
         (fun ix ->
            ignore
              (Storage.Catalog.create_index cat ~clustered:ix.iclustered
                 ~table:tb.tname ~columns:ix.icols ()))
         tb.indexes)
    spec.tables;
  (cat, Stats.Table_stats.analyze_catalog cat)

let equal (a : t) (b : t) = a = b

let pp ppf (spec : t) =
  Fmt.pf ppf "@[<v>";
  List.iteri
    (fun i tb ->
       if i > 0 then Fmt.cut ppf ();
       Fmt.pf ppf "%s(%a) %d rows%a" tb.tname
         Fmt.(list ~sep:(any ", ")
                (fun ppf (n, ty) -> Fmt.pf ppf "%s:%s" n (Value.ty_name ty)))
         tb.cols
         (Array.length tb.rows)
         Fmt.(list ~sep:nop
                (fun ppf ix ->
                   Fmt.pf ppf " [%s%s]"
                     (if ix.iclustered then "clustered " else "")
                     (String.concat "," ix.icols)))
         tb.indexes)
    spec.tables;
  Fmt.pf ppf "@]"

let to_string spec = Fmt.str "%a" pp spec
