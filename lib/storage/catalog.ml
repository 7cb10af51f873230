(* The catalog maps table names to their storage and indexes.  Statistics
   are maintained by the [stats] library in a parallel registry so that the
   storage layer stays independent of estimation concerns. *)

type entry = { table : Table.t; mutable indexes : Btree.t list }

type t = { tables : (string, entry) Hashtbl.t }

let create () = { tables = Hashtbl.create 16 }

let add_table cat (table : Table.t) =
  if Hashtbl.mem cat.tables table.Table.name then
    invalid_arg ("Catalog.add_table: duplicate " ^ table.Table.name);
  Hashtbl.replace cat.tables table.Table.name { table; indexes = [] }

let create_table ?non_null cat ~name ~columns =
  let t = Table.create ?non_null ~name ~columns () in
  add_table cat t;
  t

let find cat name =
  match Hashtbl.find_opt cat.tables name with
  | Some e -> e
  | None -> invalid_arg ("Catalog.find: no such table " ^ name)

let find_opt cat name = Hashtbl.find_opt cat.tables name

let table cat name = (find cat name).table

let mem cat name = Hashtbl.mem cat.tables name

(* Create a secondary (or clustered) index; composite keys are supported
   via [columns]. *)
let create_index cat ?(clustered = false) ?fanout ?columns ~table:tname
    ?column () =
  let columns =
    match columns, column with
    | Some cs, None -> cs
    | None, Some c -> [ c ]
    | Some cs, Some c -> cs @ [ c ]
    | None, None -> invalid_arg "Catalog.create_index: no columns"
  in
  let e = find cat tname in
  let name = Printf.sprintf "idx_%s_%s" tname (String.concat "_" columns) in
  let idx = Btree.build ?fanout ~name ~clustered e.table ~columns in
  e.indexes <- e.indexes @ [ idx ];
  idx

let indexes cat name = (find cat name).indexes

(* Index whose leading column is [column]. *)
let index_on cat ~table ~column =
  List.find_opt (fun (i : Btree.t) -> Btree.column i = column)
    (indexes cat table)

(* Index by exact name. *)
let index_named cat ~table ~name =
  List.find_opt (fun (i : Btree.t) -> i.Btree.name = name) (indexes cat table)

(* Drop a table (used for temporaries materialized during execution). *)
let remove_table cat name = Hashtbl.remove cat.tables name

(* Materialized views are planned under generated [__matN_alias] temp
   tables.  Their names are unstable across runs, so the feedback cache
   and the sketch registry skip them. *)
let temp_prefix = "__mat"

let temp_counter = ref 0

let fresh_temp_name alias =
  incr temp_counter;
  Printf.sprintf "%s%d_%s" temp_prefix !temp_counter alias

let is_temp_table name = String.starts_with ~prefix:temp_prefix name

let table_names cat =
  Hashtbl.fold (fun k _ acc -> k :: acc) cat.tables []
  |> List.sort String.compare

(* Scan node for the logical algebra, with columns re-qualified under the
   query alias. *)
let scan cat ?alias name : Relalg.Algebra.t =
  let t = table cat name in
  let alias = Option.value alias ~default:name in
  Relalg.Algebra.Scan
    { table = name;
      alias;
      schema = Relalg.Schema.requalify t.Table.schema ~rel:alias }
