(* Schemas: ordered lists of columns, each qualified by a relation alias.
   Column positions are resolved once at plan-build time (see [index_of]);
   evaluation then works on plain value arrays. *)

type column = {
  rel : string;  (* relation alias, e.g. "E" or "Emp" *)
  name : string; (* column name, e.g. "sal" *)
  ty : Value.ty;
  nullable : bool; (* false only when the column provably never holds NULL *)
}

type t = column list

let column ~rel ~name ~ty = { rel; name; ty; nullable = true }

let with_nullable nullable c = { c with nullable }

let arity (s : t) = List.length s

(* Does column [c] answer to the reference?  [unqualified]: only an
   unqualified column does. *)
let hit ~unqualified ~rel ~name c =
  c.name = name && (if unqualified then c.rel = "" else rel = "" || c.rel = rel)

let rec count ~unqualified ~rel ~name = function
  | [] -> 0
  | c :: rest ->
    Bool.to_int (hit ~unqualified ~rel ~name c)
    + count ~unqualified ~rel ~name rest

let rec position ~unqualified ~rel ~name i = function
  | [] -> raise Not_found
  | c :: rest ->
    if hit ~unqualified ~rel ~name c then i
    else position ~unqualified ~rel ~name (i + 1) rest

(* Position of a column reference: the first column of that name under
   qualifier [rel].  An unqualified reference names an unqualified column
   (a projection or grouping output) when one has that name, else a column
   under any qualifier, and is ambiguous when that leaves two.  Raises
   [Not_found] if absent, [Failure] if ambiguous.  Allocates only to
   raise. *)
let index_of (s : t) ~rel ~name =
  let unqualified = rel = "" && count ~unqualified:true ~rel ~name s > 0 in
  if rel = "" && count ~unqualified ~rel ~name s > 1 then
    failwith (Printf.sprintf "ambiguous column reference: %s" name);
  position ~unqualified ~rel ~name 0 s

let find (s : t) ~rel ~name = List.nth s (index_of s ~rel ~name)

let find_opt (s : t) ~rel ~name =
  match index_of s ~rel ~name with
  | i -> Some (i, List.nth s i)
  | exception Not_found -> None

let mem (s : t) ~rel ~name = find_opt s ~rel ~name <> None

(* Concatenation for joins: left columns first. *)
let concat (a : t) (b : t) : t = a @ b

(* Re-qualify every column under a new alias (view renaming). *)
let requalify (s : t) ~rel = List.map (fun c -> { c with rel }) s

let pp_column ppf c =
  if c.rel = "" then Fmt.pf ppf "%s:%s" c.name (Value.ty_name c.ty)
  else Fmt.pf ppf "%s.%s:%s" c.rel c.name (Value.ty_name c.ty)

let pp ppf s = Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ", ") pp_column) s
