(* The memo: groups of logically equivalent expressions (Section 6.2).

   For SPJ queries with a fixed global conjunct list, two join trees are
   logically equivalent iff they cover the same set of base relations —
   every conjunct is applied at the lowest node covering its relations.  A
   group is therefore keyed by its relation subset (a bitmask), its logical
   property is the subset's statistical summary, and its multi-expressions
   are the splits (or the base scan).  Winners per required physical
   property are kept as a Pareto set over (cost, delivered order), exactly
   the interesting-orders structure generalized to properties.

   Logical expressions are hash-consed: every [lexpr] is interned into a
   global table mapping it to a small id on first sight.  Because an
   expression's group is determined by its relation mask (Leaf i -> bit i,
   Split (l, r) -> l lor r), membership in the intern table alone answers
   "has this group seen this expression" — duplicate detection is one
   hashtable probe instead of a scan of the group's expression list. *)

type group_id = int

type lexpr =
  | Leaf of int (* relation index *)
  | Split of group_id * group_id (* left join right *)

type group = {
  id : group_id;
  mask : int;
  mutable exprs : lexpr list;
  mutable explored : bool;
  winners : Systemr.Join_order.entry;
      (* the group's statistics and its Pareto set over (cost, order) *)
  mutable optimized : bool;
}

type t = {
  groups : (int, group) Hashtbl.t; (* mask -> group *)
  interned : (lexpr, int) Hashtbl.t; (* hash-consed exprs -> intern id *)
  mutable next_id : int;
  mutable expr_count : int;
  mutable rule_firings : int;
  mutable intern_hits : int; (* duplicate lexprs caught by the intern table *)
}

let create () =
  { groups = Hashtbl.create 64;
    interned = Hashtbl.create 256;
    next_id = 0;
    expr_count = 0;
    rule_firings = 0;
    intern_hits = 0 }

let find_or_create (m : t) ~mask ~stats : group =
  match Hashtbl.find_opt m.groups mask with
  | Some g -> g
  | None ->
    let g =
      { id = m.next_id; mask; exprs = []; explored = false;
        winners = Systemr.Join_order.new_entry stats [];
        optimized = false }
    in
    m.next_id <- m.next_id + 1;
    Hashtbl.replace m.groups mask g;
    g

(* Intern [e], returning its id; a fresh id means it was never seen. *)
let intern (m : t) (e : lexpr) : int =
  match Hashtbl.find_opt m.interned e with
  | Some id -> id
  | None ->
    let id = Hashtbl.length m.interned in
    Hashtbl.replace m.interned e id;
    id

let add_expr (m : t) (g : group) (e : lexpr) : bool =
  (* an lexpr belongs to exactly one group (its mask), so global
     membership implies membership in [g] *)
  if Hashtbl.mem m.interned e then begin
    m.intern_hits <- m.intern_hits + 1;
    false
  end
  else begin
    ignore (intern m e);
    g.exprs <- e :: g.exprs;
    m.expr_count <- m.expr_count + 1;
    true
  end

let group_count (m : t) = Hashtbl.length m.groups
