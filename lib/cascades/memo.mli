(** The memo (Section 6.2): groups of logically equivalent expressions.

    For SPJ queries with a fixed global conjunct list, two join trees are
    equivalent iff they cover the same relation subset, so groups are keyed
    by subset bitmasks; a group's logical property is the subset's
    statistical summary, its multi-expressions are the splits, and its
    winners are a Pareto set over (cost, delivered order) — per-physical-
    property bests.

    Logical expressions are hash-consed into a global intern table, making
    duplicate detection one hashtable probe instead of a scan of the
    group's expression list. *)

type group_id = int

type lexpr =
  | Leaf of int  (** relation index *)
  | Split of group_id * group_id  (** left join right (group masks) *)

type group = {
  id : group_id;
  mask : int;
  mutable exprs : lexpr list;
  mutable explored : bool;
  winners : Systemr.Join_order.entry;
      (** the group's statistics and its Pareto set over (cost, order) *)
  mutable optimized : bool;
}

type t = {
  groups : (int, group) Hashtbl.t;  (** mask -> group *)
  interned : (lexpr, int) Hashtbl.t;  (** hash-consed exprs -> intern id *)
  mutable next_id : int;
  mutable expr_count : int;
  mutable rule_firings : int;
  mutable intern_hits : int;
      (** duplicate lexprs caught by the intern table *)
}

val create : unit -> t

(** Find the group for a mask, creating it with the given logical stats. *)
val find_or_create : t -> mask:int -> stats:Stats.Derive.rel_stats -> group

(** Intern an expression, returning its id (stable across calls). *)
val intern : t -> lexpr -> int

(** Add a multi-expression, deduplicated in O(1) via the intern table;
    true when new. *)
val add_expr : t -> group -> lexpr -> bool

val group_count : t -> int
