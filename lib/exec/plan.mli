(** Physical operator trees — the "execution plans" of Figure 1.

    Conventions:
    - [Nested_loop] re-executes its inner (right) child once per outer
      tuple; optimizers wrap expensive inners in [Materialize].
    - [Index_nl] probes an index of the inner base table with a key-prefix
      of expressions evaluated on the outer tuple.
    - [Merge_join] and [Stream_agg] require key-sorted inputs; optimizers
      insert [Sort] enforcers (the physical-property machinery of
      Section 3).
    - [Hash_join] builds on the right child and probes with the left. *)

open Relalg

type join_kind = Algebra.join_kind

type bound = Storage.Btree.bound = Unbounded | Incl of Value.t | Excl of Value.t

type sort_key = { key : Expr.t; descending : bool }

type t =
  | Seq_scan of { table : string; alias : string; filter : Expr.t option }
  | Index_scan of {
      table : string;
      alias : string;
      column : string;  (** indexed leading column *)
      lo : bound;
      hi : bound;
      filter : Expr.t option;  (** residual predicate *)
    }
  | Filter of Expr.t * t
  | Project of (Expr.t * string) list * t
  | Sort of sort_key list * t
  | Materialize of t
  | Nested_loop of { kind : join_kind; pred : Expr.t; outer : t; inner : t }
  | Index_nl of {
      kind : join_kind;
      outer : t;
      table : string;
      alias : string;
      index : string;  (** index name in the catalog *)
      columns : string list;  (** probed key prefix, in index order *)
      outer_keys : Expr.t list;  (** evaluated against the outer tuple *)
      residual : Expr.t;
    }
  | Merge_join of {
      kind : join_kind;
      pairs : (Expr.col_ref * Expr.col_ref) list;  (** (left, right) keys *)
      residual : Expr.t;
      left : t;
      right : t;
    }
  | Hash_join of {
      kind : join_kind;
      pairs : (Expr.col_ref * Expr.col_ref) list;
      residual : Expr.t;
      left : t;  (** probe *)
      right : t;  (** build *)
    }
  | Hash_agg of agg
  | Stream_agg of agg  (** input sorted on keys *)
  | Hash_distinct of t

and agg = {
  keys : (Expr.t * string) list;
  aggs : (Expr.agg * string) list;
  input : t;
}

(** Output schema; scans resolve table schemas through the catalog. *)
val schema : Storage.Catalog.t -> t -> Schema.t

(** Operator-node count. *)
val size : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** One-line operator description (no children) — the head of the [pp]
    rendering, used by EXPLAIN ANALYZE to annotate each node. *)
val describe : t -> string

(** Direct children in execution-tree order (outer/left first). *)
val children : t -> t list

(** Pre-order node list.  The index of a node in this list is its stable
    operator id: both engines execute the same physical tree, so ids are
    comparable across interpreter and batch runs. *)
val preorder : t -> t list

(** [find_id nodes p] is the position of [p] in [nodes] by physical
    identity ([==]); with [nodes] a plan's {!preorder}, [p]'s operator
    id.  The one node lookup every per-node annotation goes through. *)
val find_id : t array -> t -> int option

(** [bottom_up f plan] runs [f node child_values] once per node, children
    first, with [child_values] in {!children} order, and returns every
    node's value in {!preorder} order (index = operator id). *)
val bottom_up : (t -> 'a list -> 'a) -> t -> 'a array

(** {2 Logical readings}

    What a node's physical fields mean as predicates.  The plan
    estimator and the plan analyzer read them from here. *)

(** An [Index_scan]'s key range as a predicate on [alias.column]: the
    lower-bound conjunct, then the upper.  TRUE when unbounded and on
    every other node. *)
val range_pred : t -> Expr.t

(** The predicate a join applies to each pair of rows: [Nested_loop]'s
    [pred]; for [Index_nl] the residual, then each probe equality
    [outer_key = alias.column]; for merge and hash joins the residual,
    then each key equality [left = right].  TRUE on non-join nodes. *)
val join_pred : t -> Expr.t
