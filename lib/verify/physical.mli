(** Static checking of physical plans.

    Three families of checks, none of which execute the plan:

    - {b well-formedness}: every table exists in the catalog, every column
      reference and predicate typechecks against the operator's input
      schema, hash/merge join key pairs resolve on their respective sides
      with comparable types;
    - {b order propagation} (the physical-property machinery of Section 3):
      the sort order each operator delivers is computed bottom-up and
      checked against the requirements of [Merge_join] (both inputs sorted
      ascending on the key pairs) and [Stream_agg] (input grouped on the
      keys) — a violation means a missing [Sort] enforcer;
    - {b index validity}: [Index_scan] needs a catalog index whose leading
      column matches, [Index_nl] needs the named index with the probed
      columns a key prefix and one probe expression per column. *)

(** The sort order a plan delivers, computed bottom-up: index scans
    deliver their key column ascending, [Sort] delivers its keys, joins
    preserve the outer/left (probe) order, hash operators destroy order,
    [Project]/[Stream_agg] remap order columns through their output
    aliases. *)
val produced_order : Exec.Plan.t -> Cost.Physical_props.order

(** The output columns of a projection ([aggs = []]) or a grouping over
    a schema, an undeterminable type falling back to [Tint], and their
    typing errors. *)
val columns :
  Relalg.Schema.t -> (Relalg.Expr.t * string) list ->
  (Relalg.Expr.agg * string) list -> Relalg.Schema.t * Diag.t list

(** Codes produced: every {!Relalg.Typing.error} code plus [unknown-table],
    [unknown-index], [index-prefix-mismatch], [probe-arity],
    [key-type-mismatch], [unsorted-input], [duplicate-alias],
    [merge-join-no-keys]. *)
val check : Storage.Catalog.t -> Exec.Plan.t -> Diag.t list
