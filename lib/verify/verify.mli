(** Plan Lint: static well-formedness and semantics-preservation checking
    for every optimizer stage.

    The paper's contract is that rewrites and enumerated plans are
    semantics-preserving — its cautionary tale being the "count bug" of
    naive aggregate-subquery unnesting (Section 4.2.2), and its physical
    property machinery (Section 3) only working when sort requirements are
    actually met.  This library checks those invariants statically:

    - {!physical} / {!Physical.check} lint a physical plan against a
      catalog, including order-propagation analysis;
    - {!block} lints a QGM block (scoping of every clause, including
      subquery predicates and correlation);
    - {!check_rewrite} is the oracle for {!Rewrite.Rules.run}'s [~check]
      mode: schema preservation plus a count-bug shape detector, tagged
      with the offending rule's name. *)

open Relalg

module Diag = Diag
module Physical = Physical

val physical : Storage.Catalog.t -> Exec.Plan.t -> Diag.t list

(** Non-raising variant of {!Rewrite.Qgm.block_schema}: columns whose type
    cannot be determined fall back to [Tint]. *)
val safe_block_schema : Rewrite.Qgm.block -> Schema.t

(** Lint a QGM block: every clause is checked in its proper scope (WHERE
    sees the FROM sources; outerjoin predicates see the sources joined so
    far; select/having/order-by see the grouped schema when grouping).
    The operand of IN, or of a comparison with a subquery, must compare
    with the subquery's output column.  [outer] supplies correlation
    columns visible from enclosing blocks.  A grouped block's keys and
    aggregates are named in messages by their SQL text.
    Codes as in {!Relalg.Typing.error} plus [duplicate-alias] (a derived
    source's output names, which are referenced by name, must be unique;
    a block's own need not be), [duplicate-relation-alias] and
    [subquery-arity].  The SQL binder raises the first error. *)
val block : ?outer:Schema.t -> Rewrite.Qgm.block -> Diag.t list

(** Does the rewrite keep the block's output schema up to renaming —
    same arity, same column types position by position?  Violations are
    reported with code [schema-change]. *)
val preserves_schema :
  before:Rewrite.Qgm.block -> after:Rewrite.Qgm.block -> Diag.t list

(** The rewrite oracle: {!preserves_schema}, a count-bug shape check
    (code [count-bug]: the rewrite inner-joined into FROM, instead of
    outerjoining, a source that carries an aggregate — a new top-level
    aggregate ranging over it, or a new grouped view whose COUNT a WHERE
    conjunct compares — so zero-match outer tuples are lost), and a
    {!block} well-formedness pass over
    the result — all tagged with ["rule <name>"]. *)
val check_rewrite :
  rule:string -> before:Rewrite.Qgm.block -> after:Rewrite.Qgm.block ->
  Diag.t list
