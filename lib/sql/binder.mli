(** Name resolution and lowering of parsed SQL to QGM blocks.  Scopes are
    searched innermost-first: a name resolving in an enclosing scope makes
    the subquery correlated.  Aggregate queries are normalized onto
    key/aggregate aliases, matching the QGM/lowering convention.  A bound
    block is checked by {!Verify.block}, the plan lint's block checker:
    a query binds exactly when its block lints clean. *)

exception Error of string

(** Bind one SELECT against a catalog; [views] supplies CREATE VIEW
    definitions by name.  @raise Error on an unknown or ambiguous name,
    NOT IN, a non-grouped column in a grouped query (also inside a HAVING
    subquery, which sees only the block's grouping columns of its
    sources), a WHERE reference to an outer-joined relation (WHERE is
    applied before outerjoins attach), or the first error {!Verify.block}
    reports on the bound block — a name outside its clause's scope (an ON
    predicate sees the relations joined before it and its own), a
    relation alias bound twice, a subquery of more
    than one column under IN or a comparison, and the type errors of
    {!Relalg.Typing.check} (message prefixed [type error:]): arithmetic or
    a comparison on operands of types that do not combine, SUM or AVG of
    a non-number, a non-boolean predicate or connective operand. *)
val bind :
  ?views:(string * Ast.select) list -> Storage.Catalog.t -> Ast.select ->
  Rewrite.Qgm.block

(** Bind a full query expression (UNION [ALL] chains), each arm as
    {!bind} does.  @raise Error as {!bind} does, and on arity mismatch
    between union arms. *)
val bind_query :
  ?views:(string * Ast.select) list -> Storage.Catalog.t -> Ast.query ->
  Rewrite.Qgm.query

(** Bind a script of CREATE VIEW statements followed by one query. *)
val bind_script : Storage.Catalog.t -> Ast.statement list -> Rewrite.Qgm.query

(** Parse then bind a full query ({!bind_script} for scripts). *)
val query_of_string :
  ?views:(string * Ast.select) list -> Storage.Catalog.t -> string ->
  Rewrite.Qgm.query

(** Back-compatible single-block entry point.
    @raise Error when the text is a UNION. *)
val of_string :
  ?views:(string * Ast.select) list -> Storage.Catalog.t -> string ->
  Rewrite.Qgm.block
