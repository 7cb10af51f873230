(** Name resolution and lowering of parsed SQL to QGM blocks.  Scopes are
    searched innermost-first: a name resolving in an enclosing scope makes
    the subquery correlated.  Aggregate queries are normalized onto
    key/aggregate aliases, matching the QGM/lowering convention. *)

exception Error of string

(** Bind one SELECT against a catalog; [views] supplies CREATE VIEW
    definitions by name.  @raise Error on unknown/ambiguous names, NOT IN,
    non-grouped columns in grouped queries, WHERE references to
    outer-joined relations (WHERE is applied before outerjoins attach;
    those columns are visible in SELECT / GROUP BY / HAVING / ORDER BY),
    or the first error {!Relalg.Typing.check} reports in any clause —
    arithmetic or a comparison on operands of types that do not combine,
    SUM or AVG of a non-number, a non-boolean predicate or connective
    operand, the operand of IN or of a subquery comparison against the
    subquery's column (message prefixed [type error:]). *)
val bind :
  ?views:(string * Ast.select) list -> Storage.Catalog.t -> Ast.select ->
  Rewrite.Qgm.block

(** Bind a full query expression (UNION [ALL] chains).
    @raise Error on arity mismatch between union arms. *)
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
