(** SQL pretty-printer: renders an AST back to a single line of parseable
    text.  The contract — property-tested by the fuzzer — is that printing
    then re-lexing, re-parsing and re-binding yields a QGM tree equal to
    binding the original AST directly.  Compound sub-expressions are
    parenthesized conservatively so the parser reconstructs the exact tree
    shape regardless of its associativity choices. *)

val query_to_string : Ast.query -> string
