(** Structured diagnostics for the plan linter.

    A diagnostic carries a severity, a stable machine-readable [code], the
    path of operator labels from the root to the offending node, and a
    human-readable message.  Checkers return lists of diagnostics instead
    of raising, so a single lint pass reports every problem it finds. *)

type severity = Error | Warning

type t = {
  severity : severity;
  code : string;  (** stable identifier, e.g. ["unsorted-input"] *)
  path : string list;  (** operator labels, root first *)
  message : string;
}

val error : ?path:string list -> code:string -> string -> t
val warning : ?path:string list -> code:string -> string -> t

(** Typing errors ({!Relalg.Typing.check} and its variants) as error
    diagnostics with the same codes: the lint's one wrapper of them. *)
val of_typing : Relalg.Typing.error list -> t list

(** {!of_typing} of {!Relalg.Typing.check}, and of
    {!Relalg.Typing.check_predicate}. *)
val typing : Relalg.Schema.t -> Relalg.Expr.t -> t list
val predicate : Relalg.Schema.t -> Relalg.Expr.t -> t list

(** One error [code] per repeat of a name already in [names], naming it
    as a duplicate [what]. *)
val duplicates : code:string -> what:string -> string list -> t list

(** Prefix every diagnostic's path with one more root label. *)
val within : string -> t list -> t list

val errors : t list -> t list
val warnings : t list -> t list
val has_errors : t list -> bool

(** Is there a diagnostic with this code? *)
val mem : code:string -> t list -> bool

val pp : Format.formatter -> t -> unit
val pp_list : Format.formatter -> t list -> unit
val to_string : t -> string
