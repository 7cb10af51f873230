(* Static typing of expressions (see the .mli).  One recursion, [synth],
   assigns every type; it is told what to do at an ill-typed subterm by
   [fail], which the raising instance ([infer]) makes raise and the
   checking instance ([check]) makes collect. *)

exception Error of string

type error = { code : string; term : Expr.t; message : string }

(* [Some ty] without allocating: each arm is a static constant. *)
let known : Value.ty -> Value.ty option = function
  | Value.Tbool -> Some Value.Tbool
  | Value.Tint -> Some Value.Tint
  | Value.Tfloat -> Some Value.Tfloat
  | Value.Tstring -> Some Value.Tstring

(* The arithmetic typing table: [None] when the operands do not combine. *)
let binop_ty (op : Expr.binop) (ta : Value.ty) (tb : Value.ty) :
  Value.ty option =
  match op, ta, tb with
  | Expr.Add, Value.Tstring, Value.Tstring -> Some Value.Tstring
  | (Expr.Add | Expr.Sub | Expr.Mul | Expr.Mod | Expr.Div), Value.Tint,
    Value.Tint ->
    Some Value.Tint
  | _, (Value.Tint | Value.Tfloat), (Value.Tint | Value.Tfloat) ->
    Some Value.Tfloat
  | _ -> None

let numeric = function Value.Tint | Value.Tfloat -> true | _ -> false

let comparable a b = a = b || (numeric a && numeric b)

(* A column's type, without allocating; [None] when the reference does
   not resolve. *)
let col_ty schema ({ rel; col } : Expr.col_ref) =
  match Schema.find schema ~rel ~name:col with
  | c -> known c.Schema.ty
  | exception (Not_found | Failure _) -> None

(* Why a column reference does not resolve: an unqualified name matching
   two columns, no such alias, or no such column. *)
let unresolved schema ({ rel; col } : Expr.col_ref) =
  let shown = if rel = "" then col else rel ^ "." ^ col in
  match Schema.index_of schema ~rel ~name:col with
  | exception Failure _ ->
    ( "ambiguous-column",
      Fmt.str "unqualified column %s is ambiguous in %a" col Schema.pp schema )
  | _ | (exception Not_found) ->
    let in_scope =
      rel = ""
      || List.exists (fun (c : Schema.column) -> c.Schema.rel = rel) schema
    in
    ( (if in_scope then "unknown-column" else "out-of-scope"),
      Fmt.str "column %s does not resolve in %a" shown Schema.pp schema )

(* The one typing recursion.  A type is [None] when it is not determined
   — an untyped NULL, or a subterm already reported — and [None] passes
   every rule, so one fault is reported once.  [fail code term message]
   is told of each ill-typed subterm.  The arguments are passed, not
   captured, so a well-typed expression is typed without allocating. *)
let rec synth show fail schema (e : Expr.t) : Value.ty option =
  match e with
  | Expr.Const v -> Value.type_of v
  | Expr.Col c -> (
    match col_ty schema c with
    | Some _ as ty -> ty
    | None ->
      let code, message = unresolved schema c in
      fail code e message;
      None)
  | Expr.Binop (op, a, b) -> (
    let ta = synth show fail schema a in
    let tb = synth show fail schema b in
    match ta, tb with
    | Some ta, Some tb -> (
      match binop_ty op ta tb with
      | Some _ as ty -> ty
      | None ->
        fail "type-mismatch" e
          (Fmt.str "arithmetic on %s and %s in %s" (Value.ty_name ta)
             (Value.ty_name tb) (show e));
        None)
    | _ -> None)
  | Expr.Cmp (_, a, b) ->
    let ta = synth show fail schema a in
    let tb = synth show fail schema b in
    (match ta, tb with
     | Some ta, Some tb when not (comparable ta tb) ->
       fail "type-mismatch" e
         (Fmt.str "comparison between %s and %s in %s" (Value.ty_name ta)
            (Value.ty_name tb) (show e))
     | _ -> ());
    Some Value.Tbool
  | Expr.And (a, b) | Expr.Or (a, b) ->
    operand show fail schema a;
    operand show fail schema b;
    Some Value.Tbool
  | Expr.Not a ->
    operand show fail schema a;
    Some Value.Tbool
  | Expr.Is_null a ->
    ignore (synth show fail schema a);
    Some Value.Tbool
  | Expr.Udf (_, args) ->
    (* UDFs act as user-defined predicates (Section 7.2); their argument
       types are their own business, but the references must resolve *)
    List.iter (fun a -> ignore (synth show fail schema a)) args;
    Some Value.Tbool

(* The boolean rule on an operand of AND, OR or NOT; [check_predicate]
   applies it to a predicate. *)
and operand show fail schema x =
  match synth show fail schema x with
  | Some Value.Tbool | None -> ()
  | Some ty ->
    fail "type-mismatch" x
      (Fmt.str "boolean connective applied to %s operand %s"
         (Value.ty_name ty) (show x))

let synth_agg fail schema (a : Expr.agg) : Value.ty option =
  match Expr.agg_arg a with
  | None -> known (Expr.agg_ty a None)
  | Some arg -> (
    match Expr.agg_ty a (synth Expr.to_string fail schema arg) with
    | ty -> known ty
    | exception Expr.Type_error m ->
      (* an aggregate's argument never names a grouped output, so it is
         shown as it is *)
      fail "type-mismatch" arg (Fmt.str "%s in %a" m Expr.pp_agg a);
      None)

(* ------------------------------------------------------------------ *)
(* The checking instance *)

let collect run =
  let errors = ref [] in
  let fail code term message = errors := { code; term; message } :: !errors in
  let ty = run fail in
  (ty, List.rev !errors)

let check ?(show = Expr.to_string) schema e =
  collect (fun fail -> synth show fail schema e)

let check_agg schema a = collect (fun fail -> synth_agg fail schema a)

let check_predicate ?(show = Expr.to_string) schema e =
  snd
    (collect (fun fail ->
         match synth show fail schema e with
         | Some Value.Tbool | None -> ()
         | Some ty ->
           fail "non-boolean-predicate" e
             (Fmt.str "predicate %s has type %s, expected bool" (show e)
                (Value.ty_name ty))))

let check_comparison ?(show = Expr.to_string) term ta tb =
  match ta, tb with
  | Some ta, Some tb when not (comparable ta tb) ->
    [ { code = "type-mismatch"; term;
        message =
          Fmt.str "%s %s compared with a subquery column of type %s"
            (Value.ty_name ta) (show term) (Value.ty_name tb) } ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* The raising instance *)

let raising _code _term message = raise (Error message)

(* An undetermined type (an untyped NULL) defaults to int. *)
let infer schema e =
  match synth Expr.to_string raising schema e with
  | Some ty -> ty
  | None -> Value.Tint

let infer_agg schema a =
  match synth_agg raising schema a with
  | Some ty -> ty
  | None -> Value.Tint
