(* Scalar expressions with SQL three-valued logic.

   Evaluation is two-stage: compiling resolves every column reference to
   a position once, returning a closure evaluated per tuple.  There is
   one value compiler and one held-predicate compiler, each with a
   one-tuple and a two-tuple (join) instance. *)

type col_ref = { rel : string; col : string }

type binop = Add | Sub | Mul | Div | Mod

type cmpop = Eq | Neq | Lt | Le | Gt | Ge

type t =
  | Const of Value.t
  | Col of col_ref
  | Binop of binop * t * t
  | Cmp of cmpop * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Is_null of t
  | Udf of udf * t list
      (* user-defined function/predicate with an optimizer-visible cost and
         selectivity contract (Section 7.2 of the paper) *)

and udf = {
  udf_name : string;
  udf_fn : Value.t list -> Value.t;
  udf_cost_per_tuple : float; (* CPU cost units per invocation *)
  udf_selectivity : float;    (* fraction of tuples passing when boolean *)
}

let col ~rel ~col = Col { rel; col }
let int i = Const (Value.Int i)
let str s = Const (Value.Str s)
let bool b = Const (Value.Bool b)
let ftrue = Const (Value.Bool true)

let cmp_name = function
  | Eq -> "=" | Neq -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"

let rec pp ppf = function
  | Const v -> Value.pp ppf v
  | Col { rel; col } ->
    if rel = "" then Fmt.string ppf col else Fmt.pf ppf "%s.%s" rel col
  | Binop (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (binop_name op) pp b
  | Cmp (op, a, b) -> Fmt.pf ppf "%a %s %a" pp a (cmp_name op) pp b
  | And (a, b) -> Fmt.pf ppf "(%a AND %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a OR %a)" pp a pp b
  | Not a -> Fmt.pf ppf "NOT (%a)" pp a
  | Is_null a -> Fmt.pf ppf "%a IS NULL" pp a
  | Udf (u, args) ->
    Fmt.pf ppf "%s(%a)" u.udf_name Fmt.(list ~sep:(any ", ") pp) args

let to_string e = Fmt.str "%a" pp e

(* Columns referenced by an expression, in occurrence order, deduplicated. *)
let columns e =
  let acc = ref [] in
  let add c = if not (List.mem c !acc) then acc := c :: !acc in
  let rec go = function
    | Const _ -> ()
    | Col c -> add c
    | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) -> go a; go b
    | Not a | Is_null a -> go a
    | Udf (_, args) -> List.iter go args
  in
  go e;
  List.rev !acc

(* Rebuild [e] with [f] applied at its leaves. *)
let rec map f e =
  match e with
  | Const _ | Col _ -> f e
  | Binop (op, a, b) -> Binop (op, map f a, map f b)
  | Cmp (op, a, b) -> Cmp (op, map f a, map f b)
  | And (a, b) -> And (map f a, map f b)
  | Or (a, b) -> Or (map f a, map f b)
  | Not a -> Not (map f a)
  | Is_null a -> Is_null (map f a)
  | Udf (u, args) -> Udf (u, List.map (map f) args)

(* Relation aliases an expression depends on. *)
let relations e =
  columns e |> List.map (fun c -> c.rel)
  |> List.sort_uniq String.compare

exception Type_error of string

let arith op a b =
  let open Value in
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> (
    match op with
    | Add -> Int (x + y)
    | Sub -> Int (x - y)
    | Mul -> Int (x * y)
    | Div -> if y = 0 then Null else Int (x / y)
    | Mod -> if y = 0 then Null else Int (x mod y))
  | (Int _ | Float _), (Int _ | Float _) ->
    let x = Option.get (to_float a) and y = Option.get (to_float b) in
    (match op with
     | Add -> Float (x +. y)
     | Sub -> Float (x -. y)
     | Mul -> Float (x *. y)
     | Div -> if y = 0. then Null else Float (x /. y)
     | Mod -> if y = 0. then Null else Float (Float.rem x y))
  | Str x, Str y when op = Add -> Str (x ^ y)
  | (Bool _ | Str _), _ | _, (Bool _ | Str _) ->
    raise (Type_error
             (Fmt.str "arith %s on %a, %a" (binop_name op) Value.pp a Value.pp b))

let compare_op op c =
  match op with
  | Eq -> c = 0 | Neq -> c <> 0 | Lt -> c < 0 | Le -> c <= 0
  | Gt -> c > 0 | Ge -> c >= 0

(* Three-valued boolean combinators on Value.t (Null = UNKNOWN). *)
let v3_and a b =
  let open Value in
  match a, b with
  | Bool false, _ | _, Bool false -> Bool false
  | Bool true, x | x, Bool true -> x
  | Null, Null -> Null
  | _ -> raise (Type_error "AND on non-boolean")

let v3_or a b =
  let open Value in
  match a, b with
  | Bool true, _ | _, Bool true -> Bool true
  | Bool false, x | x, Bool false -> x
  | Null, Null -> Null
  | _ -> raise (Type_error "OR on non-boolean")

let v3_not = function
  | Value.Bool b -> Value.Bool (not b)
  | Value.Null -> Value.Null
  | Value.Int _ | Value.Float _ | Value.Str _ ->
    raise (Type_error "NOT on non-boolean")

(* The one value compiler: two-argument closures, [col] compiling a
   column reference into a reader of the input(s). *)
let compile_with (col : col_ref -> 'a -> 'b -> Value.t) e : 'a -> 'b -> Value.t =
  let rec go e =
    match e with
    | Const v -> fun _ _ -> v
    | Col r -> col r
    | Binop (op, a, b) ->
      let fa = go a and fb = go b in
      fun x y -> arith op (fa x y) (fb x y)
    | Cmp (op, a, b) ->
      let fa = go a and fb = go b in
      fun x y ->
        (match Value.sql_cmp (fa x y) (fb x y) with
         | None -> Value.Null
         | Some c -> Value.Bool (compare_op op c))
    | And (a, b) ->
      let fa = go a and fb = go b in
      fun x y -> v3_and (fa x y) (fb x y)
    | Or (a, b) ->
      let fa = go a and fb = go b in
      fun x y -> v3_or (fa x y) (fb x y)
    | Not a ->
      let fa = go a in
      fun x y -> v3_not (fa x y)
    | Is_null a ->
      let fa = go a in
      fun x y -> Value.Bool (Value.is_null (fa x y))
    | Udf (u, args) ->
      let fs = List.map go args in
      fun x y -> u.udf_fn (List.map (fun f -> f x y) fs)
  in
  go e

(* The one held-predicate compiler: "[e] evaluates to [Bool true]" (SQL
   WHERE: UNKNOWN rejects).  Under three-valued logic x AND y is held iff
   both are, x OR y iff either is, and a comparison iff [Value.sql_cmp] is
   conclusive and the operator accepts its sign, so that fragment compiles
   to unboxed booleans; anything else tests the value. *)
let holds_with (col : col_ref -> 'a -> 'b -> Value.t) e : 'a -> 'b -> bool =
  let rec go e =
    match e with
    | Const (Value.Bool b) -> fun _ _ -> b
    | Cmp (op, a, b) ->
      let fa = compile_with col a and fb = compile_with col b in
      fun x y ->
        (match Value.sql_cmp (fa x y) (fb x y) with
         | None -> false
         | Some c -> compare_op op c)
    | And (a, b) ->
      let pa = go a and pb = go b in
      fun x y -> pa x y && pb x y
    | Or (a, b) ->
      let pa = go a and pb = go b in
      fun x y -> pa x y || pb x y
    | _ ->
      let f = compile_with col e in
      fun x y -> (match f x y with Value.Bool true -> true | _ -> false)
  in
  go e

let resolve schema { rel; col } =
  try Schema.index_of schema ~rel ~name:col
  with Not_found ->
    raise (Type_error (Fmt.str "unknown column %s.%s in schema %a" rel col
                         Schema.pp schema))

(* One tuple, the second argument unit. *)
let col1 schema r =
  let i = resolve schema r in
  fun t () -> Tuple.get t i

(* A join's two tuples: a reference resolves against their concatenated
   schema, then reads its side directly — no concatenated tuple. *)
let col2 left right =
  let nl = Schema.arity left and combined = Schema.concat left right in
  fun r ->
    let i = resolve combined r in
    if i < nl then fun a _ -> Tuple.get a i
    else
      let j = i - nl in
      fun _ b -> Tuple.get b j

let compile schema e =
  let f = compile_with (col1 schema) e in
  fun t -> f t ()

let eval schema tuple e = compile schema e tuple

let holds schema e =
  let p = holds_with (col1 schema) e in
  fun t -> p t ()

let compile2 left right e = compile_with (col2 left right) e

let holds2 left right e = holds_with (col2 left right) e

(* ------------------------------------------------------------------ *)
(* Aggregates *)

type agg =
  | Count_star
  | Count of t
  | Sum of t
  | Min of t
  | Max of t
  | Avg of t

let agg_arg = function
  | Count_star -> None
  | Count e | Sum e | Min e | Max e | Avg e -> Some e

let pp_agg ppf = function
  | Count_star -> Fmt.string ppf "COUNT(*)"
  | Count e -> Fmt.pf ppf "COUNT(%a)" pp e
  | Sum e -> Fmt.pf ppf "SUM(%a)" pp e
  | Min e -> Fmt.pf ppf "MIN(%a)" pp e
  | Max e -> Fmt.pf ppf "MAX(%a)" pp e
  | Avg e -> Fmt.pf ppf "AVG(%a)" pp e

(* Streaming aggregate state: fold values, then finalize.  SUM/AVG follow
   SQL semantics (NULL on empty/no non-null input; COUNT is 0). *)
(* [sum] is a one-slot float array: a mutable float field of a mixed
   record would box on every step. *)
type agg_state = { mutable count : int; sum : float array;
                   mutable any_float : bool;
                   mutable minv : Value.t; mutable maxv : Value.t }

let agg_init () =
  { count = 0; sum = [| 0. |]; any_float = false;
    minv = Value.Null; maxv = Value.Null }

let agg_step st (v : Value.t) =
  if not (Value.is_null v) then begin
    st.count <- st.count + 1;
    (match v with
     | Value.Int i -> st.sum.(0) <- st.sum.(0) +. float_of_int i
     | Value.Float f -> st.sum.(0) <- st.sum.(0) +. f; st.any_float <- true
     | Value.Bool _ | Value.Str _ | Value.Null -> ());
    if Value.is_null st.minv || Value.compare v st.minv < 0 then st.minv <- v;
    if Value.is_null st.maxv || Value.compare v st.maxv > 0 then st.maxv <- v
  end

(* Unboxed integer step: identical state evolution to
   [agg_step st (Value.Int k)], but the argument is never boxed — the
   min/max slots allocate a [Value.Int] only when they actually change. *)
let agg_step_int st (k : int) =
  st.count <- st.count + 1;
  st.sum.(0) <- st.sum.(0) +. float_of_int k;
  (match st.minv with
   | Value.Null -> st.minv <- Value.Int k
   | Value.Int m -> if k < m then st.minv <- Value.Int k
   | v -> if Value.compare (Value.Int k) v < 0 then st.minv <- Value.Int k);
  (match st.maxv with
   | Value.Null -> st.maxv <- Value.Int k
   | Value.Int m -> if k > m then st.maxv <- Value.Int k
   | v -> if Value.compare (Value.Int k) v > 0 then st.maxv <- Value.Int k)

let agg_final (a : agg) st : Value.t =
  match a with
  | Count_star | Count _ -> Value.Int st.count
  | Sum _ ->
    if st.count = 0 then Value.Null
    else if st.any_float then Value.Float st.sum.(0)
    else Value.Int (int_of_float st.sum.(0))
  | Min _ -> st.minv
  | Max _ -> st.maxv
  | Avg _ ->
    if st.count = 0 then Value.Null
    else Value.Float (st.sum.(0) /. float_of_int st.count)

(* Combine two partial states (used by staged aggregation, Fig 4c).  Only
   valid for aggregates satisfying Agg(S ∪ S') = combine(Agg S, Agg S'). *)
let agg_combine st st' =
  { count = st.count + st'.count;
    sum = [| st.sum.(0) +. st'.sum.(0) |];
    any_float = st.any_float || st'.any_float;
    minv =
      (if Value.is_null st.minv then st'.minv
       else if Value.is_null st'.minv then st.minv
       else if Value.compare st.minv st'.minv <= 0 then st.minv else st'.minv);
    maxv =
      (if Value.is_null st.maxv then st'.maxv
       else if Value.is_null st'.maxv then st.maxv
       else if Value.compare st.maxv st'.maxv >= 0 then st.maxv else st'.maxv) }

(* Result type of an aggregate, given its argument type.  SUM and AVG of
   a string or bool raise [Type_error]: the aggregation would skip every
   such value yet count it. *)
let agg_ty (a : agg) (arg_ty : Value.ty option) : Value.ty =
  match a, arg_ty with
  | (Count_star | Count _), _ -> Value.Tint
  | (Sum _ | Avg _), Some ((Value.Tstring | Value.Tbool) as ty) ->
    raise
      (Type_error
         (Printf.sprintf "%s of %s"
            (match a with Sum _ -> "SUM" | _ -> "AVG")
            (Value.ty_name ty)))
  | Sum _, Some Value.Tfloat -> Value.Tfloat
  | Sum _, _ -> Value.Tint
  | Avg _, _ -> Value.Tfloat
  | (Min _ | Max _), Some ty -> ty
  | (Min _ | Max _), None -> Value.Tint
