(* SQL pretty-printer — the inverse of the parser, on one line.

   The only subtlety is parenthesization: the parser right-associates
   AND/OR chains and folds arithmetic left-to-right, so a naive
   precedence-based printer would round-trip to a differently-shaped AST.
   Wrapping every compound operand in parentheses makes the reparse
   reconstruct the exact tree, which is what the fuzzer's round-trip
   oracle compares (after binding). *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The lexer has no exponent syntax, so force plain decimal notation. *)
let float_repr f =
  let s = Printf.sprintf "%.12g" f in
  if String.contains s 'e' || not (String.contains s '.') then
    Printf.sprintf "%.1f" f
  else s

let agg_name = function
  | Ast.Fn_count -> "COUNT"
  | Ast.Fn_sum -> "SUM"
  | Ast.Fn_min -> "MIN"
  | Ast.Fn_max -> "MAX"
  | Ast.Fn_avg -> "AVG"

let pr_list buf sep pr = function
  | [] -> ()
  | x :: rest ->
    pr buf x;
    List.iter
      (fun y ->
         Buffer.add_string buf sep;
         pr buf y)
      rest

(* Atoms print bare in any operand position; everything else gets parens. *)
let is_atom = function
  | Ast.Lit_int _ | Ast.Lit_float _ | Ast.Lit_string _ | Ast.Lit_bool _
  | Ast.Lit_null | Ast.Column _ | Ast.Agg _ -> true
  | _ -> false

let rec pr_expr buf (e : Ast.expr) =
  let add = Buffer.add_string buf in
  let operand e =
    if is_atom e then pr_expr buf e
    else begin
      add "(";
      pr_expr buf e;
      add ")"
    end
  in
  match e with
  | Ast.Lit_int i -> add (string_of_int i)
  | Ast.Lit_float f -> add (float_repr f)
  | Ast.Lit_string s ->
    add "'";
    add (escape s);
    add "'"
  | Ast.Lit_bool b -> add (if b then "TRUE" else "FALSE")
  | Ast.Lit_null -> add "NULL"
  | Ast.Column (None, c) -> add c
  | Ast.Column (Some q, c) ->
    add q;
    add ".";
    add c
  | Ast.Binop (op, a, b) ->
    operand a;
    add " ";
    add (Relalg.Expr.binop_name op);
    add " ";
    operand b
  | Ast.Cmp (op, a, b) ->
    operand a;
    add " ";
    add (Relalg.Expr.cmp_name op);
    add " ";
    operand b
  | Ast.And (a, b) ->
    operand a;
    add " AND ";
    operand b
  | Ast.Or (a, b) ->
    operand a;
    add " OR ";
    operand b
  | Ast.Not a ->
    add "NOT ";
    add "(";
    pr_expr buf a;
    add ")"
  | Ast.Is_null (a, positive) ->
    operand a;
    add (if positive then " IS NULL" else " IS NOT NULL")
  | Ast.In_query (a, s) ->
    operand a;
    add " IN (";
    pr_select buf s;
    add ")"
  | Ast.Exists (positive, s) ->
    add (if positive then "EXISTS (" else "NOT EXISTS (");
    pr_select buf s;
    add ")"
  | Ast.Cmp_query (op, a, s) ->
    operand a;
    add " ";
    add (Relalg.Expr.cmp_name op);
    add " (";
    pr_select buf s;
    add ")"
  | Ast.Agg (fn, None) ->
    add (agg_name fn);
    add "(*)"
  | Ast.Agg (fn, Some a) ->
    add (agg_name fn);
    add "(";
    pr_expr buf a;
    add ")"

and pr_item buf = function
  | Ast.Star -> Buffer.add_string buf "*"
  | Ast.Item (e, alias) ->
    pr_expr buf e;
    (match alias with
     | None -> ()
     | Some a ->
       Buffer.add_string buf " AS ";
       Buffer.add_string buf a)

and pr_from_item buf = function
  | Ast.Table (name, alias) ->
    Buffer.add_string buf name;
    (match alias with
     | None -> ()
     | Some a ->
       Buffer.add_string buf " AS ";
       Buffer.add_string buf a)
  | Ast.Subquery (s, alias) ->
    Buffer.add_string buf "(";
    pr_select buf s;
    Buffer.add_string buf ") AS ";
    Buffer.add_string buf alias

and pr_joined buf = function
  | Ast.Plain item -> pr_from_item buf item
  | Ast.Left_outer_join (l, item, pred) ->
    pr_joined buf l;
    Buffer.add_string buf " LEFT OUTER JOIN ";
    pr_from_item buf item;
    Buffer.add_string buf " ON ";
    pr_expr buf pred

and pr_select buf (s : Ast.select) =
  let add = Buffer.add_string buf in
  add "SELECT ";
  if s.Ast.distinct then add "DISTINCT ";
  pr_list buf ", " pr_item s.Ast.items;
  add " FROM ";
  pr_list buf ", " pr_joined s.Ast.from;
  (match s.Ast.where with
   | None -> ()
   | Some e ->
     add " WHERE ";
     pr_expr buf e);
  (match s.Ast.group_by with
   | [] -> ()
   | keys ->
     add " GROUP BY ";
     pr_list buf ", "
       (fun buf e ->
          if is_atom e then pr_expr buf e
          else begin
            Buffer.add_string buf "(";
            pr_expr buf e;
            Buffer.add_string buf ")"
          end)
       keys);
  (match s.Ast.having with
   | None -> ()
   | Some e ->
     add " HAVING ";
     pr_expr buf e);
  match s.Ast.order_by with
  | [] -> ()
  | keys ->
    add " ORDER BY ";
    pr_list buf ", "
      (fun buf (e, d) ->
         if is_atom e then pr_expr buf e
         else begin
           Buffer.add_string buf "(";
           pr_expr buf e;
           Buffer.add_string buf ")"
         end;
         if d = Relalg.Algebra.Desc then Buffer.add_string buf " DESC")
      keys

let rec pr_query buf = function
  | Ast.Single s -> pr_select buf s
  | Ast.Union (l, all, r) ->
    pr_query buf l;
    Buffer.add_string buf (if all then " UNION ALL " else " UNION ");
    pr_query buf r

let with_buf pr x =
  let buf = Buffer.create 256 in
  pr buf x;
  Buffer.contents buf

let query_to_string = with_buf pr_query
