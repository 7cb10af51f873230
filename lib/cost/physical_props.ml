(* Physical properties of data streams (Section 3, generalized from
   System-R's interesting orders by [22]).

   The only physical property single-site plans carry here is sort order;
   the parallel library adds partitioning as a second property the same way
   (Hasan's treatment, Section 7.1). *)

open Relalg

type order = (Expr.col_ref * Algebra.dir) list
(* [] = no known order *)

let no_order : order = []

let equal_col (a : Expr.col_ref) (b : Expr.col_ref) =
  a.Expr.rel = b.Expr.rel && a.Expr.col = b.Expr.col

(* A stream ordered on [have] satisfies a requirement [want] iff [want] is a
   prefix of [have]. *)
let satisfies ~(have : order) ~(want : order) =
  let rec go h w =
    match h, w with
    | _, [] -> true
    | [], _ :: _ -> false
    | (c1, d1) :: h', (c2, d2) :: w' ->
      equal_col c1 c2 && d1 = d2 && go h' w'
  in
  go have want

let pp ppf (o : order) =
  match o with
  | [] -> Fmt.string ppf "(unordered)"
  | _ ->
    Fmt.(list ~sep:(any ", ")
           (fun ppf ((c : Expr.col_ref), d) ->
              Fmt.pf ppf "%s.%s%s" c.Expr.rel c.Expr.col
                (match d with Algebra.Asc -> "" | Algebra.Desc -> " DESC")))
      ppf o

let to_string o = Fmt.str "%a" pp o
