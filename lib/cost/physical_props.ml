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

(* One element of an order: same column, same direction.  Orders and
   their elements are often physically shared (a join inherits its
   input's order list), so physical equality answers first. *)
let equal_key ((c1, d1) as k1) ((c2, d2) as k2) =
  k1 == k2 || (d1 = d2 && (c1 == c2 || equal_col c1 c2))

(* A stream ordered on [have] satisfies a requirement [want] iff [want] is a
   prefix of [have].  ([equal_key] is spelled out: the optimizer's
   dominance checks call this in their inner loop.) *)
let rec satisfies ~(have : order) ~(want : order) =
  have == want
  ||
  match have, want with
  | _, [] -> true
  | [], _ :: _ -> false
  | ((c1, d1) as k1) :: h', ((c2, d2) as k2) :: w' ->
    (k1 == k2 || (d1 = d2 && (c1 == c2 || equal_col c1 c2)))
    && satisfies ~have:h' ~want:w'

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
