(* Abstract domains for the static plan analyzer:

   - intervals over the reals (with open/closed endpoints and infinities)
     describing the possible *non-NULL* values of a column;
   - a two-point nullability lattice;
   - cardinality envelopes [lo, hi] bounding the exact row count of an
     operator's output.

   Everything here is about *provable* facts: meet/meet-style operations
   only ever shrink a set when the shrink is sound, and every widening
   defaults to top.  Estimates live elsewhere (Stats.Derive); these
   domains are what the estimates are checked against. *)

(* ------------------------------------------------------------------ *)
(* Intervals *)

(* Invariant: [lo <= hi].  [lo = neg_infinity] / [hi = infinity] encode
   unbounded sides; an infinite endpoint is always open.  The interval
   constrains only non-NULL values — NULL is tracked separately, so
   NULL-padding (outer joins) never invalidates an interval. *)
type interval = {
  lo : float;
  lo_open : bool;
  hi : float;
  hi_open : bool;
}

let top =
  { lo = neg_infinity; lo_open = true; hi = infinity; hi_open = true }

let is_top (i : interval) = i.lo = neg_infinity && i.hi = infinity

let point v = { lo = v; lo_open = false; hi = v; hi_open = false }

let at_least ?(strict = false) v =
  { lo = v; lo_open = strict; hi = infinity; hi_open = true }

let at_most ?(strict = false) v =
  { lo = neg_infinity; lo_open = true; hi = v; hi_open = strict }

let closed lo hi = { lo; lo_open = false; hi; hi_open = false }

(* An interval is empty when its endpoints cross, or touch with an open
   side. *)
let is_empty (i : interval) =
  i.lo > i.hi || (i.lo = i.hi && (i.lo_open || i.hi_open))

(* Greatest lower bound; [None] when the intersection is empty. *)
let meet (a : interval) (b : interval) : interval option =
  let lo, lo_open =
    if a.lo > b.lo then (a.lo, a.lo_open)
    else if b.lo > a.lo then (b.lo, b.lo_open)
    else (a.lo, a.lo_open || b.lo_open)
  in
  let hi, hi_open =
    if a.hi < b.hi then (a.hi, a.hi_open)
    else if b.hi < a.hi then (b.hi, b.hi_open)
    else (a.hi, a.hi_open || b.hi_open)
  in
  let m = { lo; lo_open; hi; hi_open } in
  if is_empty m then None else Some m

(* Least upper bound (convex hull). *)
let join (a : interval) (b : interval) : interval =
  let lo, lo_open =
    if a.lo < b.lo then (a.lo, a.lo_open)
    else if b.lo < a.lo then (b.lo, b.lo_open)
    else (a.lo, a.lo_open && b.lo_open)
  in
  let hi, hi_open =
    if a.hi > b.hi then (a.hi, a.hi_open)
    else if b.hi > a.hi then (b.hi, b.hi_open)
    else (a.hi, a.hi_open && b.hi_open)
  in
  { lo; lo_open; hi; hi_open }

let contains (i : interval) (v : float) =
  (v > i.lo || (v = i.lo && not i.lo_open))
  && (v < i.hi || (v = i.hi && not i.hi_open))

(* Restricted to integer values, is the interval empty?  Used only for
   contradiction detection on int-typed columns (e.g. x > 5 AND x < 6);
   never to tighten emitted predicates. *)
let is_empty_int (i : interval) =
  is_empty i
  ||
  (* smallest / largest integer inside the interval *)
  let lo =
    if i.lo = neg_infinity then neg_infinity
    else if i.lo_open then floor i.lo +. 1.
    else ceil i.lo
  and hi =
    if i.hi = infinity then infinity
    else if i.hi_open then ceil i.hi -. 1.
    else floor i.hi
  in
  lo > hi

(* Interval arithmetic for the few operators the analyzer propagates
   through projections. *)
let add (a : interval) (b : interval) =
  { lo = a.lo +. b.lo;
    lo_open = a.lo_open || b.lo_open;
    hi = a.hi +. b.hi;
    hi_open = a.hi_open || b.hi_open }

let neg (a : interval) =
  { lo = -.a.hi; lo_open = a.hi_open; hi = -.a.lo; hi_open = a.lo_open }

let sub a b = add a (neg b)

let pp_interval ppf (i : interval) =
  Fmt.pf ppf "%c%g, %g%c"
    (if i.lo_open then '(' else '[')
    i.lo i.hi
    (if i.hi_open then ')' else ']')

(* ------------------------------------------------------------------ *)
(* Nullability *)

type nullability = Non_null | Maybe_null

let null_join a b =
  match (a, b) with Non_null, Non_null -> Non_null | _ -> Maybe_null

let pp_nullability ppf = function
  | Non_null -> Fmt.string ppf "non-null"
  | Maybe_null -> Fmt.string ppf "maybe-null"

(* ------------------------------------------------------------------ *)
(* Abstract column values *)

type aval = {
  itv : interval;  (* possible non-NULL values (numeric columns) *)
  null : nullability;
  ty : Relalg.Value.ty option;  (* when statically known *)
}

let aval_top = { itv = top; null = Maybe_null; ty = None }

let aval_join a b =
  { itv = join a.itv b.itv;
    null = null_join a.null b.null;
    ty = (if a.ty = b.ty then a.ty else None) }

(* ------------------------------------------------------------------ *)
(* Cardinality envelopes *)

(* Provable bounds on the exact output row count: lo <= |output| <= hi.
   [hi = infinity] means unbounded above. *)
type envelope = { e_lo : float; e_hi : float }

let env_top = { e_lo = 0.; e_hi = infinity }
let env_exact n = { e_lo = n; e_hi = n }
let env_empty = { e_lo = 0.; e_hi = 0. }
let env_is_empty (e : envelope) = e.e_hi <= 0.

let env_contains (e : envelope) (n : float) = n >= e.e_lo && n <= e.e_hi

let pp_envelope ppf (e : envelope) =
  if e.e_hi = infinity then Fmt.pf ppf "[%g, inf)" e.e_lo
  else Fmt.pf ppf "[%g, %g]" e.e_lo e.e_hi
