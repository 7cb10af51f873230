(* Fast-AGMS (count) sketches for join-size estimation.

   A sketch is a depth x width array of counters.  Each incoming key value
   is hashed once per row: a bucket hash picks the counter and an
   independent +/-1 sign hash decides the direction of the update.  For two
   sketches a, b built with the same seed over the join columns, the dot
   product of row i of a with row i of b is an unbiased estimate of the
   join size |a JOIN b|; the median over the d rows sharpens the
   confidence.  With width w and depth d the classic AGMS guarantee is

     |est - J| <= sqrt(8/w) * sqrt(F2(a) * F2(b))   w.p. >= 1 - exp(-d/8)

   where F2 is the second frequency moment (sum of squared value
   frequencies) of each input.  See Cormode & Garofalakis, "Sketching
   streams through the net", and Izenov et al., "Online Sketch-based
   Query Optimization" (PAPERS.md).

   Hashing is deterministic given the seed (a splitmix64-style finalizer
   over (seed, row, value)), so sketch estimates — and the tests that pin
   them — are reproducible across runs and OCaml versions. *)

type t = {
  width : int;
  depth : int;
  seed : int;
  counters : float array array; (* depth x width; +/-1 increments *)
  mutable items : int; (* non-null values fed *)
}

let default_width = 256
let default_depth = 5

let create ?(width = default_width) ?(depth = default_depth) ?(seed = 0x5eed)
    () : t =
  if width <= 0 || depth <= 0 then
    invalid_arg "Sketch.create: width and depth must be positive";
  { width;
    depth;
    seed;
    counters = Array.init depth (fun _ -> Array.make width 0.);
    items = 0 }

let compatible a b =
  a.width = b.width && a.depth = b.depth && a.seed = b.seed

(* splitmix64-style finalizer with the multipliers truncated to OCaml's
   representable int range.  The multiplications wrap mod 2^62, which is
   fine for mixing. *)
let mix (z : int) : int =
  let z = z * 0x1e3779b97f4a7c15 in
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let hash sk ~row v : int * float =
  let h = mix (sk.seed + (row * 0x9e3779b9) + mix v) in
  let bucket = (h lsr 1) mod sk.width in
  let sign = if h land 1 = 0 then 1. else -1. in
  (bucket, sign)

let update (sk : t) (v : int) : unit =
  for i = 0 to sk.depth - 1 do
    let bucket, sign = hash sk ~row:i v in
    sk.counters.(i).(bucket) <- sk.counters.(i).(bucket) +. sign
  done;
  sk.items <- sk.items + 1

let items sk = sk.items

let median (xs : float array) : float =
  let xs = Array.copy xs in
  Array.sort Float.compare xs;
  let n = Array.length xs in
  if n = 0 then 0.
  else if n mod 2 = 1 then xs.(n / 2)
  else (xs.((n / 2) - 1) +. xs.(n / 2)) /. 2.

let dot (a : float array) (b : float array) : float =
  let acc = ref 0. in
  for j = 0 to Array.length a - 1 do
    acc := !acc +. (a.(j) *. b.(j))
  done;
  !acc

(* Estimated join size |a JOIN b| on the sketched columns.  Raises
   [Invalid_argument] when the sketches were built with different shapes
   or seeds (their rows would not be comparable). *)
let join_estimate (a : t) (b : t) : float =
  if not (compatible a b) then
    invalid_arg "Sketch.join_estimate: incompatible sketches";
  median (Array.init a.depth (fun i -> dot a.counters.(i) b.counters.(i)))

(* Estimated second frequency moment F2 = sum_v freq(v)^2 — the
   self-join size of the sketched column. *)
let second_moment (a : t) : float =
  median (Array.init a.depth (fun i -> dot a.counters.(i) a.counters.(i)))

(* Error-bound parameters of the (epsilon, delta) guarantee. *)
let epsilon sk = sqrt (8. /. float_of_int sk.width)
let delta sk = exp (-.float_of_int sk.depth /. 8.)

(* Additive error bound epsilon * sqrt(F2(a) * F2(b)), using the sketches'
   own F2 estimates (each within (1 +/- epsilon) of exact w.h.p.). *)
let error_bound (a : t) (b : t) : float =
  epsilon a *. sqrt (Float.max 0. (second_moment a) *. Float.max 0. (second_moment b))

(* ------------------------------------------------------------------ *)
(* Registry: sketches built during execution, keyed by (table, column),
   with the table row count at build time recorded so stale sketches are
   ignored after data or statistics change. *)

type entry = { sketch : t; rows_at_build : float }
type registry = (string * string, entry) Hashtbl.t

let registry_create () : registry = Hashtbl.create 16

let registry_set (reg : registry) ~table ~column (e : entry) : unit =
  Hashtbl.replace reg (table, column) e

let registry_find (reg : registry) ~table ~column : entry option =
  Hashtbl.find_opt reg (table, column)

(* A sketch is fresh iff the table's current row count (per the stats
   registry) matches the count when the sketch was built; the comparison
   lives in the caller to keep this module below [Table_stats]. *)
let entry_fresh (e : entry) ~(rows : float) : t option =
  if e.rows_at_build = rows then Some e.sketch else None

let registry_iter (f : table:string -> column:string -> entry -> unit)
    (reg : registry) : unit =
  Hashtbl.iter (fun (t, c) e -> f ~table:t ~column:c e) reg

let registry_clear (reg : registry) : unit = Hashtbl.reset reg
