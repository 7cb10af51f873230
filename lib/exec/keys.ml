(* Join/aggregation key hashing shared by the interpreter (Executor) and
   the batch engine (Batch).

   Every hash table here is used with keys of a fixed arity — the key of a
   hash join, grouping or distinct operator always has the same number of
   columns for the lifetime of one table — so the equality functions do not
   re-measure lengths before comparing (the [List.length a = List.length b]
   guard the interpreter used to pay on every probe). *)

open Relalg

let hash_list ks = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 ks

(* Arity is fixed per table: no length guard. *)
let equal_list a b = List.for_all2 Value.equal a b

module List_tbl = Hashtbl.Make (struct
    type t = Value.t list
    let equal = equal_list
    let hash = hash_list
  end)

let hash_array ks =
  let acc = ref 7 in
  for i = 0 to Array.length ks - 1 do
    acc := (!acc * 31) + Value.hash ks.(i)
  done;
  !acc

(* Arity is fixed per table: positions compare pairwise without a length
   guard.  [Value.equal] makes Int 2 and Float 2.0 equal keys, matching the
   interpreter's key semantics. *)
let equal_array (a : Value.t array) (b : Value.t array) =
  let n = Array.length a in
  let rec go i = i = n || (Value.equal a.(i) b.(i) && go (i + 1)) in
  go 0

(* Columnar probing for generic (Value.t array) keys.

   An open-addressing table whose [find] hashes and compares key
   positions straight out of per-column accessor closures — no per-row
   key materialization on probe.  The key array is built exactly once,
   on first insert ([add]); [hash_cols] folds [Value.hash] over the
   accessors in the same order as [hash_array] over the materialized
   key, so probe and insert agree on slots, and [Value.equal] keeps the
   interpreter's key semantics (Int 2 matches Float 2.0).  Insert-only,
   like {!Int_map}; misses return the caller-supplied [dummy]. *)
module Cols_tbl = struct
  type 'a t = {
    mutable keys : Value.t array array;
    mutable vals : 'a array;
    mutable used : Bytes.t;
    mutable mask : int;
    mutable count : int;
    dummy : 'a;
  }

  let create ~dummy cap =
    let rec pow2 n = if n >= cap * 2 then n else pow2 (n * 2) in
    let c = pow2 16 in
    { keys = Array.make c [||]; vals = Array.make c dummy;
      used = Bytes.make c '\000'; mask = c - 1; count = 0; dummy }

  let hash_cols (gets : (int -> Value.t) array) i =
    let acc = ref 7 in
    for c = 0 to Array.length gets - 1 do
      acc := (!acc * 31) + Value.hash (gets.(c) i)
    done;
    !acc

  (* The probe loops are closed top-level functions: a local recursive
     closure would allocate on every probe.  A gathered column repeats
     its input's boxes, so equality tests identity first. *)
  let rec equal_from (k : Value.t array) (gets : (int -> Value.t) array) i c =
    c = Array.length k
    || (let v = gets.(c) i in
        (k.(c) == v || Value.equal k.(c) v) && equal_from k gets i (c + 1))

  let mix h mask = h * 0x9E3779B1 land mask

  let rec find_from t gets i j =
    if Bytes.unsafe_get t.used j = '\000' then t.dummy
    else if equal_from (Array.unsafe_get t.keys j) gets i 0 then
      Array.unsafe_get t.vals j
    else find_from t gets i ((j + 1) land t.mask)

  (* [t.dummy] when the key read column-wise at row [i] is absent. *)
  let find t gets i = find_from t gets i (mix (hash_cols gets i) t.mask)

  let slot_key t (k : Value.t array) =
    let rec probe j =
      if Bytes.unsafe_get t.used j = '\000' then j
      else if equal_array t.keys.(j) k then j
      else probe ((j + 1) land t.mask)
    in
    probe (mix (hash_array k) t.mask)

  let grow t =
    let okeys = t.keys and ovals = t.vals and oused = t.used in
    let c = 2 * (t.mask + 1) in
    t.keys <- Array.make c [||];
    t.vals <- Array.make c t.dummy;
    t.used <- Bytes.make c '\000';
    t.mask <- c - 1;
    for i = 0 to Array.length okeys - 1 do
      if Bytes.get oused i = '\001' then begin
        let j = slot_key t okeys.(i) in
        Bytes.set t.used j '\001';
        t.keys.(j) <- okeys.(i);
        t.vals.(j) <- ovals.(i)
      end
    done

  (* The key must be absent (callers [find] first); [k] must hold the
     same values the accessors produced at the probed row. *)
  let add t k v =
    if 2 * (t.count + 1) > t.mask + 1 then grow t;
    let j = slot_key t k in
    Bytes.set t.used j '\001';
    t.keys.(j) <- k;
    t.vals.(j) <- v;
    t.count <- t.count + 1
end

(* First occurrences under a caller-supplied row hash and equality.

   An open-addressing set of representative row indices: [add t h eq q]
   inserts row [q], whose hash is [h], unless a stored representative
   [r] with the same hash satisfies [eq r q].  No key is materialized —
   DISTINCT compares typed columns row against row.  Slots come from the
   high bits of a multiplicative mix, so hashes that share their low
   bits (a hash partition's rows) still spread. *)
module Row_set = struct
  type t = {
    mutable hashes : int array;
    mutable reps : int array; (* -1: empty slot *)
    mutable mask : int;
    mutable count : int;
  }

  let create cap =
    let rec pow2 n = if n >= cap * 2 then n else pow2 (n * 2) in
    let c = pow2 16 in
    { hashes = Array.make c 0; reps = Array.make c (-1); mask = c - 1;
      count = 0 }

  let slot h mask = (h * 0x9E3779B97F4A7C1) lsr 24 land mask

  let grow t =
    let ohashes = t.hashes and oreps = t.reps in
    let c = 2 * (t.mask + 1) in
    t.hashes <- Array.make c 0;
    t.reps <- Array.make c (-1);
    t.mask <- c - 1;
    Array.iteri
      (fun i r ->
         if r >= 0 then begin
           let h = ohashes.(i) in
           let rec probe j =
             if t.reps.(j) < 0 then begin
               t.reps.(j) <- r;
               t.hashes.(j) <- h
             end
             else probe ((j + 1) land t.mask)
           in
           probe (slot h t.mask)
         end)
      oreps

  let rec add_from t h (eq : int -> int -> bool) q j =
    let r = Array.unsafe_get t.reps j in
    if r < 0 then begin
      t.reps.(j) <- q;
      t.hashes.(j) <- h;
      t.count <- t.count + 1;
      if 2 * t.count > t.mask + 1 then grow t;
      true
    end
    else if Array.unsafe_get t.hashes j = h && eq r q then false
    else add_from t h eq q ((j + 1) land t.mask)

  (* True when [q] was absent and now represents its key. *)
  let add t h eq q = add_from t h eq q (slot h t.mask)
end

(* Fast path for single-column integer keys.  Only sound when every key
   value on both sides of the table is Int or Null (NULLs are handled by
   the caller): Value.equal would also match Float 2.0 = Int 2, so callers
   must verify eligibility before choosing this table.

   Open addressing with linear probing: flat int/value arrays, an inline
   multiplicative hash, and no allocation per entry (Hashtbl conses a
   bucket cell per binding).  Insert-only — the execution engines never
   delete keys.  Lookup misses return the caller-supplied [dummy]; callers
   that must distinguish absence use a physically unique dummy and compare
   with [==]. *)
module Int_map = struct
  type 'a t = {
    mutable keys : int array;
    mutable vals : 'a array;
    mutable used : Bytes.t;
    mutable mask : int; (* capacity - 1; capacity is a power of two *)
    mutable count : int;
    dummy : 'a;
  }

  let create ~dummy cap =
    let rec pow2 n = if n >= cap * 2 then n else pow2 (n * 2) in
    let c = pow2 16 in
    { keys = Array.make c 0; vals = Array.make c dummy;
      used = Bytes.make c '\000'; mask = c - 1; count = 0; dummy }

  let rec slot_from t k i =
    if Bytes.unsafe_get t.used i = '\000' || Array.unsafe_get t.keys i = k
    then i
    else slot_from t k ((i + 1) land t.mask)

  (* Fibonacci-style multiplicative mixing; [land mask] keeps it in range
     (and non-negative) even when the product overflows. *)
  let slot t k = slot_from t k (k * 0x9E3779B1 land t.mask)

  let grow t =
    let okeys = t.keys and ovals = t.vals and oused = t.used in
    let c = 2 * (t.mask + 1) in
    t.keys <- Array.make c 0;
    t.vals <- Array.make c t.dummy;
    t.used <- Bytes.make c '\000';
    t.mask <- c - 1;
    for i = 0 to Array.length okeys - 1 do
      if Bytes.get oused i = '\001' then begin
        let j = slot t okeys.(i) in
        Bytes.set t.used j '\001';
        t.keys.(j) <- okeys.(i);
        t.vals.(j) <- ovals.(i)
      end
    done

  (* [t.dummy] when absent. *)
  let find t k =
    let i = slot t k in
    if Bytes.unsafe_get t.used i = '\000' then t.dummy
    else Array.unsafe_get t.vals i

  (* The key must be absent (callers [find] first). *)
  let add t k v =
    if 2 * (t.count + 1) > t.mask + 1 then grow t;
    let i = slot t k in
    Bytes.set t.used i '\001';
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.count <- t.count + 1
end
