(* Typed column storage, shared by heap tables (their memoized column
   cache) and the columnar engine's chunks.

   An all-Int-or-Null column extracts into an unboxed [int array] plus a
   null bitmap, an all-Float-or-Null column (with at least one Float)
   into a [float array], and anything else — strings, bools, mixed
   Int/Float (which must keep their [Value.t] identity: [Value.equal
   (Int 2) (Float 2.0)] holds but the tuples differ) — into a [Boxed]
   fallback column.  Columns are immutable once built. *)

open Relalg

type t =
  | Ints of int array * Bytes.t (* data, null bitmap *)
  | Floats of float array * Bytes.t
  | Boxed of Value.t array

(* Interned boxes for small non-negative ints.  Materializing typed
   columns back into [Value.t] rows is the hottest allocation site of the
   columnar engine; values are immutable and compared structurally, so
   sharing one physical [Value.Int] block per small int is unobservable
   and turns the common box into an array load. *)
let small_int_cache = Array.init 4096 (fun i -> Value.Int i)

let box_int v : Value.t =
  if v land lnot 4095 = 0 then Array.unsafe_get small_int_cache v
  else Value.Int v

let length = function
  | Ints (d, _) -> Array.length d
  | Floats (d, _) -> Array.length d
  | Boxed v -> Array.length v

let is_null c i =
  match c with
  | Ints (_, nb) | Floats (_, nb) -> Bytes.unsafe_get nb i <> '\000'
  | Boxed v -> Value.is_null v.(i)

let value c i : Value.t =
  match c with
  | Ints (d, nb) ->
    if Bytes.unsafe_get nb i <> '\000' then Value.Null else box_int d.(i)
  | Floats (d, nb) ->
    if Bytes.unsafe_get nb i <> '\000' then Value.Null else Value.Float d.(i)
  | Boxed v -> v.(i)

(* Classify [n] cells and extract, in one optimistic pass.  Start
   assuming Ints; the first Float downgrades to Floats (only if no Int
   preceded — mixed numerics stay boxed to preserve value identity), and
   any Bool/Str — or an Int after a Float — bails to Boxed. *)
let classify n (cell : int -> Value.t) : t =
  let boxed () = Boxed (Array.init n cell) in
  (* prefix [0, start) was all NULL (already marked in [nulls]) *)
  let floats start nulls =
    let data = Array.make n 0. in
    let rec go i =
      if i >= n then Floats (data, nulls)
      else
        match cell i with
        | Value.Float f ->
          Array.unsafe_set data i f;
          go (i + 1)
        | Value.Null ->
          Bytes.unsafe_set nulls i '\001';
          go (i + 1)
        | Value.Int _ | Value.Bool _ | Value.Str _ -> boxed ()
    in
    go start
  in
  let data = Array.make n 0 and nulls = Bytes.make n '\000' in
  let rec go i seen_int =
    if i >= n then Ints (data, nulls)
    else
      match cell i with
      | Value.Int k ->
        Array.unsafe_set data i k;
        go (i + 1) true
      | Value.Null ->
        Bytes.unsafe_set nulls i '\001';
        go (i + 1) seen_int
      | Value.Float _ -> if seen_int then boxed () else floats i nulls
      | Value.Bool _ | Value.Str _ -> boxed ()
  in
  go 0 false

(* [out.(i) = c.(idx.(i))], an index of -1 reading NULL.  A gathered
   column keeps its layout, so its cells keep their [Value.t] identity. *)
let gather c (idx : int array) : t =
  let m = Array.length idx in
  let bits nb =
    let nb' = Bytes.make m '\000' in
    for i = 0 to m - 1 do
      let q = Array.unsafe_get idx i in
      if q < 0 || Bytes.get nb q <> '\000' then Bytes.unsafe_set nb' i '\001'
    done;
    nb'
  in
  match c with
  | Ints (d, nb) ->
    let d' = Array.make m 0 in
    for i = 0 to m - 1 do
      let q = Array.unsafe_get idx i in
      if q >= 0 then Array.unsafe_set d' i d.(q)
    done;
    Ints (d', bits nb)
  | Floats (d, nb) ->
    let d' = Array.make m 0. in
    for i = 0 to m - 1 do
      let q = Array.unsafe_get idx i in
      if q >= 0 then Array.unsafe_set d' i d.(q)
    done;
    Floats (d', bits nb)
  | Boxed v ->
    Boxed
      (Array.init m (fun i ->
           let q = Array.unsafe_get idx i in
           if q < 0 then Value.Null else v.(q)))

(* [Value.compare] of cell [i] of [a] with cell [j] of [b], read from
   the typed layouts without boxing: NULL ranks lowest, Int against
   Float compares as floats — exactly [Value.compare] on the boxed
   cells. *)
let compare_cells (a : t) (b : t) : int -> int -> int =
  (* [k] compares two non-null cells; a NULL ranks below everything *)
  let with_nulls na nb (k : int -> int -> int) =
    if Bytes.index_opt na '\001' = None && Bytes.index_opt nb '\001' = None
    then k
    else
      fun i j ->
        let ni = Bytes.unsafe_get na i <> '\000'
        and nj = Bytes.unsafe_get nb j <> '\000' in
        if ni || nj then Bool.compare nj ni else k i j
  in
  match (a, b) with
  | Ints (da, na), Ints (db, nb) ->
    with_nulls na nb (fun i j ->
        Int.compare (Array.unsafe_get da i) (Array.unsafe_get db j))
  | Floats (da, na), Floats (db, nb) ->
    with_nulls na nb (fun i j ->
        Stdlib.compare (Array.unsafe_get da i : float) (Array.unsafe_get db j))
  | Ints (da, na), Floats (db, nb) ->
    with_nulls na nb (fun i j ->
        Stdlib.compare
          (float_of_int (Array.unsafe_get da i))
          (Array.unsafe_get db j))
  | Floats (da, na), Ints (db, nb) ->
    with_nulls na nb (fun i j ->
        Stdlib.compare (Array.unsafe_get da i)
          (float_of_int (Array.unsafe_get db j)))
  | Boxed va, Boxed vb ->
    (* gathered columns repeat their input's boxes: identity first *)
    fun i j ->
      let x = va.(i) and y = vb.(j) in
      if x == y then 0 else Value.compare x y
  | _ -> fun i j -> Value.compare (value a i) (value b j)

(* A hash of cell [i] consistent with [compare_cells c c]: cells that
   compare equal hash equal (within one column).  Ints hash to
   themselves — callers mix. *)
let hash_cell c i =
  match c with
  | Ints (d, nb) ->
    if Bytes.unsafe_get nb i <> '\000' then 17 else Array.unsafe_get d i
  | Floats (d, nb) ->
    if Bytes.unsafe_get nb i <> '\000' then 17
    else Hashtbl.hash (Array.unsafe_get d i : float)
  | Boxed v -> Value.hash v.(i)
