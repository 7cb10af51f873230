(* Compiled-evaluation helpers for the columnar engine ([Batch]): offset
   resolution, specialized predicate compilers, hash-join buckets,
   join-row emission, and columnar chunks with their unboxed integer
   fast path.  All closures returned here are pure (no [Context]
   charging, no shared mutable state), so pooled kernels may evaluate
   them from any domain. *)

open Relalg

let offsets schema (refs : Expr.col_ref list) =
  Array.of_list
    (List.map
       (fun (r : Expr.col_ref) ->
          Schema.index_of schema ~rel:r.Expr.rel ~name:r.Expr.col)
       refs)

(* Hash-join buckets carry their length so probes never re-measure the
   chain; items are most-recent-first, matching the interpreter's
   emission order. *)
type bucket = { mutable blen : int; mutable items : Tuple.t list }

(* Specialized WHERE-semantics predicates.  [Expr.holds] boxes every
   comparison result in a [Value.Bool]; for the AND/OR/Cmp/Const fragment
   the held-ness of a predicate ("evaluates to Bool true") distributes
   over the connectives under three-valued logic — true AND x is held iff
   both are held, x OR y is held iff either is held, and a comparison is
   held iff [Value.sql_cmp] is conclusive and the operator accepts its
   sign — so these compile to unboxed boolean closures.  Anything else
   (NOT, IS NULL, UDFs, bare columns) falls back to [Expr.holds]. *)
let rec pred1 (s : Schema.t) (e : Expr.t) : Tuple.t -> bool =
  match e with
  | Expr.Const (Value.Bool b) -> fun _ -> b
  | Expr.Cmp (op, a, b) ->
    let fa = Expr.compile s a and fb = Expr.compile s b in
    fun t ->
      (match Value.sql_cmp (fa t) (fb t) with
       | None -> false
       | Some c -> Expr.compare_op op c)
  | Expr.And (a, b) ->
    let pa = pred1 s a and pb = pred1 s b in
    fun t -> pa t && pb t
  | Expr.Or (a, b) ->
    let pa = pred1 s a and pb = pred1 s b in
    fun t -> pa t || pb t
  | _ -> Expr.holds s e

let rec pred2 (l : Schema.t) (r : Schema.t) (e : Expr.t) :
  Tuple.t -> Tuple.t -> bool =
  match e with
  | Expr.Const (Value.Bool b) -> fun _ _ -> b
  | Expr.Cmp (op, a, b) ->
    let fa = Expr.compile2 l r a and fb = Expr.compile2 l r b in
    fun x y ->
      (match Value.sql_cmp (fa x y) (fb x y) with
       | None -> false
       | Some c -> Expr.compare_op op c)
  | Expr.And (a, b) ->
    let pa = pred2 l r a and pb = pred2 l r b in
    fun x y -> pa x y && pb x y
  | Expr.Or (a, b) ->
    let pa = pred2 l r a and pb = pred2 l r b in
    fun x y -> pa x y || pb x y
  | _ -> Expr.holds2 l r e

(* Interned boxes for small non-negative ints.  Materializing typed
   columns back into [Value.t] rows is the hottest allocation site in the
   columnar engines; values are immutable and compared structurally, so
   sharing one physical [Value.Int] block per small int is unobservable
   and turns the common box into an array load. *)
let small_int_cache = Array.init 4096 (fun i -> Value.Int i)

let box_int v : Value.t =
  if v land lnot 4095 = 0 then Array.unsafe_get small_int_cache v
  else Value.Int v

(* A column reference's offset in [s], or [None] for computed exprs. *)
let col_offset (s : Schema.t) (e : Expr.t) : int option =
  match e with
  | Expr.Col { rel; col } -> (
    match Schema.index_of s ~rel ~name:col with
    | off -> Some off
    | exception _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Columnar chunks.

   A [Chunk.store] holds one batch of physical rows in per-column typed
   storage: an all-Int-or-Null column extracts into an unboxed [int
   array] plus null bitmap, an all-Float-or-Null column (with at least
   one Float) into a [float array], and anything else — strings, bools,
   mixed Int/Float (which must keep their [Value.t] identity: [Value.equal
   (Int 2) (Float 2.0)] holds but the tuples differ) — into a [Boxed]
   fallback column.  Row and column views are lazy caches over the same
   store and are forced at most once; forcing mutates the store, so the
   engines force everything they need on the coordinating domain before
   dispatching to workers.

   A [Chunk.t] is a store plus an optional selection vector: [sel = Some
   s] means logical row [i] is physical row [s.(i)].  Filters narrow the
   selection without touching the data; semi/anti joins emit a selection
   over their left input.  All logical iteration (charging, emission
   order) is in selection order. *)

module Chunk = struct
  type col =
    | Ints of int array * Bytes.t (* data, null bitmap *)
    | Floats of float array * Bytes.t
    | Boxed of Value.t array

  type store = {
    arity : int;
    len : int; (* physical row count *)
    mutable rows : Tuple.t array option; (* lazy row view *)
    cols : col option array; (* lazy column cache, length [arity] *)
  }

  type t = { store : store; sel : int array option }

  let store_of_rows ~arity (rows : Tuple.t array) =
    { arity; len = Array.length rows; rows = Some rows;
      cols = Array.make arity None }

  let of_rows ~arity rows = { store = store_of_rows ~arity rows; sel = None }
  let dense store = { store; sel = None }

  let length t =
    match t.sel with Some s -> Array.length s | None -> t.store.len

  (* Physical index of logical row [i]. *)
  let phys t =
    match t.sel with
    | Some s -> fun i -> Array.unsafe_get s i
    | None -> fun i -> i

  let col_value (c : col) i : Value.t =
    match c with
    | Ints (d, nb) ->
      if Bytes.unsafe_get nb i <> '\000' then Value.Null else box_int d.(i)
    | Floats (d, nb) ->
      if Bytes.unsafe_get nb i <> '\000' then Value.Null else Value.Float d.(i)
    | Boxed v -> v.(i)

  (* Force column [j]: classify the physical values and extract, in one
     optimistic pass.  Start assuming Ints; the first Float downgrades to
     Floats (only if no Int preceded — mixed numerics stay boxed to
     preserve value identity), and any Bool/Str — or an Int after a
     Float — bails to Boxed. *)
  let col (st : store) j : col =
    match st.cols.(j) with
    | Some c -> c
    | None ->
      let rows =
        match st.rows with
        | Some r -> r
        | None -> invalid_arg "Chunk.col: store has neither rows nor column"
      in
      let n = st.len in
      let cell i = Array.unsafe_get (Array.unsafe_get rows i) j in
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
      let c =
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
      in
      st.cols.(j) <- Some c;
      c

  (* The unboxed int view of column [j], or [None] when any physical
     value is neither Int nor Null. *)
  let int_col (st : store) j =
    match col st j with
    | Ints (d, nb) -> Some (d, nb)
    | Floats _ | Boxed _ -> None

  (* Feed every non-null int of column [j] to [f], in physical order —
     the one-pass sketch-build hook of the scan operators.  False when
     the column is not int-typed (sketches cover int join keys only). *)
  let feed_ints (st : store) j (f : int -> unit) : bool =
    match int_col st j with
    | None -> false
    | Some (d, nb) ->
      for i = 0 to st.len - 1 do
        if Bytes.unsafe_get nb i = '\000' then f (Array.unsafe_get d i)
      done;
      true

  (* Physical-row accessor for column [j] that avoids allocation where
     possible: prefer the existing row view (tuple slots are already
     boxed), then the column cache (Ints/Floats re-box per access). *)
  let getter (st : store) j : int -> Value.t =
    match st.rows with
    | Some rows -> fun i -> Tuple.get rows.(i) j
    | None ->
      let c = col st j in
      fun i -> col_value c i

  (* Assemble [m] tuples from the store's columns, reading physical row
     [idx i] into output row [i].  Column-at-a-time with the variant
     match and null-bitmap scan hoisted out of the inner loops — this is
     the materialization boundary, so it has to be tight. *)
  let assemble (st : store) m (sel : int array option) : Tuple.t array =
    let arity = st.arity in
    let r = Array.init m (fun _ -> Array.make arity Value.Null) in
    for j = 0 to arity - 1 do
      match (col st j, sel) with
      | Boxed v, None ->
        for i = 0 to m - 1 do
          (Array.unsafe_get r i).(j) <- Array.unsafe_get v i
        done
      | Boxed v, Some s ->
        for i = 0 to m - 1 do
          (Array.unsafe_get r i).(j) <-
            Array.unsafe_get v (Array.unsafe_get s i)
        done
      | Ints (d, nb), None ->
        if Bytes.index_opt nb '\001' = None then
          for i = 0 to m - 1 do
            (Array.unsafe_get r i).(j) <- box_int (Array.unsafe_get d i)
          done
        else
          for i = 0 to m - 1 do
            (Array.unsafe_get r i).(j) <-
              (if Bytes.unsafe_get nb i <> '\000' then Value.Null
               else box_int (Array.unsafe_get d i))
          done
      | Ints (d, nb), Some s ->
        if Bytes.index_opt nb '\001' = None then
          for i = 0 to m - 1 do
            (Array.unsafe_get r i).(j) <-
              box_int (Array.unsafe_get d (Array.unsafe_get s i))
          done
        else
          for i = 0 to m - 1 do
            let p = Array.unsafe_get s i in
            (Array.unsafe_get r i).(j) <-
              (if Bytes.unsafe_get nb p <> '\000' then Value.Null
               else box_int (Array.unsafe_get d p))
          done
      | Floats (d, nb), None ->
        if Bytes.index_opt nb '\001' = None then
          for i = 0 to m - 1 do
            (Array.unsafe_get r i).(j) <- Value.Float (Array.unsafe_get d i)
          done
        else
          for i = 0 to m - 1 do
            (Array.unsafe_get r i).(j) <-
              (if Bytes.unsafe_get nb i <> '\000' then Value.Null
               else Value.Float (Array.unsafe_get d i))
          done
      | Floats (d, nb), Some s ->
        if Bytes.index_opt nb '\001' = None then
          for i = 0 to m - 1 do
            (Array.unsafe_get r i).(j) <-
              Value.Float (Array.unsafe_get d (Array.unsafe_get s i))
          done
        else
          for i = 0 to m - 1 do
            let p = Array.unsafe_get s i in
            (Array.unsafe_get r i).(j) <-
              (if Bytes.unsafe_get nb p <> '\000' then Value.Null
               else Value.Float (Array.unsafe_get d p))
          done
    done;
    r

  (* Force the physical row view. *)
  let rows_view (st : store) : Tuple.t array =
    match st.rows with
    | Some r -> r
    | None ->
      let r = assemble st st.len None in
      st.rows <- Some r;
      r

  (* Logical rows, in selection order.  Dense chunks share the store's
     row view (no copy); selected chunks gather — pointer-only when a
     row view exists, boxing straight from the typed columns when not. *)
  let to_rows (t : t) : Tuple.t array =
    match t.sel with
    | None -> rows_view t.store
    | Some s -> (
      match t.store.rows with
      | Some rows -> Array.map (fun i -> rows.(i)) s
      | None -> assemble t.store (Array.length s) (Some s))
end

(* ------------------------------------------------------------------ *)
(* Compiled unboxed integer expressions over a store's physical rows.

   [iv i] is the expression's value at physical row [i], valid only when
   [inull i] is false (callers must test [inull] first: a NULL divisor
   guard lives in [inull], so [iv] would divide by zero).  Semantics
   mirror [Expr.arith] on Int arguments exactly: native [+]/[-]/[*],
   truncating [/] and [mod], Div/Mod by zero -> NULL, any NULL operand
   -> NULL.  Compilation forces the referenced columns, so the returned
   closures are pure and safe to call from worker domains. *)

type int_vec = { iv : int -> int; inull : int -> bool }

let no_null _ = false

let rec int_expr (s : Schema.t) (st : Chunk.store) (e : Expr.t) :
  int_vec option =
  match e with
  | Expr.Const (Value.Int k) ->
    Some { iv = (fun _ -> k); inull = no_null }
  | Expr.Const Value.Null -> Some { iv = (fun _ -> 0); inull = (fun _ -> true) }
  | Expr.Col { rel; col } -> (
    match Schema.index_of s ~rel ~name:col with
    | exception _ -> None
    | off -> (
      match Chunk.int_col st off with
      | Some (d, nb) ->
        let inull =
          if Bytes.index_opt nb '\001' = None then no_null
          else fun i -> Bytes.unsafe_get nb i <> '\000'
        in
        Some { iv = (fun i -> Array.unsafe_get d i); inull }
      | None -> None))
  | Expr.Binop (op, a, b) -> (
    match int_expr s st a with
    | None -> None
    | Some va -> (
      match b with
      | Expr.Const (Value.Int k) -> (
        (* constant rhs: fold the operand closure away and inline the
           arithmetic into one specialized closure per operator; a
           non-zero divisor also drops the per-row zero test *)
        let av = va.iv in
        match op with
        | Expr.Add -> Some { iv = (fun i -> av i + k); inull = va.inull }
        | Expr.Sub -> Some { iv = (fun i -> av i - k); inull = va.inull }
        | Expr.Mul -> Some { iv = (fun i -> av i * k); inull = va.inull }
        | (Expr.Div | Expr.Mod) when k = 0 ->
          Some { iv = (fun _ -> 0); inull = (fun _ -> true) }
        | Expr.Div -> Some { iv = (fun i -> av i / k); inull = va.inull }
        | Expr.Mod -> Some { iv = (fun i -> av i mod k); inull = va.inull })
      | _ -> (
        match int_expr s st b with
        | None -> None
        | Some vb -> (
          let av = va.iv and bv = vb.iv in
          match op with
          | Expr.Div | Expr.Mod ->
            let iv =
              match op with
              | Expr.Div -> fun i -> av i / bv i
              | _ -> fun i -> av i mod bv i
            in
            Some
              { iv;
                inull = (fun i -> va.inull i || vb.inull i || bv i = 0) }
          | Expr.Add | Expr.Sub | Expr.Mul ->
            let inull =
              if va.inull == no_null && vb.inull == no_null then no_null
              else fun i -> va.inull i || vb.inull i
            in
            let iv =
              match op with
              | Expr.Add -> fun i -> av i + bv i
              | Expr.Sub -> fun i -> av i - bv i
              | _ -> fun i -> av i * bv i
            in
            Some { iv; inull }))))
  | _ -> None

(* Index-based WHERE predicate over a store's physical rows.  Conjuncts
   whose comparison operands both compile through [int_expr] evaluate
   unboxed (this covers arbitrary integer arithmetic, e.g.
   [(v mod 7) = 0], not just bare columns); every other conjunct falls
   back to [pred1] over the forced row view.  Correctness: held-ness
   distributes over top-level AND (see [pred1]); a comparison with a
   NULL operand is never held, which [inull] reproduces; [Value.sql_cmp]
   on two Ints is [Stdlib.compare], which the raw-int comparison
   reproduces.  All forcing happens at compile time — the returned
   closure is pure. *)
let int_cmp_op (op : Expr.cmpop) : int -> int -> bool =
  match op with
  | Expr.Eq -> fun (a : int) b -> a = b
  | Expr.Neq -> fun (a : int) b -> a <> b
  | Expr.Lt -> fun (a : int) b -> a < b
  | Expr.Le -> fun (a : int) b -> a <= b
  | Expr.Gt -> fun (a : int) b -> a > b
  | Expr.Ge -> fun (a : int) b -> a >= b

let pred_store (s : Schema.t) (e : Expr.t) (st : Chunk.store) : int -> bool =
  let fallback c =
    let rows = Chunk.rows_view st in
    let p = pred1 s c in
    fun i -> p rows.(i)
  in
  let compile_conj c =
    match c with
    | Expr.Cmp (op, a, Expr.Const (Value.Int k)) -> (
      (* constant rhs: inline the comparison against [k] *)
      match int_expr s st a with
      | Some va ->
        let av = va.iv in
        let p : int -> bool =
          match op with
          | Expr.Eq -> fun i -> av i = k
          | Expr.Neq -> fun i -> av i <> k
          | Expr.Lt -> fun i -> av i < k
          | Expr.Le -> fun i -> av i <= k
          | Expr.Gt -> fun i -> av i > k
          | Expr.Ge -> fun i -> av i >= k
        in
        if va.inull == no_null then p
        else fun i -> (not (va.inull i)) && p i
      | None -> fallback c)
    | Expr.Cmp (op, a, b) -> (
      match (int_expr s st a, int_expr s st b) with
      | Some va, Some vb ->
        let cmp = int_cmp_op op in
        if va.inull == no_null && vb.inull == no_null then
          fun i -> cmp (va.iv i) (vb.iv i)
        else
          fun i ->
            (not (va.inull i)) && (not (vb.inull i))
            && cmp (va.iv i) (vb.iv i)
      | _ -> fallback c)
    | _ -> fallback c
  in
  let ps = Array.of_list (List.map compile_conj (Pred.conjuncts e)) in
  match Array.length ps with
  | 0 -> fun _ -> true
  | 1 -> ps.(0)
  | 2 ->
    let a = ps.(0) and b = ps.(1) in
    fun i -> a i && b i
  | _ -> fun i -> Array.for_all (fun p -> p i) ps

(* ------------------------------------------------------------------ *)
(* Row-level compiled integer expressions for the fused projection path.

   [rv t] is the expression's Int value over tuple [t]; [Row_null] means
   the SQL result is NULL (a NULL operand, or Div/Mod by zero),
   [Row_not_int] means a non-Int operand was hit and the caller must
   re-evaluate that row through the generic [Expr.compile] closure
   (which reproduces Float promotion, string concat and type errors
   exactly).  A NULL short-circuit is always sound: [Expr.arith] maps
   any NULL operand to NULL before it can raise. *)

exception Row_null
exception Row_not_int

let rec row_int (s : Schema.t) (e : Expr.t) : (Tuple.t -> int) option =
  match e with
  | Expr.Const (Value.Int k) -> Some (fun _ -> k)
  | Expr.Const Value.Null -> Some (fun _ -> raise Row_null)
  | Expr.Col { rel; col } -> (
    match Schema.index_of s ~rel ~name:col with
    | exception _ -> None
    | off ->
      Some
        (fun t ->
           match Tuple.get t off with
           | Value.Int v -> v
           | Value.Null -> raise Row_null
           | Value.Bool _ | Value.Float _ | Value.Str _ ->
             raise Row_not_int))
  | Expr.Binop (op, a, b) -> (
    match row_int s a with
    | None -> None
    | Some ra -> (
      match b with
      | Expr.Const (Value.Int k) -> (
        match op with
        | Expr.Add -> Some (fun t -> ra t + k)
        | Expr.Sub -> Some (fun t -> ra t - k)
        | Expr.Mul -> Some (fun t -> ra t * k)
        | (Expr.Div | Expr.Mod) when k = 0 ->
          Some
            (fun t ->
               ignore (ra t);
               raise Row_null)
        | Expr.Div -> Some (fun t -> ra t / k)
        | Expr.Mod -> Some (fun t -> ra t mod k))
      | _ -> (
        match row_int s b with
        | None -> None
        | Some rb -> (
          match op with
          | Expr.Add -> Some (fun t -> ra t + rb t)
          | Expr.Sub -> Some (fun t -> ra t - rb t)
          | Expr.Mul -> Some (fun t -> ra t * rb t)
          | Expr.Div ->
            Some
              (fun t ->
                 let y = rb t in
                 if y = 0 then raise Row_null else ra t / y)
          | Expr.Mod ->
            Some
              (fun t ->
                 let y = rb t in
                 if y = 0 then raise Row_null else ra t mod y)))))
  | _ -> None

(* Compiled projection item over physical rows: a plain column shares the
   existing box, integer arithmetic re-boxes through the small-int cache
   with no intermediate allocation, and everything else — including any
   row where an int-compiled item meets a non-Int operand — evaluates
   through [Expr.compile]. *)
let proj_item (s : Schema.t) (e : Expr.t) : Tuple.t -> Value.t =
  match col_offset s e with
  | Some off -> fun t -> Tuple.get t off
  | None -> (
    match e with
    (* depth-2 int arithmetic fuses into one closure: direct cell
       matches, no exception frame; any non-Int operand re-evaluates
       the row through the generic closure (which reproduces NULL
       propagation, Float promotion and type errors exactly — a NULL
       operand can also just short-circuit, [Expr.arith] maps it to
       NULL before it can raise) *)
    | Expr.Binop (op, a, (Expr.Const (Value.Int k) as kc))
      when col_offset s a <> None && not ((op = Expr.Div || op = Expr.Mod) && k = 0)
      -> (
        let off = Option.get (col_offset s a) in
        let fk = Expr.compile s kc in
        let slow t = Expr.arith op (Tuple.get t off) (fk t) in
        match op with
        | Expr.Add -> (
          fun t ->
            match Tuple.get t off with
            | Value.Int x -> box_int (x + k)
            | Value.Null -> Value.Null
            | _ -> slow t)
        | Expr.Sub -> (
          fun t ->
            match Tuple.get t off with
            | Value.Int x -> box_int (x - k)
            | Value.Null -> Value.Null
            | _ -> slow t)
        | Expr.Mul -> (
          fun t ->
            match Tuple.get t off with
            | Value.Int x -> box_int (x * k)
            | Value.Null -> Value.Null
            | _ -> slow t)
        | Expr.Div -> (
          fun t ->
            match Tuple.get t off with
            | Value.Int x -> box_int (x / k)
            | Value.Null -> Value.Null
            | _ -> slow t)
        | Expr.Mod -> (
          fun t ->
            match Tuple.get t off with
            | Value.Int x -> box_int (x mod k)
            | Value.Null -> Value.Null
            | _ -> slow t))
    | Expr.Binop (op, a, b)
      when col_offset s a <> None && col_offset s b <> None -> (
        let oa = Option.get (col_offset s a)
        and ob = Option.get (col_offset s b) in
        let slow t = Expr.arith op (Tuple.get t oa) (Tuple.get t ob) in
        match op with
        | Expr.Add -> (
          fun t ->
            match (Tuple.get t oa, Tuple.get t ob) with
            | Value.Int x, Value.Int y -> box_int (x + y)
            | Value.Null, _ | _, Value.Null -> Value.Null
            | _ -> slow t)
        | Expr.Sub -> (
          fun t ->
            match (Tuple.get t oa, Tuple.get t ob) with
            | Value.Int x, Value.Int y -> box_int (x - y)
            | Value.Null, _ | _, Value.Null -> Value.Null
            | _ -> slow t)
        | Expr.Mul -> (
          fun t ->
            match (Tuple.get t oa, Tuple.get t ob) with
            | Value.Int x, Value.Int y -> box_int (x * y)
            | Value.Null, _ | _, Value.Null -> Value.Null
            | _ -> slow t)
        | Expr.Div -> (
          fun t ->
            match (Tuple.get t oa, Tuple.get t ob) with
            | Value.Int x, Value.Int y ->
              if y = 0 then Value.Null else box_int (x / y)
            | Value.Null, _ | _, Value.Null -> Value.Null
            | _ -> slow t)
        | Expr.Mod -> (
          fun t ->
            match (Tuple.get t oa, Tuple.get t ob) with
            | Value.Int x, Value.Int y ->
              if y = 0 then Value.Null else box_int (x mod y)
            | Value.Null, _ | _, Value.Null -> Value.Null
            | _ -> slow t))
    | _ -> (
      match row_int s e with
      | Some rv ->
        let f = Expr.compile s e in
        fun t ->
          (match rv t with
           | v -> box_int v
           | exception Row_null -> Value.Null
           | exception Row_not_int -> f t)
      | None -> Expr.compile s e))

(* Output arity of a join: semi/anti keep the outer schema only. *)
let join_arity kind ~outer ~inner =
  match kind with
  | Algebra.Inner | Algebra.Left_outer -> outer + inner
  | Algebra.Semi | Algebra.Anti -> outer

(* ------------------------------------------------------------------ *)
(* Join-row emission (shared across the join operators).  [lo, hi) is a
   range of [arr]; matching against an index range avoids the
   interpreter's Array.sub copies in merge join. *)

let emit_range out kind ~inner_arity ot arr lo hi ~matches =
  match kind with
  | Algebra.Inner ->
    for k = lo to hi - 1 do
      let it = arr.(k) in
      if matches it then Storage.Vec.push out (Tuple.concat ot it)
    done
  | Algebra.Left_outer ->
    let any = ref false in
    for k = lo to hi - 1 do
      let it = arr.(k) in
      if matches it then begin
        any := true;
        Storage.Vec.push out (Tuple.concat ot it)
      end
    done;
    if not !any then
      Storage.Vec.push out (Tuple.concat ot (Tuple.nulls inner_arity))
  | Algebra.Semi ->
    let rec ex k = k < hi && (matches arr.(k) || ex (k + 1)) in
    if ex lo then Storage.Vec.push out ot
  | Algebra.Anti ->
    let rec ex k = k < hi && (matches arr.(k) || ex (k + 1)) in
    if not (ex lo) then Storage.Vec.push out ot

let emit_list out kind ~inner_arity ot items ~matches =
  match kind with
  | Algebra.Inner ->
    List.iter
      (fun it -> if matches it then Storage.Vec.push out (Tuple.concat ot it))
      items
  | Algebra.Left_outer ->
    let any = ref false in
    List.iter
      (fun it ->
         if matches it then begin
           any := true;
           Storage.Vec.push out (Tuple.concat ot it)
         end)
      items;
    if not !any then
      Storage.Vec.push out (Tuple.concat ot (Tuple.nulls inner_arity))
  | Algebra.Semi ->
    if List.exists matches items then Storage.Vec.push out ot
  | Algebra.Anti ->
    if not (List.exists matches items) then Storage.Vec.push out ot
