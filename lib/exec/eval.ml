(* Compiled-evaluation helpers for the columnar engine ([Batch]): offset
   resolution, the index-based WHERE predicate over a store, hash-join
   buckets, join emission over row indices, and columnar chunks.
   [int_expr] is the engine's one unboxed integer-expression compiler:
   predicates, projection items, sort keys, grouping keys and aggregate
   arguments all compile through it over a store's columns.  Everything
   it does not cover compiles through [Relalg.Expr], the one expression
   compiler: values through [Expr.compile], predicates through the held
   compiler [Expr.holds] (one tuple) and [Expr.holds2] (a join's two
   tuples).  All closures returned here are pure (no [Context] charging,
   no shared mutable state), so pooled kernels may evaluate them from
   any domain. *)

open Relalg

let offsets schema (refs : Expr.col_ref list) =
  Array.of_list
    (List.map
       (fun (r : Expr.col_ref) ->
          Schema.index_of schema ~rel:r.Expr.rel ~name:r.Expr.col)
       refs)

(* Hash-join buckets carry their length so probes never re-measure the
   chain.  The chain holds build-side row indices, most-recent-first
   (the interpreter's emission order): [head] is the latest, and the
   operator's [next] array links each index to the one before it, -1
   ending the chain. *)
type bucket = { mutable blen : int; mutable head : int }

let box_int = Storage.Col.box_int

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
   storage ({!Storage.Col}).  Each column is built on first read by the
   store's [build] function and cached; how it is built depends on where
   the store came from:

   - a table store shares the table's memoized columns
     ({!Storage.Table.column}), so a scan classifies nothing once the
     table has been scanned before, and its row view is the table's own
     row array;
   - a gather store — a join's output — holds a (left store, left index
     vector) pair and a (right store, right index vector) pair: column
     [j] gathers the left or right input column through its vector, an
     index of -1 reading NULL (a null-extended row).  Inputs may be
     gather stores themselves, so gathers compose across a star join;
   - a remap store — a projection of plain columns — shares its input's
     columns under new positions;
   - a row store classifies a column from its rows.

   Per-row consumers that need no typed column (generic hash keys,
   aggregate arguments, probe keys) use [getter], which builds nothing:
   it reads a row view or a built column, and otherwise the store's
   [reader], which for a gather or remap reads through to its inputs.
   The row view is a lazy cache too, assembled from the columns when
   nothing provided it.  Forcing mutates the store (and, for a table
   store, the table), so the engines force everything a kernel reads on
   the coordinating domain before dispatching to workers.

   A [Chunk.t] is a store plus an optional selection vector: [sel = Some
   s] means logical row [i] is physical row [s.(i)].  Filters, semi/anti
   joins, DISTINCT, sort and index scans all return selections; all
   logical iteration (charging, emission order) is in selection order. *)

module Chunk = struct
  type col = Storage.Col.t =
    | Ints of int array * Bytes.t (* data, null bitmap *)
    | Floats of float array * Bytes.t
    | Boxed of Value.t array

  type store = {
    arity : int;
    len : int; (* physical row count *)
    mutable rows : Tuple.t array option; (* lazy row view *)
    cols : col option array; (* lazy column cache, length [arity] *)
    build : int -> col; (* builds column [j] on first read *)
    reader : int -> int -> Value.t;
        (* [reader j] reads column [j] at physical rows without building
           it: a gather or remap reads through to its inputs *)
  }

  type t = { store : store; sel : int array option }

  let derive ~arity ~len ?rows ~reader build =
    { arity; len; rows; cols = Array.make arity None; build; reader }

  let row_reader (rows : Tuple.t array) j i =
    Tuple.get (Array.unsafe_get rows i) j

  let store_of_rows ~arity (rows : Tuple.t array) =
    let len = Array.length rows in
    derive ~arity ~len ~rows ~reader:(row_reader rows) (fun j ->
        Storage.Col.classify len (row_reader rows j))

  let of_rows ~arity rows = { store = store_of_rows ~arity rows; sel = None }
  let dense store = { store; sel = None }

  let store_of_cols ~len (cols : col array) =
    { arity = Array.length cols; len; rows = None;
      cols = Array.map Option.some cols;
      build = (fun j -> cols.(j));
      reader = (fun j -> Storage.Col.value cols.(j)) }

  (* Force column [j]. *)
  let col (st : store) j : col =
    match st.cols.(j) with
    | Some c -> c
    | None ->
      let c = st.build j in
      st.cols.(j) <- Some c;
      c

  (* Physical-row accessor for column [j] that allocates and builds
     nothing where it can: an existing row view (tuple slots are already
     boxed), else a built column (Ints/Floats re-box per access), else
     the store's reader. *)
  let getter (st : store) j : int -> Value.t =
    match (st.rows, st.cols.(j)) with
    | Some rows, _ -> row_reader rows j
    | None, Some c -> Storage.Col.value c
    | None, None -> st.reader j

  let of_table (t : Storage.Table.t) =
    let rows = Storage.Table.rows_array t in
    let len = Array.length rows in
    derive ~arity:(Schema.arity t.Storage.Table.schema) ~len ~rows
      ~reader:(row_reader rows) (fun j ->
        let c = Storage.Table.column t j in
        (* the table cannot grow during one execution; guard anyway *)
        if Storage.Col.length c = len then c
        else Storage.Col.classify len (row_reader rows j))

  let gather ~left ~lidx ~right ~ridx =
    let la = left.arity in
    derive ~arity:(la + right.arity) ~len:(Array.length lidx)
      ~reader:(fun j ->
          if j < la then begin
            let g = getter left j in
            fun i -> g (Array.unsafe_get lidx i)
          end
          else begin
            let g = getter right (j - la) in
            fun i ->
              let q = Array.unsafe_get ridx i in
              if q < 0 then Value.Null else g q
          end)
      (fun j ->
         if j < la then Storage.Col.gather (col left j) lidx
         else Storage.Col.gather (col right (j - la)) ridx)

  let remap (st : store) (offs : int array) =
    derive ~arity:(Array.length offs) ~len:st.len
      ~reader:(fun j -> getter st offs.(j))
      (fun j -> col st offs.(j))

  let length t =
    match t.sel with Some s -> Array.length s | None -> t.store.len

  (* Physical index of logical row [i]. *)
  let phys t =
    match t.sel with
    | Some s -> fun i -> Array.unsafe_get s i
    | None -> fun i -> i

  (* The physical indices of all logical rows. *)
  let phys_array t =
    match t.sel with Some s -> s | None -> Array.init t.store.len Fun.id

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

(* Value of [e] at a physical row of [st]: a plain column reads the
   store's column (no row view is forced), anything else evaluates over
   the row view.  Forces what it reads, so the closure is pure. *)
let expr_getter (s : Schema.t) (st : Chunk.store) (e : Expr.t) :
  int -> Value.t =
  match col_offset s e with
  | Some off -> Chunk.getter st off
  | None ->
    let f = Expr.compile s e in
    let rows = Chunk.rows_view st in
    fun q -> f rows.(q)

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
   back to [Expr.holds] over the forced row view.  Correctness: held-ness
   distributes over top-level AND (see [Expr.holds]); a comparison with a
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
    let p = Expr.holds s c in
    fun i -> p rows.(i)
  in
  let int_col_of a =
    match col_offset s a with Some off -> Chunk.int_col st off | None -> None
  in
  let compile_conj c =
    match c with
    | Expr.Cmp (op, a, Expr.Const (Value.Int k)) -> (
      (* constant rhs: inline the comparison against [k]; a plain int
         column reads its array directly *)
      match int_col_of a with
      | Some (d, nb) ->
        let p : int -> bool =
          match op with
          | Expr.Eq -> fun i -> Array.unsafe_get d i = k
          | Expr.Neq -> fun i -> Array.unsafe_get d i <> k
          | Expr.Lt -> fun i -> Array.unsafe_get d i < k
          | Expr.Le -> fun i -> Array.unsafe_get d i <= k
          | Expr.Gt -> fun i -> Array.unsafe_get d i > k
          | Expr.Ge -> fun i -> Array.unsafe_get d i >= k
        in
        if Bytes.index_opt nb '\001' = None then p
        else fun i -> Bytes.unsafe_get nb i = '\000' && p i
      | None -> (
        match int_expr s st a with
        | None -> fallback c
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
          else fun i -> (not (va.inull i)) && p i))
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
(* Join emission over physical row indices (shared by the join
   operators).  For left physical row [lq], the candidate right rows are
   [rq k] for [k] in [lo, hi), and [matches k] is the residual test.
   Inner and Left_outer append (left, right) index pairs to [out],
   interleaved, a right index of -1 null-extending the row; Semi and
   Anti append the left index alone — their output is a selection. *)

let emit_range (out : int Storage.Vec.t) kind lq lo hi ~rq ~matches =
  match kind with
  | Algebra.Inner ->
    for k = lo to hi - 1 do
      if matches k then begin
        Storage.Vec.push out lq;
        Storage.Vec.push out (rq k)
      end
    done
  | Algebra.Left_outer ->
    let any = ref false in
    for k = lo to hi - 1 do
      if matches k then begin
        any := true;
        Storage.Vec.push out lq;
        Storage.Vec.push out (rq k)
      end
    done;
    if not !any then begin
      Storage.Vec.push out lq;
      Storage.Vec.push out (-1)
    end
  | Algebra.Semi | Algebra.Anti ->
    let rec ex k = k < hi && (matches k || ex (k + 1)) in
    if ex lo = (kind = Algebra.Semi) then Storage.Vec.push out lq

(* A join's output chunk from its emitted indices: interleaved pairs
   become a gather store over the two inputs; a semi/anti join's left
   indices select from the left store. *)
let join_output kind ~(left : Chunk.store) ~(right : Chunk.store)
    (out : int array) : Chunk.t =
  match kind with
  | Algebra.Semi | Algebra.Anti -> { Chunk.store = left; sel = Some out }
  | Algebra.Inner | Algebra.Left_outer ->
    let m = Array.length out / 2 in
    let lidx = Array.init m (fun i -> Array.unsafe_get out (2 * i))
    and ridx = Array.init m (fun i -> Array.unsafe_get out ((2 * i) + 1)) in
    Chunk.dense (Chunk.gather ~left ~lidx ~right ~ridx)
