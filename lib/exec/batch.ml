(* Columnar execution engine.

   Executes the same physical [Plan.t] trees as [Executor], but
   operator-at-a-time over columnar chunks, with bit-identical results
   and identical [Context] cost accounting — at any chunk size and any
   degree of parallelism.  The differences from the interpreter are
   purely mechanical:

   - operators exchange [Eval.Chunk.t] values: per-column typed storage
     (unboxed int/float arrays with null bitmaps, a boxed fallback
     column for strings/bools/mixed numerics) plus a selection vector.
     Scans share their table's memoized typed columns; filters, semi/anti
     joins, DISTINCT, sort and index scans return selections; inner and
     outer joins return gather stores (index vectors into their two
     inputs, columns gathered on first read); hash aggregation emits
     typed columns.  Join emission writes row indices, never rows.  Rows
     are built only at the root (the result) and for nested-loop and
     residual predicates; a projection over a child that already has
     its row view emits rows sharing its boxes;
   - predicates, projection items, sort and grouping keys and aggregate
     arguments whose leaves are all integer columns/constants compile
     through the one integer-expression compiler ([Eval.int_expr], and
     [Eval.pred_store] on top of it) and run directly over the column
     data; everything else compiles through [Relalg.Expr], values with
     [Expr.compile] and predicates with its held compiler ([Expr.holds],
     [Expr.holds2] for nested-loop and residual join predicates);
   - join/aggregation keys hash straight out of the columns: raw ints
     on the single-integer-column fast path ([Keys.Int_map]), and
     column-accessor probing ([Keys.Cols_tbl]) otherwise, so a probe
     never allocates a key array;
   - aggregates over integer arguments fold unboxed
     ([Expr.agg_step_int]); hash and stream aggregation share one
     kernel — the same steppers, groups and typed-column output — and
     differ only in how rows find their group (a hash probe, or
     adjacency in the sorted input).

   Kernels and dispatch.  Each operator is written once: its
   data-parallel work is a kernel over a logical range [lo, hi) of its
   input that writes into a sink — a vector it appends to, or disjoint
   slots of a preallocated output.  The dispatcher runs a node's kernels
   in one of two modes:

   - inline (no pool, or the node's schedule entry is 1):
     [chunk_rows]-sized ranges in order on the calling domain, into one
     shared sink, with one hash partition — no exchange, concatenation
     or first-occurrence re-sort runs;
   - pooled: [morsel]-sized ranges drained by a [Domain_pool], one sink
     per range, concatenated in range order.  Hash joins, aggregation
     and DISTINCT first exchange row indices into hash partitions that
     are built or folded in parallel; sort merges stable runs pairwise.

   Both modes produce the same rows in the same order, by construction:
   range sinks concatenate in range order; every partition receives its
   rows in ascending logical order, so each bucket chain
   (most-recent-first) and each group's fold sequence is the sequential
   one — float sums come out bit-exact with no state merging; groups and
   DISTINCT survivors carry the index of their first row and are
   re-sorted on it; merge ties take the earlier run, which makes the
   parallel sort exactly a stable sort.  Workers do pure computation
   only: every [Context] charge happens on the coordinating domain, in
   the same order relative to child executions in both modes, and the
   lazy caches a kernel reads (gathered columns, row views, a table's
   shared columns) are forced on the coordinator before dispatch.
   Operators whose work charges the stateful buffer pool per row or
   walks its input sequentially (index scan fetches, index-NL probes,
   the merge-join walk, stream aggregation) run on the coordinator in
   both modes.

   Cost charging is decoupled from data movement — all charging loops
   run over *logical* (selection-order) row counts, so the counters are
   identical to the row-at-a-time engine's.  Executing a node returns,
   besides its chunk, a [replay] closure that charges the Context
   exactly as one *warm* re-execution of the interpreter would: page
   reads re-issued against the (stateful, LRU) buffer pool in the same
   order, CPU and spill totals re-charged.  [Nested_loop] — whose
   interpreter semantics re-execute the inner child once per outer
   tuple — computes the inner rows once and calls the inner node's
   [replay] for every further outer tuple: the rescan charges the
   buffer pool without recomputing the subtree.  The rescan cache is
   the node itself, held by physical identity in the operator's
   closure; [Materialize] nodes are additionally memoized by physical
   identity within one [run] (their replay is a no-op — the
   interpreter's memo makes warm rescans free). *)

open Relalg
open Eval

let default_chunk_rows = 1024

(* Test-only fault injection: when set, the single-column integer hash
   join treats NULL keys as [Int 0] on both the build and probe sides —
   simulating the loss of the NULL-key guard on the [Keys.Int_map] fast
   path.  The differential fuzzer's self-test flips this to prove an
   injected engine bug is caught, shrunk and replayed; nothing else may
   set it. *)
let fault_null_key_as_zero = ref false

type node = {
  chunk : Chunk.t;
  replay : unit -> unit; (* charge ctx as one warm re-execution *)
}

(* Sketch-build hook: asked per scanned (table, column), it returns the
   feed callback for columns an estimator wants sketched, or [None].  A
   plain function type — the sketch state itself lives above [exec] in
   the dependency order (the pipeline owns a [Stats.Sketch] registry). *)
type sketch_hook = table:string -> column:string -> (int -> unit) option

(* Feed the full (pre-filter) stores of a sequential scan to the hook:
   sketches summarize the base column, one pass, nulls skipped.  Index
   scans never feed — a range fetch sees only part of the column.  Runs
   on the coordinator: the sketch state is unsynchronized. *)
let feed_sketches (sketch : sketch_hook option) (t : Storage.Table.t)
    (store : Chunk.store) : unit =
  match sketch with
  | None -> ()
  | Some hook ->
    List.iteri
      (fun j (c : Schema.column) ->
         match hook ~table:t.Storage.Table.name ~column:c.Schema.name with
         | Some f -> ignore (Chunk.feed_ints store j f)
         | None -> ())
      t.Storage.Table.schema

(* The pool a run may spread kernels over: up to [width] workers, in
   [morsel]-row ranges; [schedule] caps each node's workers. *)
type pooled = {
  pool : Domain_pool.t;
  width : int;
  morsel : int;
  schedule : (Plan.t -> int) option;
}

type mode = Inline | Pooled of pooled * int (* workers, >= 2 *)

(* Partition route of an integer key.  Independent of [Keys.Int_map]'s
   slot hash, so the keys of one partition still spread over its
   table. *)
let int_route (k : int) = Hashtbl.hash k

(* Hash-partition fan-out at [w] workers.  Any value is correct — output
   and counters do not depend on it — and wider than the pool balances
   skewed keys. *)
let nparts w = min 64 (4 * w)

(* Stable merge of two sorted runs; ties take [a]'s element. *)
let merge_runs cmp a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) a.(0) in
    let ai = ref 0 and bi = ref 0 in
    for k = 0 to na + nb - 1 do
      if !bi >= nb || (!ai < na && cmp a.(!ai) b.(!bi) <= 0) then begin
        out.(k) <- a.(!ai);
        incr ai
      end
      else begin
        out.(k) <- b.(!bi);
        incr bi
      end
    done;
    out
  end

(* Per-partition outputs — each paired with the logical index of the
   input row that first produced it, in first-occurrence order within
   its partition — merged into global first-occurrence order.  A single
   partition is already in order. *)
let by_first (parts : (int array * 'a array) array) : 'a array =
  match parts with
  | [| (_, xs) |] -> xs
  | _ ->
    let all =
      Array.concat
        (Array.to_list
           (Array.map
              (fun (firsts, xs) -> Array.mapi (fun i x -> (firsts.(i), x)) xs)
              parts))
    in
    Array.sort (fun (a, _) (b, _) -> compare (a : int) b) all;
    Array.map snd all

let run_node ~ctx ~obs ~sketch ~chunk_rows ~(par : pooled option)
    (cat : Storage.Catalog.t) (plan : Plan.t) : node =
  let chunk_rows = max 1 chunk_rows in
  let mode p =
    match par with
    | None -> Inline
    | Some pr ->
      let w =
        match pr.schedule with
        | None -> pr.width
        | Some f -> max 1 (min pr.width (f p))
      in
      if w <= 1 then Inline else Pooled (pr, w)
  in
  (* Run [tasks] on [w] workers as a parallel phase of node [p]: per-task
     busy time and rows ([f c] returns task [c]'s rows) fold into the
     operator's [par] stats.  Workers write disjoint slots; the
     coordinator folds them into the recorder after the phase, so only
     one domain ever mutates recorder state. *)
  let spread p pr w ~tasks (f : int -> int) =
    if tasks = 1 then ignore (f 0)
    else if tasks > 1 then begin
      let wall = Array.make pr.width 0. and wrows = Array.make pr.width 0 in
      let tl =
        match obs with
        | Some _ -> Some (Array.make tasks (-1, 0., 0.))
        | None -> None
      in
      Domain_pool.run pr.pool ~workers:w ~tasks (fun ~worker c ->
          let t0 = Mclock.now () in
          let r = f c in
          let t1 = Mclock.now () in
          (match tl with Some a -> a.(c) <- (worker, t0, t1) | None -> ());
          wall.(worker) <- wall.(worker) +. (t1 -. t0);
          wrows.(worker) <- wrows.(worker) + r);
      match obs with
      | Some rc ->
        Instrument.record_par rc p ~dop:pr.width ~wall ~rows:wrows;
        Option.iter
          (Array.iter (fun (worker, t0, t1) ->
               if worker >= 0 then
                 Instrument.record_task rc p ~worker ~start_s:t0 ~end_s:t1))
          tl
      | None -> ()
    end
  in
  let inline_ranges n (k : int -> int -> unit) =
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + chunk_rows) in
      k !lo hi;
      lo := hi
    done
  in
  (* [k c lo hi] over the morsels of [0, n); [k] returns its rows *)
  let pooled_ranges p pr w n (k : int -> int -> int -> int) =
    let m = pr.morsel in
    spread p pr w ~tasks:((n + m - 1) / m) (fun c ->
        k c (c * m) (min n ((c * m) + m)))
  in
  (* Run [k lo hi sink] over the ranges of [0, n); returns the sinks'
     contents in range order, and the sum of [k]'s results (the CPU it
     charges, when it probes). *)
  let collect : 'a. Plan.t -> int -> (int -> int -> 'a Storage.Vec.t -> int)
    -> 'a array * int =
    fun p n k ->
    match mode p with
    | Inline ->
      let sink = Storage.Vec.create () in
      let acc = ref 0 in
      inline_ranges n (fun lo hi -> acc := !acc + k lo hi sink);
      (Storage.Vec.to_array sink, !acc)
    | Pooled (pr, w) ->
      let tasks = (n + pr.morsel - 1) / pr.morsel in
      let outs = Array.make tasks [||] and accs = Array.make tasks 0 in
      pooled_ranges p pr w n (fun c lo hi ->
          let sink = Storage.Vec.create () in
          accs.(c) <- k lo hi sink;
          outs.(c) <- Storage.Vec.to_array sink;
          Array.length outs.(c));
      ( (match outs with
         | [| a |] -> a
         | _ -> Array.concat (Array.to_list outs)),
        Array.fold_left ( + ) 0 accs )
  in
  (* Run [k lo hi] over the ranges of [0, n); kernels fill disjoint
     slots of a preallocated output. *)
  let fill p n (k : int -> int -> unit) =
    match mode p with
    | Inline -> inline_ranges n k
    | Pooled (pr, w) ->
      pooled_ranges p pr w n (fun _ lo hi ->
          k lo hi;
          hi - lo)
  in
  (* The hash exchange: [f ~size iter] runs once per partition, where
     [iter] visits — in ascending order — the [size] logical indices of
     [0, n) whose [route] (a non-negative hash) selects that partition.
     Inline there is one partition and no exchange: [iter] walks [0, n)
     and [route] is never called.  Returns the per-partition results. *)
  let partitioned : 'a. Plan.t -> int -> route:(int -> int)
    -> (size:int -> ((int -> unit) -> unit) -> 'a) -> 'a array =
    fun p n ~route f ->
    match mode p with
    | Inline ->
      [| f ~size:n (fun g ->
            for i = 0 to n - 1 do
              g i
            done) |]
    | Pooled (pr, w) ->
      let np = nparts w in
      let tasks = (n + pr.morsel - 1) / pr.morsel in
      let parts =
        Array.init tasks (fun _ ->
            Array.init np (fun _ -> Storage.Vec.create ()))
      in
      pooled_ranges p pr w n (fun c lo hi ->
          for i = lo to hi - 1 do
            Storage.Vec.push parts.(c).(route i mod np) i
          done;
          hi - lo);
      let res = Array.make np None in
      spread p pr w ~tasks:np (fun pt ->
          let size = ref 0 in
          for c = 0 to tasks - 1 do
            size := !size + Storage.Vec.length parts.(c).(pt)
          done;
          res.(pt) <-
            Some
              (f ~size:!size (fun g ->
                   for c = 0 to tasks - 1 do
                     Storage.Vec.iter g parts.(c).(pt)
                   done));
          !size);
      Array.map Option.get res
  in
  (* A stable sort of [arr], which is left untouched.  Pooled: stable
     morsel runs, then pairwise merge rounds. *)
  let stable_sort : 'a. Plan.t -> ('a -> 'a -> int) -> 'a array -> 'a array =
    fun p cmp arr ->
    let n = Array.length arr in
    match mode p with
    | Pooled (pr, w) when n > pr.morsel ->
      let m = pr.morsel in
      let runs =
        Array.init ((n + m - 1) / m) (fun c ->
            Array.sub arr (c * m) (min m (n - (c * m))))
      in
      spread p pr w ~tasks:(Array.length runs) (fun c ->
          Array.stable_sort cmp runs.(c);
          Array.length runs.(c));
      let cur = ref runs in
      while Array.length !cur > 1 do
        let prev = !cur in
        let k = Array.length prev in
        let next = Array.make ((k + 1) / 2) [||] in
        spread p pr w ~tasks:(k / 2) (fun c ->
            next.(c) <- merge_runs cmp prev.(2 * c) prev.((2 * c) + 1);
            Array.length next.(c));
        if k land 1 = 1 then next.(k / 2) <- prev.(k - 1);
        cur := next
      done;
      !cur.(0)
    | Inline | Pooled _ ->
      let c = Array.copy arr in
      Array.stable_sort cmp c;
      c
  in
  (* Narrow [ch]'s selection to the rows passing [keep] (a pure
     predicate over physical indices); the data is never copied. *)
  let select p (ch : Chunk.t) keep : Chunk.t =
    let kernel =
      match ch.Chunk.sel with
      | None ->
        fun lo hi out ->
          for q = lo to hi - 1 do
            if keep q then Storage.Vec.push out q
          done;
          0
      | Some s ->
        fun lo hi out ->
          for j = lo to hi - 1 do
            let q = Array.unsafe_get s j in
            if keep q then Storage.Vec.push out q
          done;
          0
    in
    { ch with Chunk.sel = Some (fst (collect p (Chunk.length ch) kernel)) }
  in
  let memo : (Plan.t * node) list ref = ref [] in
  (* Instrumentation is a single match per operator execution when off.
     The measured copy of the node wraps [replay] so each replay invocation
     counts as a rescan — mirroring the interpreter, where a rescan is a
     re-execution of the node through [measure].  The memo keeps the
     unwrapped node, so a memo hit re-wraps exactly once. *)
  let rec exec (p : Plan.t) : node =
    match obs with
    | None -> exec_op p
    | Some r ->
      let n =
        Instrument.measure r ctx p
          ~rows:(fun (n : node) -> Chunk.length n.chunk)
          (fun () -> exec_op p)
      in
      { n with replay = Instrument.measured_replay r ctx p n.replay }

  and exec_op (p : Plan.t) : node =
    match p with
    | Plan.Seq_scan { table; alias; filter } -> seq_scan p table alias filter
    | Plan.Index_scan { table; alias; column; lo; hi; filter } ->
      index_scan p table alias column lo hi filter
    | Plan.Filter (f, i) -> filter_op p f i
    | Plan.Project (items, i) -> project p items i
    | Plan.Sort (keys, i) -> sort p keys i
    | Plan.Materialize i -> (
      match List.find_opt (fun (q, _) -> q == p) !memo with
      | Some (_, n) -> n
      | None ->
        let child = exec i in
        (* the interpreter's memo makes warm rescans of a Materialize
           free: replay charges nothing *)
        let n = { chunk = child.chunk; replay = (fun () -> ()) } in
        memo := (p, n) :: !memo;
        n)
    | Plan.Nested_loop { kind; pred; outer; inner } ->
      nested_loop p kind pred outer inner
    | Plan.Index_nl
        { kind; outer; table; alias; index; columns = _; outer_keys; residual }
      ->
      index_nl kind outer table alias index outer_keys residual
    | Plan.Merge_join { kind; pairs; residual; left; right } ->
      merge_join kind pairs residual left right
    | Plan.Hash_join { kind; pairs; residual; left; right } ->
      hash_join p kind pairs residual left right
    | Plan.Hash_agg { keys; aggs; input } ->
      aggregate p ~sorted:false keys aggs input
    | Plan.Stream_agg { keys; aggs; input } ->
      aggregate p ~sorted:true keys aggs input
    | Plan.Hash_distinct i -> hash_distinct p i

  (* ---------------------------------------------------------------- *)
  (* Scans *)

  and seq_scan p table alias filter =
    let t = Storage.Catalog.table cat table in
    let pages = Storage.Table.page_count t in
    let n = Storage.Table.row_count t in
    let charge () =
      for pg = 0 to pages - 1 do
        Context.read_page ctx ~random:false (table, pg)
      done;
      Context.charge_cpu ctx n
    in
    charge ();
    let s = Schema.requalify t.Storage.Table.schema ~rel:alias in
    (* the table's own store: typed columns are classified once per table
       size and shared by every later scan *)
    let store = Chunk.of_table t in
    feed_sketches sketch t store;
    let chunk =
      match filter with
      | None -> Chunk.dense store
      | Some f ->
        (* pushed filter: emit a selection over the scanned store — int
           comparisons run unboxed over the column extractions *)
        select p (Chunk.dense store) (pred_store s f store)
    in
    { chunk; replay = charge }

  and index_scan p table alias column lo hi filter =
    let t = Storage.Catalog.table cat table in
    let idx =
      match Storage.Catalog.index_on cat ~table ~column with
      | Some i -> i
      | None ->
        invalid_arg
          (Printf.sprintf "Index_scan: no index on %s(%s)" table column)
    in
    let entries = Storage.Btree.range idx ~lo ~hi in
    let lo_pos =
      match lo with
      | Storage.Btree.Unbounded -> Storage.Btree.upper_bound idx [ Value.Null ]
      | Storage.Btree.Incl k -> Storage.Btree.lower_bound idx [ k ]
      | Storage.Btree.Excl k -> Storage.Btree.upper_bound idx [ k ]
    in
    let charge () = Access.charge_index_fetch ctx idx t ~entries ~lo_pos in
    charge ();
    let s = Schema.requalify t.Storage.Table.schema ~rel:alias in
    (* the fetched row ids select from the table's store: no row moves *)
    let store = Chunk.of_table t in
    let fetched = { Chunk.store; sel = Some (Array.map snd entries) } in
    let chunk =
      match filter with
      | None -> fetched
      | Some f -> select p fetched (pred_store s f store)
    in
    { chunk; replay = charge }

  (* ---------------------------------------------------------------- *)
  (* Row-at-a-time scalar operators, vectorized *)

  and filter_op p f i =
    let child = exec i in
    let s = Plan.schema cat i in
    let ch = child.chunk in
    let n = Chunk.length ch in
    let keep = pred_store s f ch.Chunk.store in
    Context.charge_cpu ctx n;
    { chunk = select p ch keep;
      replay = (fun () -> child.replay (); Context.charge_cpu ctx n) }

  and project p items i =
    let child = exec i in
    let s = Plan.schema cat i in
    let ch = child.chunk in
    let store = ch.Chunk.store in
    let n = Chunk.length ch in
    Context.charge_cpu ctx n;
    let es = Array.of_list (List.map fst items) in
    let nf = Array.length es in
    let offs = Array.map (col_offset s) es in
    let chunk =
      match store.Chunk.rows with
      | _ when Array.for_all Option.is_some offs ->
        (* plain columns only: share the input's columns under the new
           positions, keep its selection — nothing is copied *)
        { ch with Chunk.store = Chunk.remap store (Array.map Option.get offs) }
      | Some srows ->
        (* the child is already materialized: one row-at-a-time pass over
           its physical rows — plain columns share the existing boxes,
           integer items ([Eval.int_expr]) re-box through the interned
           small-int cache — beats building typed columns that re-box at
           the next materialization boundary.  Output columns stay lazy. *)
        let item e : int -> Value.t =
          match col_offset s e with
          | Some off -> fun q -> Tuple.get (Array.unsafe_get srows q) off
          | None -> (
            match int_expr s store e with
            | Some v ->
              fun q ->
                if v.inull q then Value.Null else Storage.Col.box_int (v.iv q)
            | None ->
              let f = Expr.compile s e in
              fun q -> f (Array.unsafe_get srows q))
        in
        let fs = Array.map item es in
        let out = Array.make n [||] in
        (* item evaluation stays left-to-right (explicit lets below) so
           any expression error surfaces in the interpreter's order *)
        fill p n
          (match ch.Chunk.sel, fs with
           | None, [| f0 |] ->
             fun lo hi ->
               for j = lo to hi - 1 do
                 Array.unsafe_set out j [| f0 j |]
               done
           | None, [| f0; f1 |] ->
             fun lo hi ->
               for j = lo to hi - 1 do
                 let a = f0 j in
                 let b = f1 j in
                 Array.unsafe_set out j [| a; b |]
               done
           | None, fs ->
             fun lo hi ->
               for j = lo to hi - 1 do
                 let o = Array.make nf Value.Null in
                 for c = 0 to nf - 1 do
                   Array.unsafe_set o c ((Array.unsafe_get fs c) j)
                 done;
                 Array.unsafe_set out j o
               done
           | Some sel, [| f0; f1 |] ->
             fun lo hi ->
               for j = lo to hi - 1 do
                 let q = Array.unsafe_get sel j in
                 let a = f0 q in
                 let b = f1 q in
                 Array.unsafe_set out j [| a; b |]
               done
           | Some sel, fs ->
             fun lo hi ->
               for j = lo to hi - 1 do
                 let q = Array.unsafe_get sel j in
                 let o = Array.make nf Value.Null in
                 for c = 0 to nf - 1 do
                   Array.unsafe_set o c ((Array.unsafe_get fs c) q)
                 done;
                 Array.unsafe_set out j o
               done);
        Chunk.of_rows ~arity:nf out
      | None ->
        (* column-at-a-time: plain column refs share (or gather) the
           child's typed columns; integer expressions fill unboxed
           output columns; everything else falls back to compiled row
           evaluation.  The output is always dense — a projection
           consumes the selection.  Columns are classified and
           preallocated here (forcing the child's caches); the kernel
           fills every column's slots for its range. *)
        let phys = Chunk.phys ch in
        let rows = lazy (Chunk.to_rows ch) in
        let fills = Storage.Vec.create () in
        let filled c k =
          Storage.Vec.push fills k;
          c
        in
        let out_cols =
          Array.map
            (fun e ->
               let c =
                 match col_offset s e with
                 | Some off -> (
                   match (Chunk.col store off, ch.Chunk.sel) with
                   | c, None -> c (* share, zero cost *)
                   | Chunk.Ints (d, nb), Some sel ->
                     let d' = Array.make n 0 and nb' = Bytes.make n '\000' in
                     filled (Chunk.Ints (d', nb')) (fun lo hi ->
                         for j = lo to hi - 1 do
                           let q = Array.unsafe_get sel j in
                           d'.(j) <- d.(q);
                           Bytes.set nb' j (Bytes.get nb q)
                         done)
                   | Chunk.Floats (d, nb), Some sel ->
                     let d' = Array.make n 0. and nb' = Bytes.make n '\000' in
                     filled (Chunk.Floats (d', nb')) (fun lo hi ->
                         for j = lo to hi - 1 do
                           let q = Array.unsafe_get sel j in
                           d'.(j) <- d.(q);
                           Bytes.set nb' j (Bytes.get nb q)
                         done)
                   | Chunk.Boxed v, Some sel ->
                     let v' = Array.make n Value.Null in
                     filled (Chunk.Boxed v') (fun lo hi ->
                         for j = lo to hi - 1 do
                           v'.(j) <- v.(Array.unsafe_get sel j)
                         done))
                 | None -> (
                   match int_expr s store e with
                   | Some v ->
                     let d = Array.make n 0 and nb = Bytes.make n '\000' in
                     filled (Chunk.Ints (d, nb)) (fun lo hi ->
                         for j = lo to hi - 1 do
                           let q = phys j in
                           if v.inull q then Bytes.set nb j '\001'
                           else d.(j) <- v.iv q
                         done)
                   | None ->
                     let f = Expr.compile s e in
                     let r = Lazy.force rows in
                     let v' = Array.make n Value.Null in
                     filled (Chunk.Boxed v') (fun lo hi ->
                         for j = lo to hi - 1 do
                           v'.(j) <- f r.(j)
                         done))
               in
               c)
            es
        in
        let fills = Storage.Vec.to_array fills in
        if Array.length fills > 0 then
          fill p n (fun lo hi -> Array.iter (fun k -> k lo hi) fills);
        Chunk.dense (Chunk.store_of_cols ~len:n out_cols)
    in
    { chunk;
      replay = (fun () -> child.replay (); Context.charge_cpu ctx n) }

  and sort p keys i =
    let child = exec i in
    let s = Plan.schema cat i in
    let ch = child.chunk in
    let store = ch.Chunk.store in
    let n = Chunk.length ch in
    let cpu = n * Access.log2_ceil n in
    let pages = Storage.Page.pages_for ~rows:n s in
    let spill =
      Access.sort_spill_pages ~work_mem:ctx.Context.work_mem_pages ~pages
    in
    let charge () =
      Context.charge_cpu ctx cpu;
      Context.charge_spill ctx spill
    in
    charge ();
    (* The output is a stable-sorted permutation of the input's logical
       rows, returned as a selection over the input store.  Each key
       compares on a typed column ([Storage.Col.compare_cells] is
       [Value.compare] without boxing): plain column keys read the
       store's column through the selection, computed keys are evaluated
       once per logical row into a column of their own. *)
    let phys = Chunk.phys ch in
    let key_cmp (k : Plan.sort_key) : int -> int -> int =
      let cmp =
        match col_offset s k.Plan.key with
        | Some off ->
          let c = Chunk.col store off in
          let cmp = Storage.Col.compare_cells c c in
          (match ch.Chunk.sel with
           | None -> cmp
           | Some sel ->
             fun a b -> cmp (Array.unsafe_get sel a) (Array.unsafe_get sel b))
        | None ->
          let c =
            match int_expr s store k.Plan.key with
            | Some v ->
              let d = Array.make n 0 and nb = Bytes.make n '\000' in
              for j = 0 to n - 1 do
                let q = phys j in
                if v.inull q then Bytes.set nb j '\001' else d.(j) <- v.iv q
              done;
              Chunk.Ints (d, nb)
            | None ->
              let get = expr_getter s store k.Plan.key in
              Storage.Col.classify n (fun j -> get (phys j))
          in
          Storage.Col.compare_cells c c
      in
      if k.Plan.descending then fun a b -> - (cmp a b) else cmp
    in
    let cmps = Array.of_list (List.map key_cmp keys) in
    let nk = Array.length cmps in
    let cmp =
      match cmps with
      | [| c0 |] -> c0
      | [| c0; c1 |] -> fun a b -> (match c0 a b with 0 -> c1 a b | c -> c)
      | _ ->
        fun a b ->
          let c = ref 0 and k = ref 0 in
          while !c = 0 && !k < nk do
            c := cmps.(!k) a b;
            incr k
          done;
          !c
    in
    let perm = stable_sort p cmp (Array.init n Fun.id) in
    let sel =
      match ch.Chunk.sel with
      | None -> perm
      | Some sel -> Array.map (fun j -> Array.unsafe_get sel j) perm
    in
    { chunk = { Chunk.store; sel = Some sel };
      replay = (fun () -> child.replay (); charge ()) }

  (* ---------------------------------------------------------------- *)
  (* Joins.  Every join emits physical row indices ([Eval.emit_range]
     or the hash chain walk) and returns a gather store over its two
     inputs, or a selection of its left input for semi/anti
     ([Eval.join_output]); no join builds a row.  A residual predicate
     reads both inputs' row views. *)

  (* [holds lq rq] over physical rows of two stores, or [None] for the
     trivially true residual (no row view is forced then) *)
  and residual_test sl sr residual (lstore : Chunk.store) (rstore : Chunk.store)
    : (int -> int -> bool) option =
    if residual = Expr.ftrue then None
    else begin
      let holds = Expr.holds2 sl sr residual in
      let lrows = Chunk.rows_view lstore and rrows = Chunk.rows_view rstore in
      Some (fun lq rq -> holds lrows.(lq) rrows.(rq))
    end

  and nested_loop p kind pred outer inner =
    let onode = exec outer in
    let och = onode.chunk in
    let n_out = Chunk.length och in
    let so = Plan.schema cat outer and si = Plan.schema cat inner in
    if n_out = 0 then
      (* the interpreter never executes the inner of an empty outer *)
      { chunk =
          join_output kind ~left:och.Chunk.store
            ~right:(Chunk.store_of_rows ~arity:(Schema.arity si) [||])
            [||];
        replay = onode.replay }
    else begin
      (* the rescan cache: the inner subtree runs once; every further
         outer tuple replays its cost against the buffer pool *)
      let inode = exec inner in
      let ich = inode.chunk in
      let n_in = Chunk.length ich in
      Context.charge_cpu ctx n_in;
      for _ = 2 to n_out do
        inode.replay ();
        Context.charge_cpu ctx n_in
      done;
      let holds = Expr.holds2 so si pred in
      let orows = Chunk.rows_view och.Chunk.store
      and irows = Chunk.rows_view ich.Chunk.store in
      let ophys = Chunk.phys och and iphys = Chunk.phys ich in
      let out, _ =
        collect p n_out (fun lo hi out ->
            for oi = lo to hi - 1 do
              let lq = ophys oi in
              let ot = orows.(lq) in
              emit_range out kind lq 0 n_in ~rq:iphys
                ~matches:(fun k -> holds ot irows.(iphys k))
            done;
            0)
      in
      { chunk =
          join_output kind ~left:och.Chunk.store ~right:ich.Chunk.store out;
        replay =
          (fun () ->
             onode.replay ();
             for _ = 1 to n_out do
               inode.replay ();
               Context.charge_cpu ctx n_in
             done) }
    end

  (* per-probe B-tree page charges are order-dependent: the probe loop
     stays on the coordinator (the outer subtree may still run pooled) *)
  and index_nl kind outer table alias index outer_keys residual =
    let t = Storage.Catalog.table cat table in
    let idx =
      match Storage.Catalog.index_named cat ~table ~name:index with
      | Some i -> i
      | None ->
        invalid_arg (Printf.sprintf "Index_nl: no index %s on %s" index table)
    in
    let onode = exec outer in
    let och = onode.chunk in
    let ostore = och.Chunk.store in
    let so = Plan.schema cat outer in
    let si = Schema.requalify t.Storage.Table.schema ~rel:alias in
    let istore = Chunk.of_table t in
    let keyfs = Array.of_list (List.map (expr_getter so ostore) outer_keys) in
    let probe_keys q = Array.to_list (Array.map (fun f -> f q) keyfs) in
    let holds = residual_test so si residual ostore istore in
    let charge_probe ks =
      let entries = Storage.Btree.probe idx ks in
      Access.charge_index_fetch ctx idx t ~entries
        ~lo_pos:(Storage.Btree.lower_bound idx ks);
      Context.charge_cpu ctx (1 + Array.length entries);
      entries
    in
    let outer_phys = Chunk.phys_array och in
    let out = Storage.Vec.create () in
    Array.iter
      (fun lq ->
         let entries = charge_probe (probe_keys lq) in
         let rq k = snd entries.(k) in
         emit_range out kind lq 0 (Array.length entries) ~rq
           ~matches:
             (match holds with
              | None -> fun _ -> true
              | Some h -> fun k -> h lq (rq k)))
      outer_phys;
    { chunk =
        join_output kind ~left:ostore ~right:istore (Storage.Vec.to_array out);
      replay =
        (fun () ->
           onode.replay ();
           Array.iter (fun lq -> ignore (charge_probe (probe_keys lq)))
             outer_phys) }

  (* the merge walk is a sequential two-pointer scan on the coordinator;
     its children (often Sorts) still run through [exec] *)
  and merge_join kind pairs residual left right =
    let lnode = exec left in
    let rnode = exec right in
    let lch = lnode.chunk and rch = rnode.chunk in
    let lstore = lch.Chunk.store and rstore = rch.Chunk.store in
    let sl = Plan.schema cat left and sr = Plan.schema cat right in
    let lcols = Array.map (Chunk.col lstore) (offsets sl (List.map fst pairs)) in
    let rcols = Array.map (Chunk.col rstore) (offsets sr (List.map snd pairs)) in
    let nk = Array.length lcols in
    let holds = residual_test sl sr residual lstore rstore in
    let nl = Chunk.length lch and nr = Chunk.length rch in
    let lphys = Chunk.phys lch and rphys = Chunk.phys rch in
    Context.charge_cpu ctx (nl + nr);
    let cpu = ref (nl + nr) in
    (* key comparisons read the typed key columns in place *)
    let keys_cmp cmps p q =
      let c = ref 0 and k = ref 0 in
      while !c = 0 && !k < nk do
        c := cmps.(!k) p q;
        incr k
      done;
      !c
    in
    let cmps_lr = Array.map2 Storage.Col.compare_cells lcols rcols in
    let cmps_ll = Array.map2 Storage.Col.compare_cells lcols lcols in
    let cmp_lr li rj = keys_cmp cmps_lr (lphys li) (rphys rj) in
    let cmp_ll li li' = keys_cmp cmps_ll (lphys li) (lphys li') in
    let nullfree cols q =
      let k = ref 0 in
      while !k < nk && not (Storage.Col.is_null cols.(!k) q) do
        incr k
      done;
      !k = nk
    in
    let l_nullfree li = nullfree lcols (lphys li) in
    let r_nullfree rj = nullfree rcols (rphys rj) in
    let out = Storage.Vec.create () in
    let i = ref 0 in
    let j = ref 0 in
    while !i < nl do
      if not (l_nullfree !i) then begin
        (* null keys never match *)
        (match kind with
         | Algebra.Left_outer ->
           Storage.Vec.push out (lphys !i);
           Storage.Vec.push out (-1)
         | Algebra.Anti -> Storage.Vec.push out (lphys !i)
         | Algebra.Inner | Algebra.Semi -> ());
        incr i
      end
      else begin
        let anchor = !i in
        (* advance right side to the anchor key *)
        while !j < nr && ((not (r_nullfree !j)) || cmp_lr anchor !j > 0) do
          incr j
        done;
        (* the block of right rows with key = anchor key *)
        let bs = !j in
        let be = ref !j in
        while !be < nr && cmp_lr anchor !be = 0 do
          incr be
        done;
        (* emit for every left row sharing this key *)
        while !i < nl && l_nullfree !i && cmp_ll !i anchor = 0 do
          let lq = lphys !i in
          let blen = !be - bs in
          Context.charge_cpu ctx blen;
          cpu := !cpu + blen;
          emit_range out kind lq bs !be ~rq:rphys
            ~matches:
              (match holds with
               | None -> fun _ -> true
               | Some h -> fun k -> h lq (rphys k));
          incr i
        done
      end
    done;
    let total_cpu = !cpu in
    { chunk =
        join_output kind ~left:lstore ~right:rstore (Storage.Vec.to_array out);
      replay =
        (fun () ->
           lnode.replay ();
           rnode.replay ();
           Context.charge_cpu ctx total_cpu) }

  and hash_join p kind pairs residual left right =
    (* interpreter order: build side (right) executes first *)
    let rnode = exec right in
    let rch = rnode.chunk in
    let nr = Chunk.length rch in
    let sl = Plan.schema cat left and sr = Plan.schema cat right in
    let roffs = offsets sr (List.map snd pairs) in
    Context.charge_cpu ctx nr;
    let rpages = Storage.Page.pages_for ~rows:nr sr in
    let lnode = exec left in
    let lch = lnode.chunk in
    let nl = Chunk.length lch in
    let lpages = Storage.Page.pages_for ~rows:nl sl in
    (* spill if the build side exceeds work_mem (Grace-style partitioning) *)
    let spill =
      if rpages > ctx.Context.work_mem_pages then 2 * (rpages + lpages) else 0
    in
    if spill > 0 then Context.charge_spill ctx spill;
    let loffs = offsets sl (List.map fst pairs) in
    Context.charge_cpu ctx nl;
    let rstore = rch.Chunk.store and lstore = lch.Chunk.store in
    let rphys = Chunk.phys rch and lphys = Chunk.phys lch in
    let fault = !fault_null_key_as_zero in
    (* Buckets chain build-side logical indices through [next]
       (most-recent-first); no build row is boxed. *)
    let next = Array.make nr (-1) in
    let absent = { blen = 0; head = -1 } in
    let fresh ri = { blen = 1; head = ri } in
    let push b ri =
      next.(ri) <- b.head;
      b.head <- ri;
      b.blen <- b.blen + 1
    in
    let nk = Array.length roffs in
    let rcol = if nk = 1 then Chunk.int_col rstore roffs.(0) else None in
    let lcol =
      if nk = 1 && rcol <> None then Chunk.int_col lstore loffs.(0) else None
    in
    (* Build one table per partition (the partition of a build row is
       its key's hash), then [probe li] looks left row [li]'s key up in
       the table its own key hash selects: the bucket, or [absent]. *)
    let probe : int -> bucket =
      match (rcol, lcol) with
      | Some (rd, rnb), Some (ld, lnb) ->
        (* single-column integer keys, both sides already unboxed in the
           column store: open-addressing map, raw int hashing, no key or
           entry allocation; the miss dummy doubles as the empty bucket on
           probe.  NULL keys never join; under the test-only fault they
           collapse to key 0, which the differential fuzzer must detect. *)
        let live nb q = fault || Bytes.get nb q = '\000' in
        let key d nb q = if Bytes.get nb q <> '\000' then 0 else d.(q) in
        let tbls =
          partitioned p nr
            ~route:(fun ri -> int_route (key rd rnb (rphys ri)))
            (fun ~size iter ->
               let tbl = Keys.Int_map.create ~dummy:absent (max 16 size) in
               iter (fun ri ->
                   let q = rphys ri in
                   if live rnb q then begin
                     let k = key rd rnb q in
                     let b = Keys.Int_map.find tbl k in
                     if b == absent then Keys.Int_map.add tbl k (fresh ri)
                     else push b ri
                   end);
               tbl)
        in
        let np = Array.length tbls in
        fun li ->
          let q = lphys li in
          if live lnb q then
            let k = key ld lnb q in
            Keys.Int_map.find
              (if np = 1 then tbls.(0) else tbls.(int_route k mod np))
              k
          else absent
      | _ ->
        (* generic keys: the build materializes each key exactly once; a
           probe hashes and compares column-wise through accessors, never
           allocating a key array.  Probe routes hash with
           [Keys.Cols_tbl.hash_cols], consistent with the build's, so
           Int 2 = Float 2.0 keys land in one partition. *)
        let rgets = Array.map (fun off -> Chunk.getter rstore off) roffs in
        let lgets = Array.map (fun off -> Chunk.getter lstore off) loffs in
        let nullfree gets q =
          let c = ref 0 in
          while !c < nk && not (Value.is_null (gets.(!c) q)) do
            incr c
          done;
          !c = nk
        in
        let tbls =
          partitioned p nr
            ~route:(fun ri ->
                Keys.Cols_tbl.hash_cols rgets (rphys ri) land max_int)
            (fun ~size iter ->
               let tbl = Keys.Cols_tbl.create ~dummy:absent (max 16 size) in
               iter (fun ri ->
                   let q = rphys ri in
                   if nullfree rgets q then begin
                     let b = Keys.Cols_tbl.find tbl rgets q in
                     if b == absent then
                       Keys.Cols_tbl.add tbl
                         (Array.init nk (fun c -> rgets.(c) q))
                         (fresh ri)
                     else push b ri
                   end);
               tbl)
        in
        let np = Array.length tbls in
        fun li ->
          let q = lphys li in
          if nullfree lgets q then
            Keys.Cols_tbl.find
              (if np = 1 then tbls.(0)
               else tbls.(Keys.Cols_tbl.hash_cols lgets q land max_int mod np))
              lgets q
          else absent
    in
    (* Probe kernels return the bucket lengths they scanned: the CPU the
       interpreter charges per probe, summed and charged here. *)
    let holds = residual_test sl sr residual lstore rstore in
    let chunk, probe_cpu =
      match (kind, holds) with
      | (Algebra.Inner | Algebra.Left_outer), None ->
        (* every chain entry is a match: one probe pass records each left
           row's chain head and output count, and a fill pass writes the
           gather's index vectors straight into place *)
        let outer = kind = Algebra.Left_outer in
        let heads = Array.make nl (-1) and start = Array.make (nl + 1) 0 in
        fill p nl (fun lo hi ->
            for li = lo to hi - 1 do
              let b = probe li in
              heads.(li) <- b.head;
              start.(li + 1) <- (if outer && b.blen = 0 then 1 else b.blen)
            done);
        let cpu = ref 0 in
        for li = 0 to nl - 1 do
          if heads.(li) >= 0 then cpu := !cpu + start.(li + 1);
          start.(li + 1) <- start.(li) + start.(li + 1)
        done;
        let m = start.(nl) in
        let lidx = Array.make m 0 and ridx = Array.make m (-1) in
        fill p nl (fun lo hi ->
            for li = lo to hi - 1 do
              let lq = lphys li in
              let o = ref start.(li) in
              if outer && heads.(li) < 0 then lidx.(!o) <- lq
              else begin
                let k = ref heads.(li) in
                while !k >= 0 do
                  lidx.(!o) <- lq;
                  ridx.(!o) <- rphys !k;
                  incr o;
                  k := next.(!k)
                done
              end
            done);
        (Chunk.dense (Chunk.gather ~left:lstore ~lidx ~right:rstore ~ridx), !cpu)
      | (Algebra.Semi | Algebra.Anti), None ->
        (* the chain is never walked: a non-empty bucket decides *)
        let keep_if_match = kind = Algebra.Semi in
        let sel, cpu =
          collect p nl (fun lo hi out ->
              let cpu = ref 0 in
              for li = lo to hi - 1 do
                let blen = (probe li).blen in
                cpu := !cpu + blen;
                if (blen > 0) = keep_if_match then
                  Storage.Vec.push out (lphys li)
              done;
              !cpu)
        in
        ({ Chunk.store = lstore; sel = Some sel }, cpu)
      | _, Some holds ->
        let matches lq ri = holds lq (rphys ri) in
        let out, cpu =
          collect p nl (fun lo hi out ->
              let cpu = ref 0 in
              for li = lo to hi - 1 do
                let b = probe li in
                cpu := !cpu + b.blen;
                let lq = lphys li in
                match kind with
                | Algebra.Inner | Algebra.Left_outer ->
                  let any = ref false in
                  let k = ref b.head in
                  while !k >= 0 do
                    if matches lq !k then begin
                      any := true;
                      Storage.Vec.push out lq;
                      Storage.Vec.push out (rphys !k)
                    end;
                    k := next.(!k)
                  done;
                  if (not !any) && kind = Algebra.Left_outer then begin
                    Storage.Vec.push out lq;
                    Storage.Vec.push out (-1)
                  end
                | Algebra.Semi | Algebra.Anti ->
                  let rec ex k = k >= 0 && (matches lq k || ex next.(k)) in
                  if ex b.head = (kind = Algebra.Semi) then
                    Storage.Vec.push out lq
              done;
              !cpu)
        in
        (join_output kind ~left:lstore ~right:rstore out, cpu)
    in
    Context.charge_cpu ctx probe_cpu;
    let total_cpu = nr + nl + probe_cpu in
    { chunk;
      replay =
        (fun () ->
           rnode.replay ();
           lnode.replay ();
           Context.charge_cpu ctx total_cpu;
           if spill > 0 then Context.charge_spill ctx spill) }

  (* ---------------------------------------------------------------- *)
  (* Aggregation *)

  and aggregate p ~sorted keys aggs input =
    let child = exec input in
    let ch = child.chunk in
    let store = ch.Chunk.store in
    let n = Chunk.length ch in
    let s = Plan.schema cat input in
    let nkeys = List.length keys in
    let agg_arr = Array.of_list (List.map fst aggs) in
    let naggs = Array.length agg_arr in
    Context.charge_cpu ctx n;
    let fresh_states () = Array.init naggs (fun _ -> Expr.agg_init ()) in
    (* Column-at-a-time: aggregate arguments that compile to integer
       vectors fold unboxed through [Expr.agg_step_int]; the rest step
       through value getters ([Eval.expr_getter]).  Steppers take
       physical indices.  Every path yields groups as (logical index of
       the first row, (key values read at that row, states)). *)
    let phys = Chunk.phys ch in
    let steppers =
      Array.of_list
        (List.map
           (fun (a, _) ->
              match Expr.agg_arg a with
              | None -> fun st (_ : int) -> Expr.agg_step_int st 1
              | Some e -> (
                match int_expr s store e with
                | Some v ->
                  fun st q ->
                    if not (v.inull q) then Expr.agg_step_int st (v.iv q)
                | None ->
                  let get = expr_getter s store e in
                  fun st q -> Expr.agg_step st (get q)))
           aggs)
    in
    let step_all q states =
      for a = 0 to naggs - 1 do
        steppers.(a) states.(a) q
      done
    in
    (* built only where read: a computed key's getter forces the row
       view, which the single-int-key hash path never needs *)
    let key_getters () =
      Array.of_list (List.map (fun (e, _) -> expr_getter s store e) keys)
    in
    (* physically unique dummy: [fresh_states] always allocates, and
       a zero-agg states array is [[||]], never length 1 *)
    let dummy = Array.make 1 (Expr.agg_init ()) in
    (* single integer key with no NULL at any selected row: raw int
       hashing, no key boxing *)
    let int_key () =
      match keys with
      | [ (e, _) ] -> (
        match int_expr s store e with
        | Some v ->
          let rec clean i = i = n || ((not (v.inull (phys i))) && clean (i + 1)) in
          if clean 0 then Some v else None
        | None -> None)
      | _ -> None
    in
    let groups =
      if sorted then begin
        (* stream aggregation over key-sorted input: a sequential
           adjacency walk on the coordinator.  A group ends at the first
           row whose key differs from the group's key values under
           [Value.equal] — the interpreter's rule *)
        let kgets = key_getters () in
        let firsts = Storage.Vec.create () and order = Storage.Vec.create () in
        let cur = ref ([||], dummy) in
        let same (kv : Value.t array) q =
          let c = ref 0 in
          while !c < nkeys && Value.equal kv.(!c) (kgets.(!c) q) do
            incr c
          done;
          !c = nkeys
        in
        for li = 0 to n - 1 do
          let q = phys li in
          if li = 0 || not (same (fst !cur) q) then begin
            cur := (Array.init nkeys (fun c -> kgets.(c) q), fresh_states ());
            Storage.Vec.push firsts li;
            Storage.Vec.push order !cur
          end;
          step_all q (snd !cur)
        done;
        [| (Storage.Vec.to_array firsts, Storage.Vec.to_array order) |]
      end
      else match int_key () with
      | Some v ->
        (* Pooled, rows are exchanged by key hash, so each key's whole
           fold runs on one partition in global row order (bit-exact
           float sums). *)
        partitioned p n
          ~route:(fun li -> int_route (v.iv (phys li)))
          (fun ~size:_ iter ->
             let tbl = Keys.Int_map.create ~dummy 64 in
             let firsts = Storage.Vec.create () in
             let order = Storage.Vec.create () in
             iter (fun li ->
                 let q = phys li in
                 let k = v.iv q in
                 let states =
                   let st = Keys.Int_map.find tbl k in
                   if st != dummy then st
                   else begin
                     let st = fresh_states () in
                     Keys.Int_map.add tbl k st;
                     Storage.Vec.push firsts li;
                     Storage.Vec.push order k;
                     st
                   end
                 in
                 step_all q states);
             ( Storage.Vec.to_array firsts,
               Array.map
                 (fun k -> ([| Value.Int k |], Keys.Int_map.find tbl k))
                 (Storage.Vec.to_array order) ))
      | None ->
        (* generic keys: probe column-wise ([Keys.Cols_tbl]); the key
           is materialized once per group *)
        let kgets = key_getters () in
        partitioned p n
          ~route:(fun li -> Keys.Cols_tbl.hash_cols kgets (phys li) land max_int)
          (fun ~size:_ iter ->
             let tbl = Keys.Cols_tbl.create ~dummy 64 in
             let firsts = Storage.Vec.create () in
             let order = Storage.Vec.create () in
             iter (fun li ->
                 let q = phys li in
                 let states =
                   let st = Keys.Cols_tbl.find tbl kgets q in
                   if st != dummy then st
                   else begin
                     let st = fresh_states () in
                     let kv = Array.init nkeys (fun c -> kgets.(c) q) in
                     Keys.Cols_tbl.add tbl kv st;
                     Storage.Vec.push firsts li;
                     Storage.Vec.push order (kv, st);
                     st
                   end
                 in
                 step_all q states);
             (Storage.Vec.to_array firsts, Storage.Vec.to_array order))
    in
    let groups =
      match by_first groups with
      | [||] when keys = [] ->
        (* scalar aggregate over the empty input: one row *)
        [| ([||], fresh_states ()) |]
      | gs -> gs
    in
    (* typed output: the key values read at each group's first row and
       the aggregates, classified into columns *)
    let ng = Array.length groups in
    let key_col c = Storage.Col.classify ng (fun g -> (fst groups.(g)).(c)) in
    let agg_col a =
      Storage.Col.classify ng (fun g ->
          Expr.agg_final agg_arr.(a) (snd groups.(g)).(a))
    in
    let chunk =
      Chunk.dense
        (Chunk.store_of_cols ~len:ng
           (Array.append (Array.init nkeys key_col) (Array.init naggs agg_col)))
    in
    { chunk;
      replay = (fun () -> child.replay (); Context.charge_cpu ctx n) }

  and hash_distinct p i =
    let child = exec i in
    let ch = child.chunk in
    let store = ch.Chunk.store in
    let n = Chunk.length ch in
    let phys = Chunk.phys ch in
    Context.charge_cpu ctx n;
    (* rows hash and compare on the typed columns, row against row
       ([Storage.Col.compare_cells] is [Value.compare]); the survivors —
       each key's first occurrence — select from the input store.
       Pooled, rows exchange by row hash. *)
    let cols = Array.init store.Chunk.arity (Chunk.col store) in
    let cmps = Array.map (fun c -> Storage.Col.compare_cells c c) cols in
    let hash q =
      let acc = ref 7 in
      for j = 0 to Array.length cols - 1 do
        acc := (!acc * 31) + Storage.Col.hash_cell (Array.unsafe_get cols j) q
      done;
      !acc
    in
    let eq r q =
      let j = ref 0 in
      while !j < Array.length cmps && (Array.unsafe_get cmps !j) r q = 0 do
        incr j
      done;
      !j = Array.length cmps
    in
    let survivors =
      partitioned p n
        ~route:(fun li -> int_route (hash (phys li)))
        (fun ~size:_ iter ->
           let seen = Keys.Row_set.create 64 in
           let keep = Storage.Vec.create () in
           iter (fun li ->
               let q = phys li in
               if Keys.Row_set.add seen (hash q) eq q then
                 Storage.Vec.push keep li);
           let kept = Storage.Vec.to_array keep in
           (kept, kept))
    in
    { chunk = { Chunk.store; sel = Some (Array.map phys (by_first survivors)) };
      replay = (fun () -> child.replay (); Context.charge_cpu ctx n) }
  in
  exec plan

let execute ?(ctx = Context.create ()) ?obs ?sketch
    ?(chunk_rows = default_chunk_rows) par (cat : Storage.Catalog.t)
    (plan : Plan.t) : Executor.result =
  { Executor.schema = Plan.schema cat plan;
    rows =
      Chunk.to_rows (run_node ~ctx ~obs ~sketch ~chunk_rows ~par cat plan).chunk }

let run ?ctx ?obs ?sketch ?chunk_rows cat plan =
  execute ?ctx ?obs ?sketch ?chunk_rows None cat plan

let run_pooled ?ctx ?obs ?sketch ?chunk_rows ?schedule ?pool ~dop ~morsel cat
    plan =
  let width =
    match pool with Some pool -> min dop (Domain_pool.dop pool) | None -> 1
  in
  let par =
    match pool with
    | Some pool when width > 1 ->
      Some { pool; width; morsel = max 1 morsel; schedule }
    | Some _ | None -> None
  in
  execute ?ctx ?obs ?sketch ?chunk_rows par cat plan
