(* Plan execution.

   Execution materializes each operator's output as a tuple array while
   charging the context for page reads (through the buffer-pool simulator,
   so rescans of resident pages are free) and per-tuple CPU work.
   [Nested_loop] re-executes its inner child per outer tuple — the classical
   tuple-iteration semantics — which is what makes the buffer-utilization
   and rescan experiments meaningful.  [Materialize] caches its child within
   one [run]. *)

open Relalg

type result = { schema : Schema.t; rows : Tuple.t array }

let log2_ceil = Access.log2_ceil

let sort_spill_pages = Access.sort_spill_pages

let key_of_pairs schema (refs : Expr.col_ref list) =
  let idxs =
    List.map
      (fun (r : Expr.col_ref) ->
         Schema.index_of schema ~rel:r.Expr.rel ~name:r.Expr.col)
      refs
  in
  fun (t : Tuple.t) -> List.map (fun i -> Tuple.get t i) idxs

let keys_nullfree ks = List.for_all (fun v -> not (Value.is_null v)) ks

(* Keys from [key_of_pairs] have a fixed arity per operator, so equality
   compares positions without re-measuring lengths (Keys is shared with
   the batch engine). *)
module Key_tbl = Keys.List_tbl

let run ?(ctx = Context.create ()) ?obs (cat : Storage.Catalog.t)
    (plan : Plan.t) : result =
  (* Materialize memo, keyed by *physical* node identity: an association
     by [==] never hashes or compares plan subtrees, and plans hold at most
     a handful of Materialize nodes. *)
  let memo : (Plan.t * Tuple.t array) list ref = ref [] in
  (* Instrumentation is a single match per operator execution when off. *)
  let rec exec (p : Plan.t) : Tuple.t array =
    match obs with
    | None -> exec_op p
    | Some r ->
      Instrument.measure r ctx p ~rows:Array.length (fun () -> exec_op p)

  and exec_op (p : Plan.t) : Tuple.t array =
    match p with
    | Plan.Seq_scan { table; alias = _; filter } ->
      let t = Storage.Catalog.table cat table in
      let pages = Storage.Table.page_count t in
      for pg = 0 to pages - 1 do
        Context.read_page ctx ~random:false (table, pg)
      done;
      let n = Storage.Table.row_count t in
      Context.charge_cpu ctx n;
      let out = Storage.Vec.create () in
      let keep =
        match filter with
        | None -> fun _ -> true
        | Some f ->
          Expr.holds (Schema.requalify t.Storage.Table.schema ~rel:(alias_of p)) f
      in
      for rid = 0 to n - 1 do
        let tu = Storage.Table.get t rid in
        if keep tu then Storage.Vec.push out tu
      done;
      Storage.Vec.to_array out
    | Plan.Index_scan { table; alias; column; lo; hi; filter } ->
      let t = Storage.Catalog.table cat table in
      let idx =
        match Storage.Catalog.index_on cat ~table ~column with
        | Some i -> i
        | None ->
          invalid_arg
            (Printf.sprintf "Index_scan: no index on %s(%s)" table column)
      in
      fetch_via_index idx t ~alias ~lo ~hi ~filter
    | Plan.Filter (f, i) ->
      let rows = exec i in
      let s = Plan.schema cat i in
      let keep = Expr.holds s f in
      Context.charge_cpu ctx (Array.length rows);
      let out = Storage.Vec.create () in
      Array.iter (fun t -> if keep t then Storage.Vec.push out t) rows;
      Storage.Vec.to_array out
    | Plan.Project (items, i) ->
      let rows = exec i in
      let s = Plan.schema cat i in
      let fs = List.map (fun (e, _) -> Expr.compile s e) items in
      Context.charge_cpu ctx (Array.length rows);
      Array.map (fun t -> Array.of_list (List.map (fun f -> f t) fs)) rows
    | Plan.Sort (keys, i) ->
      let rows = exec i in
      let s = Plan.schema cat i in
      let fs =
        List.map
          (fun (k : Plan.sort_key) -> (Expr.compile s k.Plan.key, k.Plan.descending))
          keys
      in
      let cmp a b =
        let rec go = function
          | [] -> 0
          | (f, desc) :: rest -> (
            match Value.compare (f a) (f b) with
            | 0 -> go rest
            | c -> if desc then -c else c)
        in
        go fs
      in
      let n = Array.length rows in
      Context.charge_cpu ctx (n * log2_ceil n);
      let pages = Storage.Page.pages_for ~rows:n s in
      Context.charge_spill ctx
        (sort_spill_pages ~work_mem:ctx.Context.work_mem_pages ~pages);
      let copy = Array.copy rows in
      Array.stable_sort cmp copy;
      copy
    | Plan.Materialize i -> (
      match List.find_opt (fun (q, _) -> q == p) !memo with
      | Some (_, rows) -> rows
      | None ->
        let rows = exec i in
        memo := (p, rows) :: !memo;
        rows)
    | Plan.Nested_loop { kind; pred; outer; inner } ->
      let outer_rows = exec outer in
      let so = Plan.schema cat outer and si = Plan.schema cat inner in
      let holds = Expr.holds (Schema.concat so si) pred in
      let inner_arity = Schema.arity si in
      let out = Storage.Vec.create () in
      Array.iter
        (fun ot ->
           let inner_rows = exec inner in
           Context.charge_cpu ctx (Array.length inner_rows);
           emit_join_row out kind ~inner_arity ot inner_rows
             ~matches:(fun it -> holds (Tuple.concat ot it))
             ~combine:Tuple.concat)
        outer_rows;
      Storage.Vec.to_array out
    | Plan.Index_nl
        { kind; outer; table; alias; index; columns = _; outer_keys; residual }
      ->
      let t = Storage.Catalog.table cat table in
      let idx =
        match Storage.Catalog.index_named cat ~table ~name:index with
        | Some i -> i
        | None ->
          invalid_arg
            (Printf.sprintf "Index_nl: no index %s on %s" index table)
      in
      let outer_rows = exec outer in
      let so = Plan.schema cat outer in
      let si = Schema.requalify t.Storage.Table.schema ~rel:alias in
      let keyfs = List.map (Expr.compile so) outer_keys in
      let holds = Expr.holds (Schema.concat so si) residual in
      let inner_arity = Schema.arity si in
      let out = Storage.Vec.create () in
      Array.iter
        (fun ot ->
           let ks = List.map (fun f -> f ot) keyfs in
           let matches = fetch_probe idx t ks in
           Context.charge_cpu ctx (1 + Array.length matches);
           emit_join_row out kind ~inner_arity ot matches
             ~matches:(fun it -> holds (Tuple.concat ot it))
             ~combine:Tuple.concat)
        outer_rows;
      Storage.Vec.to_array out
    | Plan.Merge_join { kind; pairs; residual; left; right } ->
      merge_join kind pairs residual left right
    | Plan.Hash_join { kind; pairs; residual; left; right } ->
      hash_join kind pairs residual left right
    | Plan.Hash_agg { keys; aggs; input } -> aggregate ~sorted:false keys aggs input
    | Plan.Stream_agg { keys; aggs; input } -> aggregate ~sorted:true keys aggs input
    | Plan.Hash_distinct i ->
      let rows = exec i in
      let seen = Key_tbl.create 64 in
      let out = Storage.Vec.create () in
      Context.charge_cpu ctx (Array.length rows);
      Array.iter
        (fun t ->
           let k = Array.to_list t in
           if not (Key_tbl.mem seen k) then begin
             Key_tbl.replace seen k ();
             Storage.Vec.push out t
           end)
        rows;
      Storage.Vec.to_array out

  and alias_of = function
    | Plan.Seq_scan { alias; _ } | Plan.Index_scan { alias; _ } -> alias
    | _ -> assert false

  (* Index fetch shared by Index_scan and Index_nl probes; the charging
     pattern lives in [Access] (shared with the batch engine). *)
  and fetch_entries (idx : Storage.Btree.t) (t : Storage.Table.t)
      (entries : (Value.t list * int) array) lo_pos : Tuple.t array =
    Access.charge_index_fetch ctx idx t ~entries ~lo_pos;
    Access.fetch_rows t entries

  and fetch_via_index idx t ~alias ~lo ~hi ~filter =
    let entries = Storage.Btree.range idx ~lo ~hi in
    let lo_pos =
      match lo with
      | Storage.Btree.Unbounded -> Storage.Btree.upper_bound idx [ Value.Null ]
      | Storage.Btree.Incl k -> Storage.Btree.lower_bound idx [ k ]
      | Storage.Btree.Excl k -> Storage.Btree.upper_bound idx [ k ]
    in
    let rows = fetch_entries idx t entries lo_pos in
    match filter with
    | None -> rows
    | Some f ->
      let s = Schema.requalify t.Storage.Table.schema ~rel:alias in
      let keep = Expr.holds s f in
      let out = Storage.Vec.create () in
      Array.iter (fun tu -> if keep tu then Storage.Vec.push out tu) rows;
      Storage.Vec.to_array out

  and fetch_probe idx t ks =
    let entries = Storage.Btree.probe idx ks in
    fetch_entries idx t entries (Storage.Btree.lower_bound idx ks)

  (* Shared join-row emission across NL/index-NL (match predicate given as a
     function of the inner tuple). *)
  and emit_join_row out kind ~inner_arity ot inner_rows ~matches ~combine =
    match kind with
    | Algebra.Inner ->
      Array.iter
        (fun it -> if matches it then Storage.Vec.push out (combine ot it))
        inner_rows
    | Algebra.Left_outer ->
      let any = ref false in
      Array.iter
        (fun it ->
           if matches it then begin
             any := true;
             Storage.Vec.push out (combine ot it)
           end)
        inner_rows;
      if not !any then Storage.Vec.push out (combine ot (Tuple.nulls inner_arity))
    | Algebra.Semi ->
      if Array.exists matches inner_rows then Storage.Vec.push out ot
    | Algebra.Anti ->
      if not (Array.exists matches inner_rows) then Storage.Vec.push out ot

  and merge_join kind pairs residual left right =
    (* pinned left-then-right evaluation: the buffer pool is stateful, and
       the batch engine must replay the same page-access order *)
    let lrows = exec left in
    let rrows = exec right in
    let sl = Plan.schema cat left and sr = Plan.schema cat right in
    let lkey = key_of_pairs sl (List.map fst pairs) in
    let rkey = key_of_pairs sr (List.map snd pairs) in
    let holds = Expr.holds (Schema.concat sl sr) residual in
    let inner_arity = Schema.arity sr in
    let out = Storage.Vec.create () in
    Context.charge_cpu ctx (Array.length lrows + Array.length rrows);
    let nl = Array.length lrows and nr = Array.length rrows in
    let cmp_keys a b =
      let rec go = function
        | [], [] -> 0
        | x :: xs, y :: ys -> (
          match Value.compare x y with 0 -> go (xs, ys) | c -> c)
        | _ -> 0
      in
      go (a, b)
    in
    let j = ref 0 in
    let i = ref 0 in
    while !i < nl do
      let lt = lrows.(!i) in
      let lk = lkey lt in
      if not (keys_nullfree lk) then begin
        (* null keys never match *)
        (match kind with
         | Algebra.Left_outer ->
           Storage.Vec.push out (Tuple.concat lt (Tuple.nulls inner_arity))
         | Algebra.Anti -> Storage.Vec.push out lt
         | Algebra.Inner | Algebra.Semi -> ());
        incr i
      end
      else begin
        (* advance right side to lk *)
        while !j < nr
              && (let rk = rkey rrows.(!j) in
                  (not (keys_nullfree rk)) || cmp_keys rk lk < 0)
        do
          incr j
        done;
        (* collect the block of right rows with key = lk *)
        let block_start = !j in
        let block_end = ref !j in
        while !block_end < nr && cmp_keys (rkey rrows.(!block_end)) lk = 0 do
          incr block_end
        done;
        (* emit for every left row sharing this key *)
        while
          !i < nl
          && (let lk' = lkey lrows.(!i) in
              keys_nullfree lk' && cmp_keys lk' lk = 0)
        do
          let lt = lrows.(!i) in
          let block =
            Array.sub rrows block_start (!block_end - block_start)
          in
          Context.charge_cpu ctx (Array.length block);
          emit_join_row out kind ~inner_arity lt block
            ~matches:(fun rt -> holds (Tuple.concat lt rt))
            ~combine:Tuple.concat;
          incr i
        done
      end
    done;
    Storage.Vec.to_array out

  and hash_join kind pairs residual left right =
    let rrows = exec right in
    let sl = Plan.schema cat left and sr = Plan.schema cat right in
    let rkey = key_of_pairs sr (List.map snd pairs) in
    let tbl = Key_tbl.create (max 16 (Array.length rrows)) in
    Array.iter
      (fun rt ->
         let k = rkey rt in
         if keys_nullfree k then
           Key_tbl.replace tbl k
             (rt :: (Option.value (Key_tbl.find_opt tbl k) ~default:[])))
      rrows;
    Context.charge_cpu ctx (Array.length rrows);
    (* spill if the build side exceeds work_mem (Grace-style partitioning) *)
    let rpages = Storage.Page.pages_for ~rows:(Array.length rrows) sr in
    let lrows = exec left in
    let lpages = Storage.Page.pages_for ~rows:(Array.length lrows) sl in
    if rpages > ctx.Context.work_mem_pages then
      Context.charge_spill ctx (2 * (rpages + lpages));
    let lkey = key_of_pairs sl (List.map fst pairs) in
    let holds = Expr.holds (Schema.concat sl sr) residual in
    let inner_arity = Schema.arity sr in
    let out = Storage.Vec.create () in
    Context.charge_cpu ctx (Array.length lrows);
    Array.iter
      (fun lt ->
         let k = lkey lt in
         let bucket =
           if keys_nullfree k then
             Option.value (Key_tbl.find_opt tbl k) ~default:[]
           else []
         in
         Context.charge_cpu ctx (List.length bucket);
         emit_join_row out kind ~inner_arity lt (Array.of_list bucket)
           ~matches:(fun rt -> holds (Tuple.concat lt rt))
           ~combine:Tuple.concat)
      lrows;
    Storage.Vec.to_array out

  and aggregate ~sorted keys aggs input =
    let rows = exec input in
    let s = Plan.schema cat input in
    let keyfs = List.map (fun (e, _) -> Expr.compile s e) keys in
    let argfs =
      List.map
        (fun (a, _) ->
           match Expr.agg_arg a with
           | None -> fun _ -> Value.Int 1 (* count-star: any non-null *)
           | Some e -> Expr.compile s e)
        aggs
    in
    Context.charge_cpu ctx (Array.length rows);
    let finalize key_values states =
      Array.of_list
        (key_values
         @ List.map2 (fun (a, _) st -> Expr.agg_final a st) aggs states)
    in
    let out = Storage.Vec.create () in
    if sorted then begin
      (* stream aggregation over key-sorted input *)
      let cur_key = ref None in
      let cur_states = ref [] in
      let flush () =
        match !cur_key with
        | None -> ()
        | Some kv -> Storage.Vec.push out (finalize kv !cur_states)
      in
      Array.iter
        (fun t ->
           let kv = List.map (fun f -> f t) keyfs in
           (match !cur_key with
            | Some kv' when List.for_all2 Value.equal kv kv' -> ()
            | Some _ | None ->
              flush ();
              cur_key := Some kv;
              cur_states := List.map (fun _ -> Expr.agg_init ()) aggs);
           List.iter2 (fun f st -> Expr.agg_step st (f t)) argfs !cur_states)
        rows;
      flush ();
      if keys = [] && Storage.Vec.length out = 0 then
        (* scalar aggregate over the empty input: one row *)
        Storage.Vec.push out
          (finalize [] (List.map (fun _ -> Expr.agg_init ()) aggs))
    end
    else begin
      let tbl = Key_tbl.create 64 in
      let order = Storage.Vec.create () in
      Array.iter
        (fun t ->
           let kv = List.map (fun f -> f t) keyfs in
           let states =
             match Key_tbl.find_opt tbl kv with
             | Some st -> st
             | None ->
               let st = List.map (fun _ -> Expr.agg_init ()) aggs in
               Key_tbl.replace tbl kv st;
               Storage.Vec.push order kv;
               st
           in
           List.iter2 (fun f st -> Expr.agg_step st (f t)) argfs states)
        rows;
      Storage.Vec.iter
        (fun kv -> Storage.Vec.push out (finalize kv (Key_tbl.find tbl kv)))
        order;
      if keys = [] && Storage.Vec.length out = 0 then
        Storage.Vec.push out
          (finalize [] (List.map (fun _ -> Expr.agg_init ()) aggs))
    end;
    Storage.Vec.to_array out
  in
  { schema = Plan.schema cat plan; rows = exec plan }

(* Compare two results as multisets of tuples — the equivalence notion for
   all rewrite-correctness tests. *)
let same_multiset (a : result) (b : result) =
  let sort r =
    let l = Array.to_list r.rows in
    List.sort Tuple.compare l
  in
  List.length (sort a) = List.length (sort b)
  && List.for_all2 Tuple.equal (sort a) (sort b)

(* Same, but modulo column order: different join orders permute the output
   schema, so columns are first aligned by their (relation, name) key.
   Requires unique column keys in both schemas. *)
let same_multiset_modulo_columns (a : result) (b : result) =
  let key (c : Schema.column) = (c.Schema.rel, c.Schema.name) in
  let canon (r : result) =
    let order =
      List.mapi (fun i c -> (key c, i)) r.schema
      |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
    in
    ( List.map fst order,
      Array.map
        (fun t -> Array.of_list (List.map (fun (_, i) -> Tuple.get t i) order))
        r.rows )
  in
  let ka, ra = canon a and kb, rb = canon b in
  ka = kb
  && same_multiset
       { schema = []; rows = ra }
       { schema = []; rows = rb }
