(* Naive tuple-iteration interpreter for QGM blocks (Section 4.2.2's
   baseline semantics): correlated subqueries are re-evaluated once per
   outer tuple, charging the shared execution context for every rescan.

   This is both (a) the ground truth that every rewrite must preserve, and
   (b) the "before" system in the unnesting and magic experiments. *)

open Relalg

type env = { schema : Schema.t; tuple : Tuple.t }

let empty_env = { schema = []; tuple = [||] }

(* Keep the first occurrence of each row (DISTINCT and UNION). *)
let dedup (rows : Tuple.t array) : Tuple.t array =
  let seen = Hashtbl.create 64 in
  let out = Storage.Vec.create () in
  Array.iter
    (fun t ->
       let k = Array.to_list t in
       if not (Hashtbl.mem seen k) then begin
         Hashtbl.replace seen k ();
         Storage.Vec.push out t
       end)
    rows;
  Storage.Vec.to_array out

let rec source_rows ctx cat (env : env) (s : Qgm.source) :
  Schema.t * Tuple.t array =
  match s with
  | Qgm.Base { table; alias; schema } ->
    let r =
      Exec.Executor.run ~ctx cat
        (Exec.Plan.Seq_scan { table; alias; filter = None })
    in
    ignore r.Exec.Executor.schema;
    (schema, r.Exec.Executor.rows)
  | Qgm.Derived { block; alias } ->
    let schema, rows = eval_block ctx cat env block in
    (Schema.requalify schema ~rel:alias, rows)

(* Keep the rows of [schema] that one predicate accepts (2-valued WHERE:
   UNKNOWN rejects).  The environment's schema is joined on and the
   predicate's expression compiled once, when there is a row to test.
   Subquery predicates recursively evaluate their block with the current
   tuple added to the environment, once per tuple — tuple iteration
   semantics. *)
and filter_rows ctx cat (env : env) (schema : Schema.t)
    (rows : Tuple.t array) (p : Qgm.predicate) : Tuple.t array =
  if Array.length rows = 0 then rows
  else begin
    let full = Schema.concat env.schema schema in
    let local t = { schema = full; tuple = Tuple.concat env.tuple t } in
    let keep =
      match p with
      | Qgm.P e ->
        let f = Expr.holds full e in
        fun t -> f (Tuple.concat env.tuple t)
      | Qgm.In_sub (e, blk) ->
        let f = Expr.compile full e in
        fun t ->
          let local = local t in
          let v = f local.tuple in
          if Value.is_null v then false
          else begin
            let _, rows = eval_block ctx cat local blk in
            Exec.Context.charge_cpu ctx (Array.length rows);
            Array.exists
              (fun r -> Value.sql_cmp v (Tuple.get r 0) = Some 0)
              rows
          end
      | Qgm.Exists_sub (positive, blk) ->
        fun t ->
          let _, rows = eval_block ctx cat (local t) blk in
          if positive then Array.length rows > 0 else Array.length rows = 0
      | Qgm.Cmp_sub (op, e, blk) ->
        let f = Expr.compile full e in
        fun t ->
          let local = local t in
          let v = f local.tuple in
          let _, rows = eval_block ctx cat local blk in
          if Array.length rows = 0 then false
            (* comparison with empty scalar: NULL *)
          else
            let w = Tuple.get rows.(0) 0 in
            (match Value.sql_cmp v w with
             | None -> false
             | Some c -> Expr.compare_op op c)
    in
    Array.of_list (List.filter keep (Array.to_list rows))
  end

(* Full evaluation of a block under a correlation environment. Returns the
   block's output schema (unqualified select aliases) and rows. *)
and eval_block ctx cat (env : env) (b : Qgm.block) : Schema.t * Tuple.t array
  =
  (* 1. inner-join the FROM sources, applying plain predicates as soon as
     their columns are bound *)
  let plain, subs =
    List.partition (function Qgm.P _ -> true | _ -> false) b.Qgm.where
  in
  let plain_exprs = Qgm.plain_preds plain in
  let applicable bound_schema used =
    List.filter
      (fun e ->
         (not (List.memq e used))
         && List.for_all
              (fun (c : Expr.col_ref) ->
                 Schema.mem bound_schema ~rel:c.Expr.rel ~name:c.Expr.col)
              (Expr.columns e))
      plain_exprs
  in
  let join_step (schema, rows, used) src =
    let s_schema, s_rows = source_rows ctx cat env src in
    let schema' = Schema.concat schema s_schema in
    let ps = applicable (Schema.concat env.schema schema') used in
    let keep =
      match ps with
      | [] -> fun _ -> true
      | _ ->
        let f =
          Expr.holds (Schema.concat env.schema schema') (Pred.of_conjuncts ps)
        in
        fun t -> f (Tuple.concat env.tuple t)
    in
    let out = Storage.Vec.create () in
    Array.iter
      (fun t ->
         Array.iter
           (fun st ->
              Exec.Context.charge_cpu ctx 1;
              let joined = Tuple.concat t st in
              if keep joined then Storage.Vec.push out joined)
           s_rows)
      rows;
    (schema', Storage.Vec.to_array out, used @ ps)
  in
  let schema, rows, used =
    List.fold_left join_step (([] : Schema.t), [| [||] |], []) b.Qgm.from
  in
  (* any plain predicates not yet applied (e.g. constants) *)
  let leftover =
    List.filter (fun e -> not (List.memq e used)) plain_exprs
  in
  let rows =
    match leftover with
    | [] -> rows
    | ps ->
      let f = Expr.holds (Schema.concat env.schema schema) (Pred.of_conjuncts ps) in
      Array.of_list
        (List.filter (fun t -> f (Tuple.concat env.tuple t)) (Array.to_list rows))
  in
  (* 2. subquery predicates, per tuple *)
  let rows = List.fold_left (filter_rows ctx cat env schema) rows subs in
  (* 3. semijoins / antijoins *)
  let schema, rows =
    List.fold_left
      (fun (schema, rows) (sj : Qgm.semijoin) ->
         let s_schema, s_rows = source_rows ctx cat env sj.Qgm.s_source in
         let full = Schema.concat (Schema.concat env.schema schema) s_schema in
         let f = Expr.holds full sj.Qgm.s_pred in
         let keep t =
           let m =
             Array.exists
               (fun st ->
                  Exec.Context.charge_cpu ctx 1;
                  f (Tuple.concat (Tuple.concat env.tuple t) st))
               s_rows
           in
           if sj.Qgm.s_anti then not m else m
         in
         (schema, Array.of_list (List.filter keep (Array.to_list rows))))
      (schema, rows) b.Qgm.semijoins
  in
  (* 4. left outer joins *)
  let schema, rows =
    List.fold_left
      (fun (schema, rows) (oj : Qgm.outerjoin) ->
         let s_schema, s_rows = source_rows ctx cat env oj.Qgm.o_source in
         let schema' = Schema.concat schema s_schema in
         let full = Schema.concat env.schema schema' in
         let f = Expr.holds full oj.Qgm.o_pred in
         let out = Storage.Vec.create () in
         Array.iter
           (fun t ->
              let any = ref false in
              Array.iter
                (fun st ->
                   Exec.Context.charge_cpu ctx 1;
                   let j = Tuple.concat t st in
                   if f (Tuple.concat env.tuple j) then begin
                     any := true;
                     Storage.Vec.push out j
                   end)
                s_rows;
              if not !any then
                Storage.Vec.push out
                  (Tuple.concat t (Tuple.nulls (Schema.arity s_schema))))
           rows;
         (schema', Storage.Vec.to_array out))
      (schema, rows) b.Qgm.outerjoins
  in
  (* 5. grouping / aggregation *)
  let post_schema, post_rows =
    if b.Qgm.group_by = [] && b.Qgm.aggs = [] then (schema, rows)
    else begin
      let full = Schema.concat env.schema schema in
      let keyfs =
        List.map (fun (e, _) -> Expr.compile full e) b.Qgm.group_by
      in
      let argfs =
        List.map
          (fun (g, _) ->
             match Expr.agg_arg g with
             | None -> fun _ -> Value.Int 1
             | Some e -> Expr.compile full e)
          b.Qgm.aggs
      in
      let module KT = Hashtbl in
      let tbl : (Value.t list, Expr.agg_state list) KT.t = KT.create 64 in
      let order = Storage.Vec.create () in
      Array.iter
        (fun t ->
           let w = Tuple.concat env.tuple t in
           let kv = List.map (fun f -> f w) keyfs in
           let states =
             match KT.find_opt tbl kv with
             | Some st -> st
             | None ->
               let st = List.map (fun _ -> Expr.agg_init ()) b.Qgm.aggs in
               KT.replace tbl kv st;
               Storage.Vec.push order kv;
               st
           in
           Exec.Context.charge_cpu ctx 1;
           List.iter2 (fun f st -> Expr.agg_step st (f w)) argfs states)
        rows;
      let out_schema = Algebra.output_columns full b.Qgm.group_by b.Qgm.aggs in
      let out = Storage.Vec.create () in
      Storage.Vec.iter
        (fun kv ->
           let states = KT.find tbl kv in
           Storage.Vec.push out
             (Array.of_list
                (kv
                 @ List.map2 (fun (g, _) st -> Expr.agg_final g st)
                     b.Qgm.aggs states)))
        order;
      if b.Qgm.group_by = [] && Storage.Vec.length out = 0 then
        Storage.Vec.push out
          (Array.of_list
             (List.map
                (fun (g, _) -> Expr.agg_final g (Expr.agg_init ()))
                b.Qgm.aggs));
      (out_schema, Storage.Vec.to_array out)
    end
  in
  (* 6. HAVING *)
  let post_rows =
    List.fold_left (filter_rows ctx cat env post_schema) post_rows
      b.Qgm.having
  in
  (* 7. ORDER BY (before projection; keys refer to the pre-select schema) *)
  let post_rows =
    match b.Qgm.order_by with
    | [] -> post_rows
    | keys ->
      let full = Schema.concat env.schema post_schema in
      let fs =
        List.map (fun (e, d) -> (Expr.compile full e, d)) keys
      in
      let cmp a b =
        let wa = Tuple.concat env.tuple a and wb = Tuple.concat env.tuple b in
        let rec go = function
          | [] -> 0
          | (f, d) :: rest -> (
            match Value.compare (f wa) (f wb) with
            | 0 -> go rest
            | c -> if d = Algebra.Desc then -c else c)
        in
        go fs
      in
      let copy = Array.copy post_rows in
      Array.stable_sort cmp copy;
      copy
  in
  (* 8. SELECT list *)
  let full = Schema.concat env.schema post_schema in
  let sel_fs = List.map (fun (e, _) -> Expr.compile full e) b.Qgm.select in
  let out_schema = Algebra.output_columns full b.Qgm.select [] in
  let projected =
    Array.map
      (fun t ->
         let w = Tuple.concat env.tuple t in
         Array.of_list (List.map (fun f -> f w) sel_fs))
      post_rows
  in
  (* 9. DISTINCT *)
  (out_schema, if b.Qgm.distinct then dedup projected else projected)

let run ?(ctx = Exec.Context.create ()) cat (b : Qgm.block) :
  Exec.Executor.result =
  let schema, rows = eval_block ctx cat empty_env b in
  { Exec.Executor.schema; rows }

(* Union semantics: UNION ALL concatenates; UNION additionally removes
   duplicate rows (SQL set semantics).  One CPU op per combined row. *)
let union ~ctx ~all (l : Exec.Executor.result) (r : Exec.Executor.result) :
  Exec.Executor.result =
  if Schema.arity l.Exec.Executor.schema <> Schema.arity r.Exec.Executor.schema
  then invalid_arg "UNION: arity mismatch";
  let rows = Array.append l.Exec.Executor.rows r.Exec.Executor.rows in
  Exec.Context.charge_cpu ctx (Array.length rows);
  { Exec.Executor.schema = l.Exec.Executor.schema;
    rows = (if all then rows else dedup rows) }

let rec run_query ?(ctx = Exec.Context.create ()) cat (q : Qgm.query) :
  Exec.Executor.result =
  match q with
  | Qgm.Q_block b -> run ~ctx cat b
  | Qgm.Q_union { all; left; right } ->
    let l = run_query ~ctx cat left in
    let r = run_query ~ctx cat right in
    union ~ctx ~all l r
