(* Seeded random workload generation for the differential fuzzer.

   The generator's job is breadth with reproducibility: random schemas
   (column presence, value domains, Zipfian skew, NULL fractions, empty
   tables, index sets) and random queries over them that every layer of
   the system accepts — lexer through binder through both engines — while
   staying inside a work budget (join products are capped so the naive
   tuple-iteration oracle stays fast). *)

open Relalg
module A = Sql.Ast
module G = Workload.Gen

(* ------------------------------------------------------------------ *)
(* Databases *)

(* Keep the worst-case join product bounded: the oracle runs every query
   through a config grid including the naive interpreter. *)
let max_join_product = 250_000

let gen_table st ~name : Dbspec.table =
  let rows_n =
    match G.uniform_int st ~lo:0 ~hi:9 with
    | 0 -> 0 (* empty tables are a first-class edge case *)
    | 1 -> 1
    | 2 | 3 -> G.uniform_int st ~lo:2 ~hi:8
    | 4 | 5 | 6 -> G.uniform_int st ~lo:15 ~hi:60
    | _ -> G.uniform_int st ~lo:61 ~hi:140
  in
  (* join-key domain: big tables get wider domains so equi-join fanout
     stays bounded even under skew *)
  let dom =
    if rows_n > 60 then G.uniform_int st ~lo:15 ~hi:40
    else List.nth [ 3; 5; 12 ] (G.uniform_int st ~lo:0 ~hi:2)
  in
  let skew = if G.chance st 0.3 then 1.2 else 0. in
  let zip = G.zipf_make ~n:(dom + 1) ~skew in
  let nf_k = List.nth [ 0.; 0.; 0.12; 0.3 ] (G.uniform_int st ~lo:0 ~hi:3) in
  let has_g = G.chance st 0.8 in
  let has_v = G.chance st 0.8 in
  let has_w = G.chance st 0.35 in
  let has_s = G.chance st 0.6 in
  let cols =
    [ ("id", Value.Tint); ("k", Value.Tint) ]
    @ (if has_g then [ ("g", Value.Tint) ] else [])
    @ (if has_v then [ ("v", Value.Tint) ] else [])
    @ (if has_w then [ ("w", Value.Tint) ] else [])
    @ if has_s then [ ("s", Value.Tstring) ] else []
  in
  let row i =
    let k =
      if G.chance st nf_k then Value.Null else Value.Int (G.zipf_draw st zip - 1)
    in
    Array.of_list
      ([ Value.Int i; k ]
       @ (if has_g then
            [ (if G.chance st 0.15 then Value.Null
               else Value.Int (G.uniform_int st ~lo:0 ~hi:3)) ]
          else [])
       @ (if has_v then
            [ (if G.chance st 0.1 then Value.Null
               else Value.Int (G.uniform_int st ~lo:0 ~hi:100)) ]
          else [])
       @ (if has_w then
            [ (if G.chance st 0.1 then Value.Null
               else Value.Int (G.uniform_int st ~lo:(-50) ~hi:50)) ]
          else [])
       @
       if has_s then
         [ (if G.chance st 0.2 then Value.Null
            else Value.Str (G.pick st G.name_pool)) ]
       else [])
  in
  let rows = Array.init rows_n row in
  let indexes =
    (* clustered only on id: its values follow insertion order *)
    (if G.chance st 0.5 then [ { Dbspec.icols = [ "id" ]; iclustered = true } ]
     else [])
    @ (if G.chance st 0.5 then
         [ { Dbspec.icols = [ "k" ]; iclustered = false } ]
       else [])
    @
    if has_g && G.chance st 0.2 then
      [ { Dbspec.icols = [ "k"; "g" ]; iclustered = false } ]
    else []
  in
  { Dbspec.tname = name; cols; rows; indexes }

let db ~seed : Dbspec.t =
  let st = G.rng (G.derive seed 0) in
  let ntab = G.uniform_int st ~lo:2 ~hi:4 in
  { Dbspec.tables =
      List.init ntab (fun i -> gen_table st ~name:(Printf.sprintf "t%d" (i + 1)))
  }

(* ------------------------------------------------------------------ *)
(* Queries *)

(* A relation in scope: its alias, the visible columns, and (for base
   tables) the spec so constants can be sampled from actual data. *)
type rel = {
  alias : string;
  tbl : Dbspec.table option;
  rcols : (string * Value.ty) list;
}

let int_cols r = List.filter (fun (_, ty) -> ty = Value.Tint) r.rcols
let str_cols r = List.filter (fun (_, ty) -> ty = Value.Tstring) r.rcols

let col_ref r (n, _ty) = A.Column (Some r.alias, n)

let cmp_op st =
  List.nth
    [ Expr.Eq; Expr.Eq; Expr.Eq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge; Expr.Neq ]
    (G.uniform_int st ~lo:0 ~hi:7)

(* Constants sampled from the column's actual data (so predicates hit),
   sometimes perturbed, sometimes NULL literals (three-valued logic). *)
let const_for st (r : rel) (cname, cty) : A.expr =
  if G.chance st 0.06 then A.Lit_null
  else
    match r.tbl with
    | Some tb when Array.length tb.Dbspec.rows > 0 && G.chance st 0.85 -> (
      let idx =
        let rec go i = function
          | [] -> 0
          | (n, _) :: _ when n = cname -> i
          | _ :: rest -> go (i + 1) rest
        in
        go 0 tb.Dbspec.cols
      in
      let row =
        tb.Dbspec.rows.(G.uniform_int st ~lo:0
                          ~hi:(Array.length tb.Dbspec.rows - 1))
      in
      match row.(idx) with
      | Value.Int i ->
        A.Lit_int
          (if G.chance st 0.25 then i + G.uniform_int st ~lo:(-2) ~hi:2 else i)
      | Value.Str s -> A.Lit_string s
      | Value.Float f -> A.Lit_float f
      | Value.Bool b -> A.Lit_bool b
      | Value.Null ->
        if cty = Value.Tstring then A.Lit_string (G.pick st G.name_pool)
        else A.Lit_int (G.uniform_int st ~lo:(-2) ~hi:12))
    | _ ->
      if cty = Value.Tstring then A.Lit_string (G.pick st G.name_pool)
      else A.Lit_int (G.uniform_int st ~lo:(-2) ~hi:12)

(* Single-relation filter predicate. *)
let gen_filter_base st (r : rel) : A.expr =
  let ics = int_cols r in
  let scs = str_cols r in
  let icol () = G.pick st ics in
  let int_cmp () =
    let c = icol () in
    A.Cmp (cmp_op st, col_ref r c, const_for st r c)
  in
  let str_cmp () =
    let c = G.pick st scs in
    A.Cmp
      ((if G.chance st 0.8 then Expr.Eq else Expr.Neq),
       col_ref r c, const_for st r c)
  in
  let base () = if scs <> [] && G.chance st 0.25 then str_cmp () else int_cmp () in
  match G.uniform_int st ~lo:0 ~hi:9 with
  | 0 | 1 | 2 | 3 | 4 -> base ()
  | 5 ->
    let c = if scs <> [] && G.chance st 0.4 then G.pick st scs else icol () in
    A.Is_null (col_ref r c, G.chance st 0.5)
  | 6 -> A.Not (base ())
  | 7 -> A.Or (base (), base ())
  | 8 when List.length ics >= 2 ->
    let a = icol () and b = icol () in
    A.Cmp (cmp_op st, col_ref r a, col_ref r b)
  | _ ->
    let c = icol () in
    let arith =
      A.Binop
        ((if G.chance st 0.5 then Expr.Add else Expr.Mod),
         col_ref r c,
         A.Lit_int (G.uniform_int st ~lo:1 ~hi:7))
    in
    A.Cmp (cmp_op st, arith, const_for st r c)

(* Occasionally inject a provably contradictory conjunction (an empty
   range or conflicting equalities) so the analyzer's empty-subtree
   folding and the provably-empty oracle are exercised on every run. *)
let gen_filter st (r : rel) : A.expr =
  match int_cols r with
  | _ :: _ as ics when G.chance st 0.04 ->
    let c = G.pick st ics in
    let v = G.uniform_int st ~lo:(-2) ~hi:12 in
    let col = col_ref r c in
    if G.chance st 0.5 then
      A.And
        (A.Cmp (Expr.Gt, col, A.Lit_int v),
         A.Cmp (Expr.Lt, col, A.Lit_int (v - G.uniform_int st ~lo:0 ~hi:3)))
    else
      A.And
        (A.Cmp (Expr.Eq, col, A.Lit_int v),
         A.Cmp (Expr.Eq, col, A.Lit_int (v + 1 + G.uniform_int st ~lo:0 ~hi:3)))
  | _ -> gen_filter_base st r

(* Preferred join column: "k" when present on both, else any int column. *)
let jcol st r =
  let ics = int_cols r in
  match List.filter (fun (n, _) -> n = "k") ics with
  | k :: _ when G.chance st 0.75 -> k
  | _ -> G.pick st ics

let join_pred st a b : A.expr =
  A.Cmp (Expr.Eq, col_ref a (jcol st a), col_ref b (jcol st b))

let and_all = function
  | [] -> None
  | cs ->
    (* right-nested, matching the parser's associativity *)
    let rec nest = function
      | [ c ] -> c
      | c :: rest -> A.And (c, nest rest)
      | [] -> assert false
    in
    Some (nest cs)

let fresh_alias fresh prefix =
  incr fresh;
  Printf.sprintf "%s%d" prefix !fresh

(* ------------------------------------------------------------------ *)
(* Subqueries *)

(* Inner select over one fresh relation; [corr] optionally correlates it
   with an outer relation.  An IN or EXISTS subquery's select list
   sometimes names the outer relation's column instead, a choice drawn
   from its own stream [st_sel] so that the other draws stay as they were. *)
let gen_sub_conjunct st ~st_sel (spec : Dbspec.t) ~fresh ~(rels : rel list) :
  A.expr =
  let outer = G.pick st rels in
  let names_outer () = G.chance st_sel 0.2 in
  let tb = G.pick st spec.Dbspec.tables in
  let s =
    { alias = fresh_alias fresh "r"; tbl = Some tb; rcols = tb.Dbspec.cols }
  in
  let corr () = A.Cmp (Expr.Eq, col_ref s (jcol st s), col_ref outer (jcol st outer)) in
  let filters want_corr =
    (if want_corr then [ corr () ] else [])
    @ if G.chance st 0.5 then [ gen_filter st s ] else []
  in
  let from = [ A.Plain (A.Table (tb.Dbspec.tname, Some s.alias)) ] in
  let simple_sub items where_cs =
    { A.distinct = false; items; from; where = and_all where_cs;
      group_by = []; having = None; order_by = [] }
  in
  match G.uniform_int st ~lo:0 ~hi:3 with
  | 0 ->
    (* IN subquery, correlated with probability 0.3 *)
    let c = jcol st s in
    let item =
      if names_outer () then col_ref outer (jcol st_sel outer) else col_ref s c
    in
    let sub = simple_sub [ A.Item (item, None) ] (filters (G.chance st 0.3)) in
    A.In_query (col_ref outer (jcol st outer), sub)
  | (1 | 2) as k ->
    (* EXISTS or NOT EXISTS, usually correlated *)
    let items =
      if names_outer () then
        [ A.Item (col_ref outer (G.pick st_sel outer.rcols), None) ]
      else [ A.Star ]
    in
    A.Exists (k = 1, simple_sub items (filters (G.chance st 0.8)))
  | _ ->
    (* scalar aggregate subquery — COUNT star included: the count bug *)
    let agg =
      match G.uniform_int st ~lo:0 ~hi:4 with
      | 0 -> A.Agg (A.Fn_count, None)
      | 1 -> A.Agg (A.Fn_min, Some (col_ref s (G.pick st (int_cols s))))
      | 2 -> A.Agg (A.Fn_max, Some (col_ref s (G.pick st (int_cols s))))
      | 3 -> A.Agg (A.Fn_sum, Some (col_ref s (G.pick st (int_cols s))))
      | _ -> A.Agg (A.Fn_avg, Some (col_ref s (G.pick st (int_cols s))))
    in
    let sub =
      simple_sub [ A.Item (agg, Some "sv") ] (filters (G.chance st 0.5))
    in
    let oc = G.pick st (int_cols outer) in
    A.Cmp_query (cmp_op st, col_ref outer oc, sub)

(* ------------------------------------------------------------------ *)
(* Derived tables *)

let gen_derived st (spec : Dbspec.t) ~fresh : rel * A.from_item =
  let tb = G.pick st spec.Dbspec.tables in
  let s =
    { alias = fresh_alias fresh "r"; tbl = Some tb; rcols = tb.Dbspec.cols }
  in
  let d_alias = fresh_alias fresh "d" in
  let from = [ A.Plain (A.Table (tb.Dbspec.tname, Some s.alias)) ] in
  if G.chance st 0.3 && List.mem_assoc "k" tb.Dbspec.cols then begin
    (* grouped view: SELECT s.k AS k, COUNT( * ) AS cnt ... GROUP BY s.k *)
    let sel =
      { A.distinct = false;
        items =
          [ A.Item (col_ref s ("k", Value.Tint), Some "k");
            A.Item (A.Agg (A.Fn_count, None), Some "cnt") ];
        from;
        where = (if G.chance st 0.5 then Some (gen_filter st s) else None);
        group_by = [ col_ref s ("k", Value.Tint) ]; having = None;
        order_by = [] }
    in
    ( { alias = d_alias; tbl = None;
        rcols = [ ("k", Value.Tint); ("cnt", Value.Tint) ] },
      A.Subquery (sel, d_alias) )
  end
  else begin
    (* SPJ view (mergeable), sometimes DISTINCT (not mergeable) *)
    let keep =
      List.filter
        (fun (n, _) -> n = "id" || n = "k" || n = "g" || n = "v")
        tb.Dbspec.cols
    in
    let sel =
      { A.distinct = G.chance st 0.3;
        items = List.map (fun (n, ty) -> A.Item (col_ref s (n, ty), Some n)) keep;
        from;
        where = (if G.chance st 0.6 then Some (gen_filter st s) else None);
        group_by = []; having = None; order_by = [] }
    in
    ({ alias = d_alias; tbl = None; rcols = keep }, A.Subquery (sel, d_alias))
  end

(* ------------------------------------------------------------------ *)
(* SELECT *)

let product tbls =
  List.fold_left (fun p (tb : Dbspec.table) -> p * max 1 (Array.length tb.Dbspec.rows)) 1 tbls

let gen_select st ~st_sel (spec : Dbspec.t) ~fresh ~depth : A.select =
  let nrel =
    List.nth [ 1; 1; 1; 2; 2; 2; 2; 2; 3; 3; 3 ] (G.uniform_int st ~lo:0 ~hi:10)
  in
  (* choose base tables under the join-product cap *)
  let tbls =
    let rec add acc k =
      if k = 0 then acc
      else
        let cand = G.pick st spec.Dbspec.tables in
        if product (cand :: acc) <= max_join_product then add (cand :: acc) (k - 1)
        else
          let fits =
            List.filter
              (fun t -> product (t :: acc) <= max_join_product)
              spec.Dbspec.tables
          in
          if fits = [] then acc else add (G.pick st fits :: acc) (k - 1)
    in
    add [] nrel
  in
  let plain_rels =
    List.map
      (fun tb ->
         { alias = fresh_alias fresh "r"; tbl = Some tb;
           rcols = tb.Dbspec.cols })
      tbls
  in
  (* optionally replace one base relation with a derived table *)
  let plain_rels, derived_items =
    if depth > 0 && G.chance st 0.15 then
      let d, item = gen_derived st spec ~fresh in
      (d :: List.tl plain_rels, [ (d.alias, item) ])
    else (plain_rels, [])
  in
  let from_item r =
    match List.assoc_opt r.alias derived_items with
    | Some item -> item
    | None ->
      let tb = Option.get r.tbl in
      A.Table (tb.Dbspec.tname, Some r.alias)
  in
  (* join edges: mostly connected; disconnection allowed when the product
     is small (exercises the cartesian rescue path) *)
  let small = product tbls <= 30_000 in
  let edges = ref [] in
  List.iteri
    (fun i r ->
       if i > 0 then begin
         let prev = List.filteri (fun j _ -> j < i) plain_rels in
         if (not small) || G.chance st 0.88 then
           edges := !edges @ [ join_pred st (G.pick st prev) r ];
         if G.chance st 0.12 && i >= 2 then
           edges := !edges @ [ join_pred st (G.pick st prev) r ]
       end)
    plain_rels;
  (* optional LEFT OUTER JOIN *)
  let oj_rels, from =
    let plain_from =
      List.map (fun r -> A.Plain (from_item r)) plain_rels
    in
    if G.chance st 0.2 && product tbls <= 50_000 then begin
      let tb = G.pick st spec.Dbspec.tables in
      let oj =
        { alias = fresh_alias fresh "r"; tbl = Some tb; rcols = tb.Dbspec.cols }
      in
      let anchor = G.pick st plain_rels in
      let on =
        and_all
          ([ join_pred st anchor oj ]
           @ if G.chance st 0.3 then [ gen_filter st oj ] else [])
      in
      let last, init =
        match List.rev plain_from with
        | last :: init_rev -> (last, List.rev init_rev)
        | [] -> assert false
      in
      let joined =
        A.Left_outer_join
          ((match last with A.Plain it -> A.Plain it | j -> j),
           (match from_item oj with it -> it),
           Option.get on)
      in
      ([ oj ], init @ [ joined ])
    end
    else ([], plain_from)
  in
  let all_rels = plain_rels @ oj_rels in
  (* filters — never on the outer-joined relation: WHERE runs before the
     outerjoin attaches and the binder rejects such references *)
  let nfilters = G.uniform_int st ~lo:0 ~hi:3 in
  let filters =
    List.init nfilters (fun _ -> gen_filter st (G.pick st plain_rels))
  in
  let subs =
    if depth > 0 && G.chance st 0.35 then
      [ gen_sub_conjunct st ~st_sel spec ~fresh ~rels:plain_rels ]
    else []
  in
  let where = and_all (!edges @ filters @ subs) in
  if G.chance st 0.3 then begin
    (* grouped query *)
    let key_cands =
      (* distinct output names: one relation per column name *)
      let seen = Hashtbl.create 8 in
      List.concat_map
        (fun r ->
           List.filter_map
             (fun (n, ty) ->
                if n <> "id" && not (Hashtbl.mem seen n) then begin
                  Hashtbl.replace seen n ();
                  Some (r, (n, ty))
                end
                else None)
             r.rcols)
        all_rels
    in
    let nkeys = min (List.length key_cands) (G.uniform_int st ~lo:1 ~hi:2) in
    let keys =
      if nkeys = 0 then []
      else begin
        (* draw without replacement *)
        let cands = ref key_cands in
        List.init nkeys (fun _ ->
            let c = G.pick st !cands in
            cands := List.filter (fun x -> x != c) !cands;
            c)
      end
    in
    let key_exprs = List.map (fun (r, c) -> col_ref r c) keys in
    let gen_agg () =
      let r = G.pick st all_rels in
      match G.uniform_int st ~lo:0 ~hi:5 with
      | 0 -> A.Agg (A.Fn_count, None)
      | 1 -> A.Agg (A.Fn_sum, Some (col_ref r (G.pick st (int_cols r))))
      | 2 -> A.Agg (A.Fn_min, Some (col_ref r (G.pick st (int_cols r))))
      | 3 -> A.Agg (A.Fn_max, Some (col_ref r (G.pick st (int_cols r))))
      | 4 -> A.Agg (A.Fn_avg, Some (col_ref r (G.pick st (int_cols r))))
      | _ ->
        let cs = str_cols r in
        if cs <> [] then A.Agg (A.Fn_count, Some (col_ref r (G.pick st cs)))
        else A.Agg (A.Fn_count, Some (col_ref r (G.pick st (int_cols r))))
    in
    let naggs = G.uniform_int st ~lo:1 ~hi:2 in
    let aggs = List.init naggs (fun _ -> gen_agg ()) in
    let items =
      List.map (fun e -> A.Item (e, None)) key_exprs
      @ List.mapi (fun i a -> A.Item (a, Some (Printf.sprintf "a%d" i))) aggs
    in
    let having =
      if G.chance st 0.35 then
        let agg =
          if G.chance st 0.6 then G.pick st aggs else gen_agg ()
        in
        Some (A.Cmp (cmp_op st, agg, A.Lit_int (G.uniform_int st ~lo:0 ~hi:5)))
      else None
    in
    let order_by =
      if G.chance st 0.35 && key_exprs <> [] then
        List.map
          (fun e ->
             (e, if G.chance st 0.3 then Algebra.Desc else Algebra.Asc))
          (if G.chance st 0.5 then [ List.hd key_exprs ] else key_exprs)
      else []
    in
    { A.distinct = G.chance st 0.1; items; from; where;
      group_by = key_exprs; having; order_by }
  end
  else begin
    (* plain select *)
    let star =
      G.chance st 0.1 && List.length all_rels = 1 && derived_items = []
    in
    let items =
      if star then [ A.Star ]
      else begin
        let nitems = G.uniform_int st ~lo:1 ~hi:3 in
        let raw =
          List.init nitems (fun _ ->
              let r = G.pick st all_rels in
              if G.chance st 0.75 then `Col (r, G.pick st r.rcols)
              else
                let a = G.pick st (int_cols r) in
                let e =
                  if G.chance st 0.5 then
                    A.Binop (Expr.Add, col_ref r a,
                             A.Lit_int (G.uniform_int st ~lo:1 ~hi:9))
                  else
                    let b = G.pick st (int_cols r) in
                    A.Binop (Expr.Mul, col_ref r a, col_ref r b)
                in
                `Expr e)
        in
        (* alias computed items always; alias columns only when their bare
           names would collide *)
        let col_names =
          List.filter_map
            (function `Col (_, (n, _)) -> Some n | `Expr _ -> None)
            raw
        in
        let dup n = List.length (List.filter (( = ) n) col_names) > 1 in
        List.mapi
          (fun i it ->
             match it with
             | `Col (r, c) ->
               let n, _ = c in
               if dup n then
                 A.Item (col_ref r c, Some (Printf.sprintf "x%d" i))
               else A.Item (col_ref r c, None)
             | `Expr e -> A.Item (e, Some (Printf.sprintf "x%d" i)))
          raw
      end
    in
    let order_by =
      if G.chance st 0.3 then
        List.init (G.uniform_int st ~lo:1 ~hi:2) (fun _ ->
            let r = G.pick st all_rels in
            ( col_ref r (G.pick st r.rcols),
              if G.chance st 0.3 then Algebra.Desc else Algebra.Asc ))
      else []
    in
    { A.distinct = G.chance st 0.2; items; from; where;
      group_by = []; having = None; order_by }
  end

(* ------------------------------------------------------------------ *)
(* Full queries *)

let query ~seed (spec : Dbspec.t) : A.query =
  let st = G.rng (G.derive seed 1) in
  let fresh = ref 0 in
  if G.chance st 0.1 then begin
    (* UNION [ALL]: fixed-arity single-int-column arms *)
    let arm () =
      let tb = G.pick st spec.Dbspec.tables in
      let r =
        { alias = fresh_alias fresh "r"; tbl = Some tb; rcols = tb.Dbspec.cols }
      in
      let c = G.pick st (int_cols r) in
      { A.distinct = false;
        items = [ A.Item (col_ref r c, Some "u0") ];
        from = [ A.Plain (A.Table (tb.Dbspec.tname, Some r.alias)) ];
        where = (if G.chance st 0.6 then Some (gen_filter st r) else None);
        group_by = []; having = None; order_by = [] }
    in
    let all = G.chance st 0.5 in
    A.Union (A.Single (arm ()), all, A.Single (arm ()))
  end
  else
    A.Single
      (gen_select st ~st_sel:(G.rng (G.derive seed 2)) spec ~fresh ~depth:1)

let db = db

let case ~seed =
  let spec = db ~seed in
  (spec, query ~seed spec)

(* Relation aliases in FROM clauses, all blocks included. *)
let relation_count (q : A.query) : int =
  let n = ref 0 in
  let rec go_query = function
    | A.Single s -> go_select s
    | A.Union (l, _, r) ->
      go_query l;
      go_query r
  and go_select (s : A.select) =
    List.iter go_joined s.A.from;
    List.iter go_item s.A.items;
    Option.iter go_expr s.A.where;
    List.iter go_expr s.A.group_by;
    Option.iter go_expr s.A.having;
    List.iter (fun (e, _) -> go_expr e) s.A.order_by
  and go_joined = function
    | A.Plain it -> go_from_item it
    | A.Left_outer_join (l, it, pred) ->
      go_joined l;
      go_from_item it;
      go_expr pred
  and go_from_item = function
    | A.Table _ -> incr n
    | A.Subquery (s, _) ->
      incr n;
      go_select s
  and go_item = function
    | A.Star -> ()
    | A.Item (e, _) -> go_expr e
  and go_expr = function
    | A.In_query (e, s) | A.Cmp_query (_, e, s) ->
      go_expr e;
      go_select s
    | A.Exists (_, s) -> go_select s
    | A.Binop (_, a, b) | A.Cmp (_, a, b) | A.And (a, b) | A.Or (a, b) ->
      go_expr a;
      go_expr b
    | A.Not a | A.Is_null (a, _) -> go_expr a
    | A.Agg (_, arg) -> Option.iter go_expr arg
    | A.Lit_int _ | A.Lit_float _ | A.Lit_string _ | A.Lit_bool _ | A.Lit_null
    | A.Column _ -> ()
  in
  go_query q;
  !n
