(* Subquery unnesting (Section 4.2.2, after Kim [35], Dayal [13], and
   Muralikrishna [44]; Section 4.3's magic sets [56]).

   - IN / EXISTS subqueries become semijoins against a decorrelated view
     (Dayal's algebraic view: tuple semantics = Semijoin).
   - NOT EXISTS becomes an antijoin.
   - Scalar aggregate subqueries compared in WHERE are aggregated first,
     once per correlation value — over the magic set of the outer block's
     distinct correlation values when the correlation is not an equality —
     and joined back to the unchanged outer block.  COUNT joins with a
     left outerjoin, which is what preserves zero-match outer tuples (the
     "count bug"); [naive_cmp_rule] below deliberately uses an inner join
     instead and is exported only for experiment E5. *)

open Relalg

(* Decorrelate a SPJ subquery: split its WHERE into local and correlated
   conjuncts, export every internal column the correlated conjuncts touch,
   and return the local view plus the correlation predicate rewritten
   against the view. *)
type decorrelated = {
  view : Qgm.block;
  view_alias : string;
  corr_pred : Expr.t list; (* conjuncts referencing view + outer columns *)
  out_col : Expr.col_ref; (* the subquery's first output column, in the view *)
}

let plain_only ps =
  List.for_all (function Qgm.P _ -> true | Qgm.In_sub _ | Qgm.Exists_sub _ | Qgm.Cmp_sub _ -> false) ps

(* Does [e] name a relation the subquery [sub] does not bind?  An
   unqualified column is an enclosing block's grouped output. *)
let names_outer (sub : Qgm.block) e =
  let bound = Qgm.bound_aliases sub in
  List.exists (fun r -> not (List.mem r bound)) (Expr.relations e)

(* A subquery's plain WHERE conjuncts: (local, correlated). *)
let split_correlated (sub : Qgm.block) =
  List.partition
    (fun e -> not (names_outer sub e))
    (Qgm.plain_preds sub.Qgm.where)

let decorrelate_spj (sub : Qgm.block) : decorrelated option =
  if
    sub.Qgm.aggs <> [] || sub.Qgm.group_by <> [] || sub.Qgm.having <> []
    || sub.Qgm.semijoins <> [] || sub.Qgm.outerjoins <> []
    || not (plain_only sub.Qgm.where)
    || sub.Qgm.select = []
  then None
  else begin
    let bound = Qgm.bound_aliases sub in
    let locals, corrs = split_correlated sub in
    let alias = Qgm.fresh_alias "sq" in
    (* exported columns: internal columns used by correlated conjuncts *)
    let exports = ref [] in
    let export (c : Expr.col_ref) =
      match
        List.find_opt (fun (c', _) -> c' = c) !exports
      with
      | Some (_, name) -> name
      | None ->
        let name = Printf.sprintf "x_%s_%s" c.Expr.rel c.Expr.col in
        exports := !exports @ [ (c, name) ];
        name
    in
    let subst_corr e =
      let map =
        Expr.columns e
        |> List.filter (fun (c : Expr.col_ref) -> List.mem c.Expr.rel bound)
        |> List.map (fun c ->
            (c, Expr.col ~rel:alias ~col:(export c)))
      in
      Qgm.subst_expr map e
    in
    let corr_pred = List.map subst_corr corrs in
    let extra_select =
      List.map (fun ((c : Expr.col_ref), name) -> (Expr.Col c, name)) !exports
    in
    let view =
      { sub with
        Qgm.distinct = false;
        where = List.map (fun e -> Qgm.P e) locals;
        select = sub.Qgm.select @ extra_select;
        order_by = [] }
    in
    let out_name = snd (List.hd sub.Qgm.select) in
    Some
      { view; view_alias = alias; corr_pred;
        out_col = { Expr.rel = alias; col = out_name } }
  end

(* ------------------------------------------------------------------ *)
(* IN / EXISTS -> semijoin; NOT EXISTS -> antijoin *)

(* The view sees only the subquery's sources, so a select item naming an
   outer relation cannot move into it.  EXISTS never reads its select
   list, and [x IN (SELECT f ...)] is [EXISTS (SELECT ... WHERE x = f)]:
   such a subquery is unnested as that EXISTS over a constant. *)
let local_select (p : Qgm.predicate) : Qgm.predicate =
  let constant sub = { sub with Qgm.select = [ (Expr.int 1, "one") ] } in
  match p with
  | Qgm.In_sub (x, ({ Qgm.select = [ (f, _) ]; _ } as sub))
    when names_outer sub f ->
    Qgm.Exists_sub
      ( true,
        constant
          { sub with
            Qgm.where = sub.Qgm.where @ [ Qgm.P (Expr.Cmp (Expr.Eq, x, f)) ] } )
  | Qgm.Exists_sub (positive, sub)
    when List.exists (fun (e, _) -> names_outer sub e) sub.Qgm.select ->
    Qgm.Exists_sub (positive, constant sub)
  | p -> p

let unnest_quantified (b : Qgm.block) : Qgm.block option =
  let semijoin rest acc (d : decorrelated) pred anti =
    { b with
      Qgm.where = List.rev acc @ rest;
      semijoins =
        b.Qgm.semijoins
        @ [ { Qgm.s_source =
                Qgm.Derived { block = d.view; alias = d.view_alias };
              s_pred = pred;
              s_anti = anti } ] }
  in
  let rec go acc = function
    | [] -> None
    | p :: rest -> (
      match local_select p with
      | Qgm.In_sub (e, sub) -> (
        match decorrelate_spj sub with
        | None -> go (p :: acc) rest
        | Some d ->
          let pred =
            Pred.of_conjuncts
              (Expr.Cmp (Expr.Eq, e, Expr.Col d.out_col) :: d.corr_pred)
          in
          Some (semijoin rest acc d pred false))
      | Qgm.Exists_sub (positive, sub) -> (
        match decorrelate_spj sub with
        | None -> go (p :: acc) rest
        | Some d ->
          Some
            (semijoin rest acc d (Pred.of_conjuncts d.corr_pred)
               (not positive)))
      | Qgm.P _ | Qgm.Cmp_sub _ -> go (p :: acc) rest)
  in
  go [] b.Qgm.where

let quantified_rule : Rules.t =
  { name = "unnest_in_exists"; apply = unnest_quantified }

(* ------------------------------------------------------------------ *)
(* Scalar aggregate subqueries *)

let is_scalar_agg (sub : Qgm.block) =
  (match sub.Qgm.aggs with [ _ ] -> true | _ -> false)
  && sub.Qgm.group_by = [] && sub.Qgm.having = []
  && sub.Qgm.semijoins = [] && sub.Qgm.outerjoins = []
  && (not sub.Qgm.distinct)
  && plain_only sub.Qgm.where

(* Uncorrelated scalar subquery: evaluate once as a one-row derived source
   and compare directly. *)
let unnest_scalar_uncorrelated (b : Qgm.block) : Qgm.block option =
  let rec go acc = function
    | [] -> None
    | (Qgm.Cmp_sub (op, e, sub) as p) :: rest ->
      if is_scalar_agg sub && not (Qgm.is_correlated sub) then begin
        let alias = Qgm.fresh_alias "sc" in
        let out_name = snd (List.hd sub.Qgm.select) in
        Some
          { b with
            Qgm.from =
              b.Qgm.from @ [ Qgm.Derived { block = sub; alias } ];
            where =
              List.rev acc
              @ (Qgm.P (Expr.Cmp (op, e, Expr.col ~rel:alias ~col:out_name))
                 :: rest) }
      end
      else go (p :: acc) rest
    | p :: rest -> go (p :: acc) rest
  in
  go [] b.Qgm.where

let scalar_uncorrelated_rule : Rules.t =
  { name = "unnest_scalar_uncorrelated"; apply = unnest_scalar_uncorrelated }

(* Correlated scalar aggregate, aggregate first (Kim [35]; Section 4.3's
   magic decorrelation [56] for non-equality correlation).

   SELECT s FROM O WHERE o_preds AND e op (SELECT AGG(a) FROM I WHERE
   corr AND local)

   Equality correlation (every corr conjunct is inner_i = outer_i):
     V = SELECT inner_i AS k_i, AGG(a) AS val FROM I WHERE local
         GROUP BY inner_i
     SELECT s FROM O, V WHERE o_preds AND outer_i = V.k_i AND e op V.val

   Any other correlation aggregates over the magic set, the distinct
   values of the outer correlation columns o_j:
     M = SELECT DISTINCT o_j AS m_j FROM (O's sources of the o_j)
         WHERE (o_preds over those sources only)
     P = SELECT c_i AS k_i, AGG(a) AS val FROM I WHERE local
         GROUP BY c_i                      (c_i: I's columns in corr)
     V = SELECT M.m_j AS k_j, COMBINE(P.val) AS val FROM M, P
         WHERE corr[o_j := M.m_j, c_i := P.k_i] GROUP BY M.m_j
   and V joins O on o_j = V.k_j as above.  P pre-aggregates with the
   combining forms of [Groupby]; AVG, which has none, aggregates the
   join of M and I directly.

   Neither shape regroups the outer rows, so both are exact under
   duplicate outer rows and inside a grouped outer block.  An outer row
   with no group in V (no inner match, or a NULL correlation value) sees
   the subquery's empty value: NULL for MIN/MAX/SUM/AVG, which no
   comparison accepts, so the inner join is exact; for COUNT (and possibly
   for a select expression over the aggregate) it is not NULL, so V is
   left outer-joined instead and a padded row reads the empty value:
     (V.k_0 IS NULL AND e op empty) OR e op V.val
   That filter must run after the outerjoin, which the block's WHERE does
   not, so the joined part becomes a derived block and the filter its
   parent's WHERE. *)

(* Columns a conjunct rejects when NULL: those reached through
   comparisons and arithmetic only. *)
let rec null_rejected e =
  let rec operand = function
    | Expr.Col c -> [ c ]
    | Expr.Binop (_, a, b) -> operand a @ operand b
    | _ -> []
  in
  match e with
  | Expr.Cmp (_, a, b) -> operand a @ operand b
  | Expr.And (a, b) -> null_rejected a @ null_rejected b
  | _ -> []

(* [inner = outer] with each side over one block only. *)
let equi_pair ~bound e =
  let side x =
    match Expr.relations x with
    | [] -> `Const
    | rs when List.for_all (fun r -> r = "" || List.mem r bound) rs -> `Inner
    | rs when List.for_all (fun r -> r <> "" && not (List.mem r bound)) rs ->
      `Outer
    | _ -> `Mixed
  in
  match e with
  | Expr.Cmp (Expr.Eq, x, y) -> (
    match (side x, side y) with
    | `Inner, `Outer -> Some (x, y)
    | `Outer, `Inner -> Some (y, x)
    | _ -> None)
  | _ -> None

(* SELECT k_0.., value AS val FROM from WHERE where GROUP BY keys, with
   the subquery's aggregate named "agg". *)
let grouped_view ~from ~where ~keys ~agg ~value =
  let keys = List.mapi (fun i k -> (k, Printf.sprintf "k%d" i)) keys in
  Qgm.simple ~from ~where ~group_by:keys ~aggs:[ (agg, "agg") ]
    ~select:
      (List.map (fun (_, k) -> (Expr.col ~rel:"" ~col:k, k)) keys
       @ [ (value, "val") ])
    ()

(* Attach the grouped view [view] to [b] (whose WHERE is now [rest]) on
   [outer_i = V.k_i] and replace the subquery comparison [e op sub] by
   [e op V.val]; [empty] is the subquery's value on no rows. *)
let attach ~use_outerjoin (b : Qgm.block) ~rest (op, e) ~view ~outer ~empty =
  let v = Qgm.fresh_alias "sq" in
  let vcol n = Expr.col ~rel:v ~col:n in
  let on =
    List.mapi
      (fun i o -> Expr.Cmp (Expr.Eq, o, vcol (Printf.sprintf "k%d" i)))
      outer
  in
  let cmp = Expr.Cmp (op, e, vcol "val") in
  let source = Qgm.Derived { block = view; alias = v } in
  if (not use_outerjoin) || empty = Expr.Const Value.Null then
    { b with
      Qgm.from = b.Qgm.from @ [ source ];
      where = rest @ List.map (fun p -> Qgm.P p) (on @ [ cmp ]) }
  else begin
    let sources =
      b.Qgm.from
      @ List.map (fun (oj : Qgm.outerjoin) -> oj.Qgm.o_source) b.Qgm.outerjoins
      @ [ source ]
    in
    let j = Qgm.fresh_alias "oj" in
    let exports =
      List.concat_map
        (fun src ->
           let a = Qgm.alias_of_source src in
           List.map
             (fun (c : Schema.column) ->
                ({ Expr.rel = a; col = c.Schema.name },
                 Printf.sprintf "%s__%s" a c.Schema.name))
             (Qgm.source_schema src))
        sources
    in
    let joined =
      { b with
        Qgm.distinct = false;
        select = List.map (fun (c, name) -> (Expr.Col c, name)) exports;
        where = rest;
        group_by = []; aggs = []; having = [];
        outerjoins =
          b.Qgm.outerjoins
          @ [ { Qgm.o_source = source; o_pred = Pred.of_conjuncts on } ];
        order_by = [] }
    in
    let filter =
      Expr.Or
        (Expr.And (Expr.Is_null (vcol "k0"), Expr.Cmp (op, e, empty)), cmp)
    in
    Qgm.subst_block
      (List.map (fun (c, name) -> (c, Expr.col ~rel:j ~col:name)) exports)
      { b with
        Qgm.from = [ Qgm.Derived { block = joined; alias = j } ];
        where = [ Qgm.P filter ];
        semijoins = [];
        outerjoins = [] }
  end

let unnest_scalar_correlated ~(use_outerjoin : bool) (b : Qgm.block) :
  Qgm.block option =
  let from_aliases = List.map Qgm.alias_of_source b.Qgm.from in
  let rewrite ~rest (op, e) (sub : Qgm.block) =
    let bound = Qgm.bound_aliases sub in
    let locals, corrs = split_correlated sub in
    let agg, agg_name = List.hd sub.Qgm.aggs in
    let value =
      Qgm.subst_expr
        [ ({ Expr.rel = ""; col = agg_name }, Expr.col ~rel:"" ~col:"agg") ]
        (fst (List.hd sub.Qgm.select))
    in
    let empty =
      Qgm.subst_expr
        [ ( { Expr.rel = ""; col = "agg" },
            match agg with
            | Expr.Count _ | Expr.Count_star -> Expr.int 0
            | Expr.Sum _ | Expr.Min _ | Expr.Max _ | Expr.Avg _ ->
              Expr.Const Value.Null ) ]
        value
    in
    let outer_cols =
      List.concat_map Expr.columns corrs
      |> List.filter (fun (c : Expr.col_ref) ->
          c.Expr.rel <> "" && not (List.mem c.Expr.rel bound))
      |> List.sort_uniq compare
    in
    let pairs = List.filter_map (equi_pair ~bound) corrs in
    let attach = attach ~use_outerjoin b ~rest (op, e) in
    if
      corrs = []
      || Qgm.is_correlated { sub with Qgm.where = List.map (fun p -> Qgm.P p) locals }
      || not
           (List.for_all
              (fun (c : Expr.col_ref) -> List.mem c.Expr.rel from_aliases)
              outer_cols)
    then None
    else if List.length pairs = List.length corrs then
      Some
        (attach
           ~view:
             (grouped_view ~from:sub.Qgm.from ~where:locals
                ~keys:(List.map fst pairs) ~agg ~value)
           ~outer:(List.map snd pairs) ~empty)
    else if
      (* an outer row with a NULL correlation value matches no group of
         V, so the subquery must be empty for it *)
      let rejected = List.concat_map null_rejected corrs in
      not (List.for_all (fun c -> List.mem c rejected) outer_cols)
    then None
    else begin
      let m = Qgm.fresh_alias "magic" in
      let m_names =
        List.mapi (fun i c -> (c, Printf.sprintf "m%d" i)) outer_cols
      in
      let m_map =
        List.map (fun (c, n) -> (c, Expr.col ~rel:m ~col:n)) m_names
      in
      let m_aliases =
        List.sort_uniq compare
          (List.map (fun (c : Expr.col_ref) -> c.Expr.rel) outer_cols)
      in
      let magic =
        Magic.filter_set
          ~from:
            (List.filter
               (fun src -> List.mem (Qgm.alias_of_source src) m_aliases)
               b.Qgm.from)
          ~where:
            (List.filter
               (fun p ->
                  List.for_all (fun r -> List.mem r m_aliases)
                    (Expr.relations p))
               (Qgm.plain_preds rest))
          (List.map (fun (c, n) -> (Expr.Col c, n)) m_names)
      in
      let m_src = Qgm.Derived { block = magic; alias = m } in
      let keys = List.map snd m_map in
      let pre = Qgm.fresh_alias "pre" in
      let view =
        match Groupby.combining_agg agg (Expr.col ~rel:pre ~col:"val") with
        | Some combined ->
          (* P: the subquery pre-aggregated on its correlation columns *)
          let inner_cols =
            List.concat_map Expr.columns corrs
            |> List.filter (fun c -> not (List.mem c outer_cols))
            |> List.sort_uniq compare
          in
          let partial =
            grouped_view ~from:sub.Qgm.from ~where:locals
              ~keys:(List.map (fun c -> Expr.Col c) inner_cols)
              ~agg ~value:(Expr.col ~rel:"" ~col:"agg")
          in
          let p_map =
            List.mapi
              (fun i c -> (c, Expr.col ~rel:pre ~col:(Printf.sprintf "k%d" i)))
              inner_cols
          in
          grouped_view
            ~from:[ m_src; Qgm.Derived { block = partial; alias = pre } ]
            ~where:(List.map (Qgm.subst_expr (m_map @ p_map)) corrs)
            ~keys ~agg:combined ~value
        | None ->
          grouped_view ~from:(m_src :: sub.Qgm.from)
            ~where:(locals @ List.map (Qgm.subst_expr m_map) corrs)
            ~keys ~agg ~value
      in
      Some
        (attach ~view
           ~outer:(List.map (fun c -> Expr.Col c) outer_cols)
           ~empty)
    end
  in
  let rec go acc = function
    | [] -> None
    | (Qgm.Cmp_sub (op, e, sub) as p) :: rest -> (
      let r =
        if is_scalar_agg sub && Qgm.is_correlated sub then
          rewrite ~rest:(List.rev acc @ rest) (op, e) sub
        else None
      in
      match r with Some _ -> r | None -> go (p :: acc) rest)
    | p :: rest -> go (p :: acc) rest
  in
  go [] b.Qgm.where

let scalar_correlated_rule : Rules.t =
  { name = "unnest_scalar_correlated";
    apply = unnest_scalar_correlated ~use_outerjoin:true }

(* The deliberately wrong rewrite exhibiting the count bug (E5): the same
   shape with an inner join, so outer rows without inner matches are lost
   even where the subquery's value on no rows (COUNT's 0) would accept
   them. *)
let naive_cmp_rule : Rules.t =
  { name = "unnest_scalar_correlated_NAIVE";
    apply = unnest_scalar_correlated ~use_outerjoin:false }

let default_rules = [ quantified_rule; scalar_uncorrelated_rule; scalar_correlated_rule ]
