(* Top-down, memoized optimization (Volcano/Cascades, Section 6.2).

   - Transformation rules (commutativity, associativity) expand each group's
     multi-expression set during exploration; associativity creates new
     groups on demand ("goal-driven" expansion, versus Starburst's forward
     chaining).
   - Implementation rules map a logical split to physical joins; leaves use
     access-path selection.  A sort enforcer bridges order requirements.
   - Memoization: each group is explored and optimized at most once; its
     winners (a Pareto set over cost x order, i.e. per-physical-property
     bests) are reused by every parent — "looking up the table of plans
     optimized in the past".
   - Promise: joins are attempted cheapest-expected-first, and a simple
     upper bound prunes implementations that cannot beat the incumbent. *)


type config = { join_config : Systemr.Join_order.config }

let default_config =
  { join_config = { Systemr.Join_order.default_config with bushy = true } }

type result = {
  best : Systemr.Candidate.t;
  card : float;
  groups : int;
  exprs : int;
  rule_firings : int;
  plans_costed : int;
}

type ctx = {
  memo : Memo.t;
  jctx : Systemr.Join_order.ctx; (* shared stats/cost machinery *)
  cfg : config;
}

(* Group statistics come from the shared [Join_order.stats_of]: a memo
   group is the same logical subexpression as the bottom-up enumerator's
   subset, so both derive the same cardinality for it. *)
let group_for ctx mask : Memo.group =
  Memo.find_or_create ctx.memo ~mask
    ~stats:(Systemr.Join_order.stats_of ctx.jctx mask)

let mask_of_group (g : Memo.group) = g.Memo.mask

(* ------------------------------------------------------------------ *)
(* Exploration: apply transformation rules to fixpoint *)

let connected ctx m1 m2 =
  Systemr.Join_order.connected_masks ctx.jctx m1 m2

let rec explore (ctx : ctx) (g : Memo.group) : unit =
  if not g.Memo.explored then begin
    g.Memo.explored <- true;
    (* commutativity + associativity to fixpoint over this group's exprs;
       associativity is goal-driven: it creates the (B join C) group on
       demand rather than eagerly rewriting the whole query *)
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun e ->
           match e with
           | Memo.Leaf _ -> ()
           | Memo.Split (lm, rm) ->
             let gl = group_for ctx lm in
             explore ctx gl;
             explore ctx (group_for ctx rm);
             (* commute: Join(A, B) -> Join(B, A) *)
             ctx.memo.Memo.rule_firings <- ctx.memo.Memo.rule_firings + 1;
             if Memo.add_expr ctx.memo g (Memo.Split (rm, lm)) then
               changed := true;
             (* associate: (A join B) join C -> A join (B join C) *)
             List.iter
               (fun le ->
                  match le with
                  | Memo.Leaf _ -> ()
                  | Memo.Split (am, bm) ->
                    let ok =
                      ctx.cfg.join_config.Systemr.Join_order.allow_cross
                      || connected ctx bm rm
                    in
                    if ok then begin
                      ctx.memo.Memo.rule_firings <-
                        ctx.memo.Memo.rule_firings + 1;
                      let bc = bm lor rm in
                      let gbc = group_for ctx bc in
                      if Memo.add_expr ctx.memo gbc (Memo.Split (bm, rm))
                      then changed := true;
                      if Memo.add_expr ctx.memo g (Memo.Split (am, bc))
                      then changed := true
                    end)
               gl.Memo.exprs)
        g.Memo.exprs
    done
  end

(* ------------------------------------------------------------------ *)
(* Optimization *)

let rec optimize_group (ctx : ctx) (g : Memo.group) : unit =
  if not g.Memo.optimized then begin
    g.Memo.optimized <- true;
    explore ctx g;
    let winners = g.Memo.winners in
    let insert =
      Systemr.Candidate.insert ~interesting_orders:true
        winners.Systemr.Join_order.frontier
    in
    (* promise: order splits by estimated output card of the smaller side *)
    let splits =
      List.filter_map
        (function Memo.Leaf _ -> None | Memo.Split (l, r) -> Some (l, r))
        g.Memo.exprs
    in
    let card m =
      (group_for ctx m).Memo.winners.Systemr.Join_order.stats.Stats.Derive.card
    in
    let promise (l, r) =
      let sl = card l and sr = card r in
      sl +. sr
    in
    let splits =
      List.sort (fun a b -> Float.compare (promise a) (promise b)) splits
    in
    List.iter
      (function
        | Memo.Leaf i ->
          List.iter insert
            ctx.jctx.Systemr.Join_order.base.(i).Systemr.Join_order.frontier
              .Systemr.Candidate.cands
        | _ -> ())
      g.Memo.exprs;
    List.iter
      (fun (lm, rm) ->
         let gl = group_for ctx lm and gr = group_for ctx rm in
         optimize_group ctx gl;
         optimize_group ctx gr;
         (* upper bound: the cheapest incumbent for this group *)
         let bound =
           match
             Systemr.Candidate.cheapest
               winners.Systemr.Join_order.frontier.Systemr.Candidate.cands
           with
           | Some c -> c.Systemr.Candidate.cost
           | None -> infinity
         in
         let lbest =
           Systemr.Candidate.cheapest
             gl.Memo.winners.Systemr.Join_order.frontier.Systemr.Candidate.cands
         in
         (match lbest with
          | Some lb when lb.Systemr.Candidate.cost >= bound -> () (* pruned *)
          | _ ->
            let right_base =
              match gr.Memo.exprs with
              | [ Memo.Leaf i ] -> Some i
              | _ -> None
            in
            Systemr.Join_order.join_cands ctx.jctx ~left:gl.Memo.winners
              ~left_mask:lm ~right:gr.Memo.winners ~right_mask:rm ~right_base
              winners))
      splits
  end

(* ------------------------------------------------------------------ *)
(* Entry point *)

let optimize ?(config = default_config) cat db
    (q : Systemr.Spj.t) : result =
  (* winners always keep per-order bests (the root's enforcer and every
     parent's merge join read them), whatever [interesting_orders] says *)
  let jctx =
    Systemr.Join_order.make_ctx
      { config.join_config with interesting_orders = true }
      cat db q
  in
  let memo = Memo.create () in
  let ctx = { memo; jctx; cfg = config } in
  let n = Array.length jctx.Systemr.Join_order.rels in
  if n = 0 then invalid_arg "Cascades: no relations";
  (* seed: canonical left-deep tree in declaration order *)
  let leaf i =
    let g = group_for ctx (1 lsl i) in
    ignore (Memo.add_expr memo g (Memo.Leaf i));
    g
  in
  let root =
    let rec build acc i =
      if i = n then acc
      else begin
        let r = leaf i in
        let mask = mask_of_group acc lor mask_of_group r in
        let g = group_for ctx mask in
        ignore
          (Memo.add_expr memo g
             (Memo.Split (mask_of_group acc, mask_of_group r)));
        build g (i + 1)
      end
    in
    build (leaf 0) 1
  in
  optimize_group ctx root;
  (* the root's order enforcer and projection, as in the bottom-up
     enumerator *)
  let { Systemr.Join_order.best; card; _ } =
    Systemr.Join_order.finish jctx q root.Memo.winners
  in
  { best;
    card;
    groups = Memo.group_count memo;
    exprs = memo.Memo.expr_count;
    rule_firings = memo.Memo.rule_firings;
    plans_costed = jctx.Systemr.Join_order.plans_costed }
