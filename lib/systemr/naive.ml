(* The naive exhaustive enumerator: optimize every permutation of the
   relations as a left-deep sequence, with no sharing of subplans between
   permutations.  Considers O(n!) sequences where dynamic programming
   considers O(n·2^(n-1)) subsets (Section 3) — experiment E1 measures both.

   Because it explores exactly the same plan shapes as the left-deep DP, its
   best cost must equal the DP's best cost; that equality is a property
   test. *)

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

(* Number of left-deep join *sequences* considered by each strategy. *)
let linear_sequences n = factorial n

let dp_extensions n =
  (* subsets of size k each extended by (n-k) relations *)
  let rec binom n k =
    if k = 0 || k = n then 1 else binom (n - 1) (k - 1) + binom (n - 1) k
  in
  let total = ref 0 in
  for k = 1 to n - 1 do
    total := !total + (binom n k * (n - k))
  done;
  !total

let permutations (xs : 'a list) : 'a list list =
  let rec insert_everywhere x = function
    | [] -> [ [ x ] ]
    | y :: ys ->
      (x :: y :: ys) :: List.map (fun zs -> y :: zs) (insert_everywhere x ys)
  in
  List.fold_left
    (fun acc x -> List.concat_map (insert_everywhere x) acc)
    [ [] ] xs

type result = {
  best : Candidate.t;
  plans_costed : int;
  sequences : int;
}

let optimize ?(config = Join_order.default_config) cat db (q : Spj.t) : result
  =
  let best, plans_costed, sequences =
    let open Join_order in
  let ctx = make_ctx config cat db q in
  let n = Array.length ctx.rels in
  if n > 10 then invalid_arg "Naive.optimize: too many relations (n > 10)";
  let idxs = List.init n Fun.id in
  let perms = permutations idxs in
  let best = ref None in
  let seqs = ref 0 in
  List.iter
    (fun perm ->
       match perm with
       | [] -> ()
       | first :: rest ->
         incr seqs;
         (* skip permutations introducing avoidable Cartesian products *)
         let introduces_cross =
           (not config.allow_cross)
           && (let rec check mask = function
                 | [] -> false
                 | r :: more ->
                   if
                     (not (Join_order.connected_masks ctx mask (1 lsl r)))
                     && List.exists
                          (fun i ->
                             mask land (1 lsl i) = 0
                             && Join_order.connected_masks ctx mask (1 lsl i))
                          idxs
                   then true
                   else check (mask lor (1 lsl r)) more
               in
               check (1 lsl first) rest)
         in
         if not introduces_cross then begin
           let _, final =
             List.fold_left
               (fun (mask, left) r ->
                  let rmask = 1 lsl r in
                  let union = mask lor rmask in
                  let out = new_entry (Join_order.stats_of ctx union) [] in
                  Join_order.join_cands ctx ~left ~left_mask:mask
                    ~right:ctx.base.(r) ~right_mask:rmask ~right_base:(Some r)
                    out;
                  (union, out))
               (1 lsl first, ctx.base.(first))
               rest
           in
           let res = Join_order.finish ctx q final in
           match !best with
           | None -> best := Some res.Join_order.best
           | Some b ->
             if res.Join_order.best.Candidate.cost < b.Candidate.cost then
               best := Some res.Join_order.best
         end)
    perms;
    match !best with
    | None -> invalid_arg "Naive.optimize: no plan (all permutations pruned)"
    | Some b -> (b, ctx.Join_order.plans_costed, !seqs)
  in
  { best; plans_costed; sequences }
