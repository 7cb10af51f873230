(* Provable-bound lints: compare the cost model's cardinality estimates
   against the analyzer's envelope at every operator of a physical
   plan.  The envelope is sound, so an estimate escaping it is
   a definite estimator defect, not a statistics artifact — but the
   estimator is allowed a little deliberate slack (e.g. the [-0.5]
   distinct-count fudge), so the warnings fire only past a small
   tolerance.  An estimate of (essentially) zero on a provably nonempty
   operator is reported as an error: downstream costing would consider
   the subtree free.

   Codes: [est-above-envelope], [est-below-envelope] (warnings),
   [est-zero-nonempty] (error) and [analysis-failed] (warning). *)

module Diag = Verify.Diag

(* Relative + absolute slack before an escape is reported. *)
let rel_tol = 0.05

let abs_tol = 1.0

let check ~label (env : Domain.envelope) (est : float) : Diag.t list =
  let open Domain in
  if est < 0.5 && env.e_lo >= 1. then
    [ Diag.error ~path:[ label ] ~code:"est-zero-nonempty"
        (Fmt.str
           "cardinality estimate %g, but the operator provably yields at \
            least %g row(s)"
           est env.e_lo) ]
  else if est > (env.e_hi *. (1. +. rel_tol)) +. abs_tol then
    [ Diag.warning ~path:[ label ] ~code:"est-above-envelope"
        (Fmt.str
           "cardinality estimate %g escapes the provable envelope %a from \
            above"
           est pp_envelope env) ]
  else if est < (env.e_lo *. (1. -. rel_tol)) -. abs_tol then
    [ Diag.warning ~path:[ label ] ~code:"est-below-envelope"
        (Fmt.str
           "cardinality estimate %g escapes the provable envelope %a from \
            below"
           est pp_envelope env) ]
  else []

(* A plan the analyzer cannot digest is reported at the node that
   failed, never dropped silently; its ancestors get no envelope. *)
let failed (node : Exec.Plan.t) (e : exn) : Diag.t =
  Diag.warning ~path:[ Exec.Plan.describe node ] ~code:"analysis-failed"
    (Fmt.str "plan analysis failed: %s" (Printexc.to_string e))

(* One bottom-up pass: each node's envelope is checked against its
   estimate as soon as it is known; diagnostics come out in preorder. *)
let physical ~est (cat : Storage.Catalog.t) (db : Stats.Table_stats.db)
    (p : Exec.Plan.t) : Diag.t list =
  let node q kids =
    let states = List.filter_map fst kids in
    if List.compare_lengths states kids <> 0 then (None, [])
    else
      match Absint.plan_node ~db cat q states with
      | exception e -> (None, [ failed q e ])
      | st ->
        ( Some st,
          match est q with
          | None -> []
          | Some c -> check ~label:(Exec.Plan.describe q) st.Absint.env c )
  in
  List.concat_map snd (Array.to_list (Exec.Plan.bottom_up node p))
