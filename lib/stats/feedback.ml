(* Cardinality feedback cache: observed actual cardinalities of executed
   (sub)plans, keyed by a normalized digest of the logical subexpression,
   consulted on re-optimization in place of derived estimates (the
   "closing the loop" direction Chaudhuri's Section 5 motivates; see also
   PAPERS.md, "Analyzing Query Optimizer Performance in the Presence and
   Absence of Cardinality Estimates").

   Keys are position-independent for the SPJ core: a subexpression is
   identified by its set of (alias, table) pairs plus the canonicalized
   set of conjuncts applied anywhere within it, regardless of join order
   or of where selections sit in the plan.  Every plan the optimizer
   considers for the same logical subexpression therefore shares one
   cache line, exactly as [Stats.Derive.rel_stats] is a logical property.
   Non-SPJ shapes (semi/anti/outer joins, grouping, distinct) carry an
   explicit shape marker since their cardinalities differ.

   Each entry records the row count of every base table involved at the
   time the actual was observed; a lookup whose fingerprint no longer
   matches the statistics registry is treated as a miss and dropped
   (invalidation on catalog/statistics refresh or append). *)

open Relalg

type key = string (* 8-hex FNV-1a digest *)

(* FNV-1a over the canonical description — same scheme as the block
   digests in [Obs.Trace] (obs sits above stats, so reimplemented). *)
let digest (s : string) : string =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    s;
  Printf.sprintf "%08x" !h

(* Canonical form of one conjunct.  Equality operands are sorted so the
   logical [a.x = b.y] and a join operator's reconstructed [b.y = a.x]
   agree; other predicates print as written. *)
let canon_pred (e : Expr.t) : string =
  match e with
  | Expr.Cmp (Expr.Eq, a, b) ->
    let sa = Expr.to_string a and sb = Expr.to_string b in
    if sa <= sb then sa ^ " = " ^ sb else sb ^ " = " ^ sa
  | e -> Expr.to_string e

(* [key ~shape ~rels ~preds]: [rels] are the (alias, table) pairs of the
   subexpression, [preds] its canonicalized conjuncts (from {!canon_pred}).
   Both are sorted and deduplicated here, so callers need not normalize. *)
let key ~(shape : string) ~(rels : (string * string) list)
    ~(preds : string list) : key =
  let rels = List.sort_uniq compare rels in
  let preds = List.sort_uniq compare preds in
  let buf = Buffer.create 128 in
  Buffer.add_string buf shape;
  List.iter
    (fun (a, t) ->
       Buffer.add_char buf '\x01';
       Buffer.add_string buf a;
       Buffer.add_char buf '=';
       Buffer.add_string buf t)
    rels;
  List.iter
    (fun p ->
       Buffer.add_char buf '\x02';
       Buffer.add_string buf p)
    preds;
  digest (Buffer.contents buf)

type entry = {
  act : float; (* observed output cardinality *)
  fingerprints : (string * float) list; (* table -> rows at record time *)
}

type t = {
  cache : (key, entry) Hashtbl.t;
  mutable hits : int; (* lookups answered from the cache *)
  mutable misses : int; (* lookups with no (fresh) entry *)
  mutable records : int; (* actuals recorded *)
}

let create () : t =
  { cache = Hashtbl.create 64; hits = 0; misses = 0; records = 0 }

let clear (fb : t) : unit = Hashtbl.reset fb.cache
let size (fb : t) : int = Hashtbl.length fb.cache
let hits (fb : t) = fb.hits
let misses (fb : t) = fb.misses
let records (fb : t) = fb.records

let fingerprint_of (db : Table_stats.db) (table : string) : string * float =
  match Table_stats.find db table with
  | Some ts -> (table, ts.Table_stats.rows)
  | None -> (table, -1.) (* unknown table: distinct from any analyzed state *)

(* Record the observed cardinality for [k].  [tables] are the base tables
   of the subexpression; their current row counts (per [db]) become the
   entry's freshness fingerprint. *)
let record (fb : t) ~(db : Table_stats.db) ~(tables : string list) (k : key)
    (act : float) : unit =
  fb.records <- fb.records + 1;
  let fingerprints =
    List.map (fingerprint_of db) (List.sort_uniq compare tables)
  in
  Hashtbl.replace fb.cache k { act; fingerprints }

let fresh ~(db : Table_stats.db) (e : entry) : bool =
  List.for_all
    (fun (table, rows) -> snd (fingerprint_of db table) = rows)
    e.fingerprints

type lookup = Hit of float | Stale | Miss

(* Look up the observed cardinality for [k].  A stale entry (any involved
   table re-analyzed to a different row count, or dropped) is removed and
   counted as a miss, but reported as [Stale] so the caller can say why. *)
let lookup (fb : t) ~(db : Table_stats.db) (k : key) : lookup =
  match Hashtbl.find_opt fb.cache k with
  | Some e when fresh ~db e ->
    fb.hits <- fb.hits + 1;
    Hit e.act
  | Some _ ->
    Hashtbl.remove fb.cache k;
    fb.misses <- fb.misses + 1;
    Stale
  | None ->
    fb.misses <- fb.misses + 1;
    Miss

(* Drop every entry touching any of [tables] — explicit invalidation for
   callers that mutate data without re-analyzing. *)
let invalidate_tables (fb : t) (tables : string list) : unit =
  let doomed =
    Hashtbl.fold
      (fun k e acc ->
         if List.exists (fun (t, _) -> List.mem t tables) e.fingerprints
         then k :: acc
         else acc)
      fb.cache []
  in
  List.iter (Hashtbl.remove fb.cache) doomed
