(* Structured optimizer trace: typed events covering the three optimizer
   layers (rewrite rules, join enumeration, memoization), rendered either
   as human-readable text or as line-delimited JSON.

   Emitters hand a [event -> unit] sink down into the optimizer; the
   pipeline collects into a list when tracing is on and passes nothing
   when it is off, so the optimizer pays one closure call per event at
   most. *)

type event =
  | Rewrite_fired of { rule : string; before : string; after : string }
      (* [before]/[after] are block digests — see [digest] *)
  | Rewrite_rejected of { rule : string }
  | Enum_level of {
      level : int; (* relations joined (union-mask popcount) *)
      subsets : int;
      splits : int;
      costed : int;
      pruned : int;
    }
  | Memo_stats of { table : string; hits : int; misses : int }
  | Feedback_override of { digest : string; est : float; act : float }
      (* feedback-cache hit: derived estimate replaced by observed actual *)
  | Feedback_recorded of { digest : string; act : float }
      (* actual cardinality of an executed (sub)plan entered the cache *)
  | Feedback_stale of { digest : string }
      (* cached actual dropped: its tables' row counts changed *)
  | Interpreted_fallback of { reason : string }
      (* the block runs in the tuple interpreter; [reason] names the
         predicate or correlation that blocked planning *)

(* FNV-1a (32-bit) over the pretty-printed form: a stable, dependency-free
   fingerprint for before/after rewrite comparisons.  Not cryptographic —
   it only needs to distinguish "changed" from "unchanged" in a trace. *)
let digest (s : string) : string =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
       h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    s;
  Printf.sprintf "%08x" !h

let pp ppf = function
  | Rewrite_fired { rule; before; after } ->
    Fmt.pf ppf "rewrite %s fired: block %s -> %s" rule before after
  | Rewrite_rejected { rule } -> Fmt.pf ppf "rewrite %s rejected" rule
  | Enum_level { level; subsets; splits; costed; pruned } ->
    Fmt.pf ppf
      "enum level %d: %d subsets, %d splits, %d plans costed, %d pruned"
      level subsets splits costed pruned
  | Memo_stats { table; hits; misses } ->
    Fmt.pf ppf "memo %s: %d hits, %d misses" table hits misses
  | Feedback_override { digest; est; act } ->
    Fmt.pf ppf "feedback %s: estimate %.1f overridden by actual %.1f" digest
      est act
  | Feedback_recorded { digest; act } ->
    Fmt.pf ppf "feedback %s: recorded actual %.1f" digest act
  | Feedback_stale { digest } ->
    Fmt.pf ppf "feedback %s: stale entry dropped" digest
  | Interpreted_fallback { reason } ->
    Fmt.pf ppf "interpreted fallback: %s" reason

let to_string e = Fmt.str "%a" pp e

(* JSON rendering is hand-rolled (no JSON dependency in the tree): one
   object per line, strings escaped per RFC 8259, non-finite floats
   mapped to null. *)
let json_escape (s : string) : string =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jstr s = "\"" ^ json_escape s ^ "\""

let jfloat f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let jobj (fields : (string * string) list) : string =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields)
  ^ "}"

let to_json = function
  | Rewrite_fired { rule; before; after } ->
    Printf.sprintf
      {|{"event":"rewrite_fired","rule":%s,"before":%s,"after":%s}|}
      (jstr rule) (jstr before) (jstr after)
  | Rewrite_rejected { rule } ->
    Printf.sprintf {|{"event":"rewrite_rejected","rule":%s}|} (jstr rule)
  | Enum_level { level; subsets; splits; costed; pruned } ->
    Printf.sprintf
      {|{"event":"enum_level","level":%d,"subsets":%d,"splits":%d,"costed":%d,"pruned":%d}|}
      level subsets splits costed pruned
  | Memo_stats { table; hits; misses } ->
    Printf.sprintf {|{"event":"memo_stats","table":%s,"hits":%d,"misses":%d}|}
      (jstr table) hits misses
  | Feedback_override { digest; est; act } ->
    Printf.sprintf
      {|{"event":"feedback_override","digest":%s,"est":%s,"act":%s}|}
      (jstr digest) (jfloat est) (jfloat act)
  | Feedback_recorded { digest; act } ->
    Printf.sprintf {|{"event":"feedback_recorded","digest":%s,"act":%s}|}
      (jstr digest) (jfloat act)
  | Feedback_stale { digest } ->
    Printf.sprintf {|{"event":"feedback_stale","digest":%s}|} (jstr digest)
  | Interpreted_fallback { reason } ->
    Printf.sprintf {|{"event":"interpreted_fallback","reason":%s}|}
      (jstr reason)
