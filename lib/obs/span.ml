(* Hierarchical span recorder.

   A recorder owns one root span and a stack of open spans; [enter]
   pushes a child of the innermost open span, [stop] pops it (closing
   any younger spans still open — defensive against exceptions skipping
   a stop).  Timing uses the shared monotonic clock, so durations can
   never go negative.

   The pipeline threads one recorder per query through
   parse -> bind -> rewrite -> optimize -> verify -> execute.  The tree is
   the query's only telemetry record: optimizer trace events hang off the
   span open when they were emitted, and each [execute] span carries the
   plan's per-operator recorder.  EXPLAIN ANALYZE, the Chrome profile and
   the query log are renderers of it; it also renders as indented text or
   line-delimited JSON ([show_wall:false] drops the only nondeterministic
   columns, for goldens). *)

module I = Exec.Instrument

type t = {
  id : int;
  parent_id : int; (* -1 for the root *)
  name : string;
  attrs : (string * string) list;
  start_s : float; (* absolute Clock.now seconds *)
  mutable dur_s : float; (* -1. while open *)
  mutable children : t list; (* reversed while open; in start order after *)
  mutable events : Trace.event list; (* reversed while open, like children *)
  mutable ops : Exec.Instrument.t option; (* set on [execute] spans *)
}

type recorder = {
  mutable next_id : int;
  root : t;
  mutable stack : t list; (* innermost first; root at the bottom *)
}

let mk_span ~id ~parent_id ~name ~attrs =
  { id; parent_id; name; attrs; start_s = Clock.now (); dur_s = -1.;
    children = []; events = []; ops = None }

let create ?(name = "query") () : recorder =
  let root = mk_span ~id:0 ~parent_id:(-1) ~name ~attrs:[] in
  { next_id = 1; root; stack = [ root ] }

let enter (r : recorder) ?(attrs = []) (name : string) : t =
  let parent = match r.stack with p :: _ -> p | [] -> r.root in
  let s =
    mk_span ~id:r.next_id ~parent_id:parent.id ~name ~attrs
  in
  r.next_id <- r.next_id + 1;
  parent.children <- s :: parent.children;
  r.stack <- s :: r.stack;
  s

(* Record an optimizer event on the innermost open span. *)
let event (r : recorder) (e : Trace.event) : unit =
  let s = match r.stack with s :: _ -> s | [] -> r.root in
  s.events <- e :: s.events

let close_span (s : t) : unit =
  if s.dur_s < 0. then begin
    s.dur_s <- Clock.elapsed_s s.start_s;
    s.children <- List.rev s.children;
    s.events <- List.rev s.events
  end

(* Lists kept reversed while [s] is open, in order once it is closed. *)
let in_order (s : t) (l : 'a list) : 'a list =
  if s.dur_s < 0. then List.rev l else l

(* Stop [s], closing any spans opened under it that were never stopped
   (an exception unwound past them).  Stopping a span not on the stack is
   a no-op apart from closing it. *)
let stop (r : recorder) (s : t) : unit =
  let rec pop = function
    | top :: rest ->
      close_span top;
      if top == s then r.stack <- rest else pop rest
    | [] -> r.stack <- [ r.root ]
  in
  if List.memq s r.stack then pop r.stack else close_span s

let with_span (r : recorder) ?attrs (name : string) (f : unit -> 'a) : 'a =
  let s = enter r ?attrs name in
  match f () with
  | v ->
    stop r s;
    v
  | exception e ->
    stop r s;
    raise e

(* [with_span] when a recorder is attached; no recorder, no work. *)
let within (r : recorder option) ?attrs (name : string) (f : unit -> 'a) : 'a =
  match r with None -> f () | Some r -> with_span r ?attrs name f

(* Close everything still open (root included) and return the tree. *)
let finish (r : recorder) : t =
  List.iter close_span r.stack;
  r.stack <- [];
  close_span r.root;
  r.root

let iter (f : depth:int -> t -> unit) (s : t) : unit =
  let rec go depth s =
    f ~depth s;
    List.iter (go (depth + 1)) (in_order s s.children)
  in
  go 0 s

let collect (f : t -> 'a list) (s : t) : 'a list =
  let acc = ref [] in
  iter (fun ~depth:_ sp -> acc := List.rev_append (f sp) !acc) s;
  List.rev !acc

let events (s : t) : Trace.event list =
  collect (fun sp -> in_order sp sp.events) s

let recorders (s : t) : Exec.Instrument.t list =
  collect (fun sp -> Option.to_list sp.ops) s

let named (s : t) (name : string) : t list =
  collect (fun sp -> if sp.name = name then [ sp ] else []) s

(* Total time of a subtree's direct children — used by tests to check
   stage spans cover the root. *)
let children_dur (s : t) : float =
  List.fold_left (fun acc c -> acc +. Float.max 0. c.dur_s) 0.
    (in_order s s.children)

(* Sum of [dur_s] over every closed span in the tree named [name]. *)
let dur_by_name (s : t) (name : string) : float =
  List.fold_left (fun acc sp -> acc +. Float.max 0. sp.dur_s) 0. (named s name)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_attrs ppf = function
  | [] -> ()
  | attrs ->
    Fmt.pf ppf " {%s}"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) attrs))

(* The operators recorded on an [execute] span, each with its cold
   actual row count ([None] when it never ran). *)
let span_ops (sp : t) : (I.op * int option) list =
  match sp.ops with
  | None -> []
  | Some r ->
    List.map
      (fun (o : I.op) -> (o, if o.I.executed then Some o.I.act_rows else None))
      (I.ops r)

(* Indented tree, one line per span, each followed by its events and (on
   [execute]) its operators.  [show_wall:false] drops durations (the only
   nondeterministic column), keeping ids, names, attrs, events and
   operator row counts — deterministic golden output. *)
let render ?(show_wall = true) (s : t) : string =
  let b = Buffer.create 256 in
  iter
    (fun ~depth sp ->
       let pad = String.make (2 * depth) ' ' in
       Buffer.add_string b
         (Fmt.str "[%2d] %s%s%a" sp.id pad sp.name pp_attrs sp.attrs);
       if show_wall then
         Buffer.add_string b
           (Fmt.str " %.3fms" (Float.max 0. sp.dur_s *. 1000.));
       Buffer.add_char b '\n';
       let line text =
         Buffer.add_string b (Fmt.str "     %s  %s\n" pad text)
       in
       List.iter
         (fun e -> line ("! " ^ Trace.to_string e))
         (in_order sp sp.events);
       List.iter
         (fun ((o : I.op), act) ->
            line
              (Fmt.str "op %d %s: est=%a act=%a" o.I.id
                 (Exec.Plan.describe o.I.node)
                 Fmt.(option ~none:(any "?") (fmt "%.1f")) o.I.est_rows
                 Fmt.(option ~none:(any "-") int) act))
         (span_ops sp))
    s;
  Buffer.contents b

let json_array (items : string list) : string =
  "[" ^ String.concat "," items ^ "]"

(* One JSON object per span, line-delimited, emitted in pre-order, with
   the span's events and operators as arrays.  Timestamps are
   microseconds relative to the ROOT span's start, so logs from one query
   are self-contained.  [show_wall:false] drops [start_us]/[dur_us] for
   deterministic goldens. *)
let to_json_lines ?(show_wall = true) (s : t) : string =
  let b = Buffer.create 512 in
  let epoch = s.start_s in
  let jopt f = function Some v -> f v | None -> "null" in
  let micros d = Printf.sprintf "%.0f" (Float.max 0. d *. 1e6) in
  iter
    (fun ~depth sp ->
       let fields =
         [ ("id", string_of_int sp.id); ("parent", string_of_int sp.parent_id);
           ("depth", string_of_int depth); ("name", Trace.jstr sp.name) ]
         @ (if show_wall then
              [ ("start_us", micros (sp.start_s -. epoch));
                ("dur_us", micros sp.dur_s) ]
            else [])
         @ (if sp.attrs = [] then []
            else
              [ ("attrs",
                 Trace.jobj
                   (List.map (fun (k, v) -> (k, Trace.jstr v)) sp.attrs)) ])
         @ (match in_order sp sp.events with
             | [] -> []
             | evs -> [ ("events", json_array (List.map Trace.to_json evs)) ])
         @
         match span_ops sp with
         | [] -> []
         | ops ->
           [ ("ops",
              json_array
                (List.map
                   (fun ((o : I.op), act) ->
                      Trace.jobj
                        [ ("id", string_of_int o.I.id);
                          ("op", Trace.jstr (Exec.Plan.describe o.I.node));
                          ("est_rows", jopt Trace.jfloat o.I.est_rows);
                          ("act_rows", jopt string_of_int act) ])
                   ops)) ]
       in
       Buffer.add_string b (Trace.jobj fields);
       Buffer.add_char b '\n')
    s;
  Buffer.contents b
