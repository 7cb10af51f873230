(* Structured query log: one JSON object per executed query, appended
   as NDJSON.  Each record fingerprints the query and chosen plan,
   carries per-stage latencies from the span tree, and closes the
   estimation loop with est/act row counts and feedback-cache traffic —
   enough to find regressions ("same query digest, new plan digest,
   slower") by grepping the log.  Everything but the run's settings is
   read from the query's span tree. *)

module I = Exec.Instrument

type t = {
  ts_us : int;  (** wall-clock Unix epoch, microseconds, at log time *)
  query_digest : string;  (** {!Trace.digest} of the bound query text *)
  plan_digest : string;  (** digest of the chosen physical plan *)
  estimator : string;
  engine : string;
  dop : int;
  rows : int;  (** result rows returned *)
  total_us : float;
  stages : (string * float) list;  (** stage name, duration in µs *)
  est_rows : float option;
  act_rows : float option;
  max_qerror : float option;
  feedback_hits : int;
  feedback_misses : int;
}

let jstr = Trace.jstr
let jfloat = Trace.jfloat
let jopt = function None -> "null" | Some v -> jfloat v

let to_json (r : t) : string =
  Trace.jobj
    [ ("ts_us", string_of_int r.ts_us);
      ("query_digest", jstr r.query_digest);
      ("plan_digest", jstr r.plan_digest);
      ("estimator", jstr r.estimator);
      ("engine", jstr r.engine);
      ("dop", string_of_int r.dop);
      ("rows", string_of_int r.rows);
      ("total_us", jfloat r.total_us);
      ("stages", Trace.jobj (List.map (fun (k, v) -> (k, jfloat v)) r.stages));
      ("est_rows", jopt r.est_rows);
      ("act_rows", jopt r.act_rows);
      ("max_qerror", jopt r.max_qerror);
      ("feedback_hits", string_of_int r.feedback_hits);
      ("feedback_misses", string_of_int r.feedback_misses) ]

let num = function Json.Num f -> Some f | _ -> None
let str = function Json.Str s -> Some s | _ -> None

let get conv k v =
  match Json.member k v with Some x -> conv x | None -> None

let get_num_opt k v =
  (* absent and [null] both mean "not recorded" *)
  match Json.member k v with Some (Json.Num f) -> Some f | _ -> None

let of_json (line : string) : (t, string) result =
  match Json.parse line with
  | Error e -> Error e
  | Ok v -> (
    let ( let* ) o f =
      match o with Some x -> f x | None -> Error "qlog: missing field"
    in
    let* ts_us = get num "ts_us" v in
    let* query_digest = get str "query_digest" v in
    let* plan_digest = get str "plan_digest" v in
    let* estimator = get str "estimator" v in
    let* engine = get str "engine" v in
    let* dop = get num "dop" v in
    let* rows = get num "rows" v in
    let* total_us = get num "total_us" v in
    let* feedback_hits = get num "feedback_hits" v in
    let* feedback_misses = get num "feedback_misses" v in
    let stages =
      match Json.member "stages" v with
      | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (k, x) -> match x with Json.Num f -> Some (k, f) | _ -> None)
          kvs
      | _ -> []
    in
    Ok
      {
        ts_us = int_of_float ts_us;
        query_digest;
        plan_digest;
        estimator;
        engine;
        dop = int_of_float dop;
        rows = int_of_float rows;
        total_us;
        stages;
        est_rows = get_num_opt "est_rows" v;
        act_rows = get_num_opt "act_rows" v;
        max_qerror = get_num_opt "max_qerror" v;
        feedback_hits = int_of_float feedback_hits;
        feedback_misses = int_of_float feedback_misses;
      })

(* Digests are timed into the digest_seconds histogram.  The plan digest
   covers each planned block's plan (the root of its execute span's
   recorder); root est/act rows are the first block's, and the worst
   q-error is over every block. *)
let of_span ~query ~estimator ~engine ~dop ~rows ?feedback (root : Span.t) : t
    =
  let recorders = Span.recorders root in
  let roots = List.filter_map (fun r -> List.nth_opt (I.ops r) 0) recorders in
  let td = Clock.now () in
  let query_digest = Trace.digest (String.trim query) in
  let plan_digest =
    Trace.digest
      (String.concat ";"
         (List.map
            (fun (o : I.op) -> Fmt.str "%a" Exec.Plan.pp o.I.node)
            roots))
  in
  Metrics.observe_hist Metrics.digest_seconds (Clock.elapsed_s td);
  let stages =
    List.filter_map
      (fun n ->
         let d = Span.dur_by_name root n in
         if d > 0. then Some (n, d *. 1e6) else None)
      [ "parse"; "bind"; "rewrite"; "optimize"; "verify"; "execute" ]
  in
  let est_rows, act_rows =
    match roots with
    | (o : I.op) :: _ ->
      ( o.I.est_rows,
        if o.I.executed then Some (float_of_int o.I.act_rows) else None )
    | [] -> (None, None)
  in
  let max_qerror =
    List.fold_left
      (fun acc r ->
         match Analyze.max_q_error r with
         | Some (q, _) when Float.is_finite q ->
           Some (match acc with Some a -> Float.max a q | None -> q)
         | _ -> acc)
      None recorders
  in
  let feedback_hits, feedback_misses =
    match feedback with
    | Some fb -> (Stats.Feedback.hits fb, Stats.Feedback.misses fb)
    | None -> (0, 0)
  in
  { ts_us = int_of_float (Unix.gettimeofday () *. 1e6);
    query_digest; plan_digest; estimator; engine; dop = max 1 dop; rows;
    total_us = Span.dur_by_name root "block" *. 1e6; stages; est_rows;
    act_rows; max_qerror; feedback_hits; feedback_misses }

let append ~(path : string) (r : t) : unit =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (to_json r);
  output_char oc '\n';
  close_out oc
