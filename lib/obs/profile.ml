(* Chrome trace-event export: the query's span tree plus the morsel
   engine's per-worker task timelines as one JSON object loadable in
   Perfetto / chrome://tracing.

   Layout: a single process (pid 1); thread 0 carries the pipeline span
   tree (parse -> ... -> execute, nested) and each span's optimizer
   events, and thread [w + 1] carries the interval of every parallel
   task domain [w] executed — so at dop > 1 the trace shows the actual
   morsel schedule next to the stage spans, on a shared monotonic time
   axis.  The task timelines come from the [execute] spans' operator
   recorders.

   Spans and tasks are complete events (ph "X", ts/dur in microseconds
   relative to the root span's start); optimizer events are
   thread-scoped instant events (ph "i") at their span's start, since
   events carry no timestamp of their own; thread names are metadata
   events (ph "M"). *)

module I = Exec.Instrument

let jstr = Trace.jstr

(* One trace event: the common fields, then [rest]. *)
let event ~ph ~tid ~name rest =
  Trace.jobj
    ([ ("name", jstr name); ("ph", jstr ph); ("pid", "1");
       ("tid", string_of_int tid) ]
     @ rest)

let thread_name tid name =
  event ~ph:"M" ~tid ~name:"thread_name"
    [ ("args", Trace.jobj [ ("name", jstr name) ]) ]

let render (root : Span.t) : string =
  let us t =
    Printf.sprintf "%.1f" (Float.max 0. (t -. root.Span.start_s) *. 1e6)
  in
  let dur d = Printf.sprintf "%.1f" (Float.max 0. d *. 1e6) in
  let events = ref [] in
  let add e = events := e :: !events in
  Span.iter
    (fun ~depth:_ (s : Span.t) ->
       add
         (event ~ph:"X" ~tid:0 ~name:s.Span.name
            [ ("ts", us s.Span.start_s); ("dur", dur s.Span.dur_s);
              ("args",
               Trace.jobj
                 (List.map (fun (k, v) -> (k, jstr v)) s.Span.attrs)) ]);
       List.iter
         (fun e ->
            add
              (event ~ph:"i" ~tid:0 ~name:(Trace.to_string e)
                 [ ("ts", us s.Span.start_s); ("s", jstr "t");
                   ("args", Trace.jobj [ ("event", Trace.to_json e) ]) ]))
         s.Span.events)
    root;
  let workers = ref [] in
  List.iteri
    (fun i r ->
       List.iter
         (fun (t : I.task) ->
            workers := t.I.t_worker :: !workers;
            add
              (event ~ph:"X" ~tid:(t.I.t_worker + 1) ~name:t.I.t_name
                 [ ("ts", us t.I.t_start);
                   ("dur", dur (t.I.t_end -. t.I.t_start));
                   ("args",
                    Trace.jobj
                      [ ("op", string_of_int t.I.t_op);
                        ("block", jstr (Printf.sprintf "block %d" (i + 1))) ])
                 ]))
         (I.timeline r))
    (Span.recorders root);
  let threads =
    thread_name 0 "pipeline"
    :: List.map
         (fun w -> thread_name (w + 1) (Printf.sprintf "worker %d" w))
         (List.sort_uniq compare !workers)
  in
  "{\"traceEvents\":[\n  "
  ^ String.concat ",\n  " (threads @ List.rev !events)
  ^ "\n],\"displayTimeUnit\":\"ms\"}\n"

let write_file (root : Span.t) (path : string) : unit =
  let oc = open_out path in
  output_string oc (render root);
  close_out oc
