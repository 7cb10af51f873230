(* E7-E10: statistics experiments — histogram bucketization, sampling,
   distinct-value estimation, propagation assumptions. *)

open Relalg

let datasets ~size =
  let st = Workload.Gen.rng 101 in
  [ ("uniform", Array.init size (fun i -> float_of_int (i mod 200)));
    ("zipf 0.8",
     Array.map float_of_int (Workload.Gen.zipf_array st ~n:200 ~size ~skew:0.8));
    ("zipf 1.5",
     Array.map float_of_int (Workload.Gen.zipf_array st ~n:200 ~size ~skew:1.5)) ]

(* ------------------------------------------------------------------ *)
(* E7: histogram accuracy by bucketization and skew *)

let e7 () =
  Util.header "E7"
    "histogram accuracy: equi-width / equi-depth / compressed ([52], 5.1.1)";
  let st = Workload.Gen.rng 7 in
  let rows_out = ref [] in
  List.iter
    (fun (name, data) ->
       let range_err kind =
         Stats.Sample.range_query_error st ~queries:400 data
           (Stats.Sample.build kind ~buckets:20 data)
       in
       (* point-query error on the most frequent value *)
       let eq_err kind =
         let h = Stats.Sample.build kind ~buckets:20 data in
         let counts = Hashtbl.create 64 in
         Array.iter
           (fun v ->
              Hashtbl.replace counts v
                (1 + Option.value (Hashtbl.find_opt counts v) ~default:0))
           data;
         let heavy, hc =
           Hashtbl.fold
             (fun v c (bv, bc) -> if c > bc then (v, c) else (bv, bc))
             counts (0., 0)
         in
         let truth = float_of_int hc /. float_of_int (Array.length data) in
         Float.abs (Stats.Histogram.est_eq h heavy -. truth) /. truth
       in
       rows_out :=
         [ name;
           Util.f4 (range_err Stats.Sample.Equi_width);
           Util.f4 (range_err Stats.Sample.Equi_depth);
           Util.f4 (range_err Stats.Sample.Compressed);
           Util.f2 (eq_err Stats.Sample.Equi_width);
           Util.f2 (eq_err Stats.Sample.Equi_depth);
           Util.f2 (eq_err Stats.Sample.Compressed) ]
         :: !rows_out)
    (datasets ~size:20000);
  Util.table
    [ "data"; "range err (width)"; "range err (depth)"; "range err (compr)";
      "heavy-eq err (width)"; "(depth)"; "(compr)" ]
    (List.rev !rows_out);
  print_endline
    "  (range err = mean |est - actual| selectivity over random ranges;\n\
    \   heavy-eq err = relative error on the most frequent value)"

(* ------------------------------------------------------------------ *)
(* E8: histogram from a sample — error vs sample fraction ([48,11]) *)

let e8 () =
  Util.header "E8" "sampled histograms: accuracy vs sample fraction (5.1.2)";
  let st = Workload.Gen.rng 8 in
  let data =
    Array.map float_of_int (Workload.Gen.zipf_array st ~n:500 ~size:50000 ~skew:1.0)
  in
  let rows_out = ref [] in
  List.iter
    (fun fraction ->
       let h =
         Stats.Sample.sampled_histogram st Stats.Sample.Equi_depth ~buckets:20
           ~fraction data
       in
       let err = Stats.Sample.range_query_error st ~queries:400 data h in
       rows_out :=
         [ Printf.sprintf "%.3f" fraction;
           Util.istr (int_of_float (fraction *. 50000.));
           Util.f4 err ]
         :: !rows_out)
    [ 0.001; 0.005; 0.02; 0.1; 0.5; 1.0 ];
  Util.table [ "fraction"; "sample rows"; "mean range error" ]
    (List.rev !rows_out)

(* ------------------------------------------------------------------ *)
(* E9: distinct-value estimation is provably error-prone ([27,11]) *)

let e9 () =
  Util.header "E9" "distinct-value estimation from a 1% sample (5.1.2)";
  let n = 50000 in
  let st = Workload.Gen.rng 9 in
  let cases =
    [ ("all distinct", Array.init n (fun i -> float_of_int i));
      ("100 values", Array.init n (fun i -> float_of_int (i mod 100)));
      ("zipf 1.0",
       Array.map float_of_int (Workload.Gen.zipf_array st ~n:5000 ~size:n ~skew:1.0));
      ("mixed",
       Array.init n (fun i ->
           if i mod 2 = 0 then float_of_int i else float_of_int (i mod 50))) ]
  in
  let rows_out = ref [] in
  List.iter
    (fun (name, data) ->
       let truth = float_of_int (Stats.Distinct.exact data) in
       let sample = Stats.Sample.uniform_sample st ~fraction:0.01 data in
       let err est =
         Stats.Distinct.ratio_error ~truth
           (Stats.Distinct.estimate est ~population:n sample)
       in
       rows_out :=
         [ name; Printf.sprintf "%.0f" truth;
           Util.f2 (err Stats.Distinct.Scale_up);
           Util.f2 (err Stats.Distinct.Chao);
           Util.f2 (err Stats.Distinct.Gee) ]
         :: !rows_out)
    cases;
  Util.table
    [ "data"; "true distinct"; "scale-up err"; "Chao err"; "GEE err" ]
    (List.rev !rows_out);
  Printf.printf
    "  (ratio error = max(est/true, true/est); GEE's guarantee here is\n\
    \   sqrt(N/n) = %.0f — no estimator is accurate on every input)\n"
    (sqrt 100.)

(* ------------------------------------------------------------------ *)
(* E10: propagation and the independence assumption (5.1.3) *)

let e10 () =
  Util.header "E10"
    "selectivity under independence vs correlated columns (5.1.3)";
  let n = 20000 in
  let st = Workload.Gen.rng 10 in
  let cat = Storage.Catalog.create () in
  let t =
    Storage.Catalog.create_table cat ~name:"T"
      ~columns:[ ("x", Value.Tint); ("y_ind", Value.Tint); ("y_cor", Value.Tint) ]
  in
  for _ = 1 to n do
    let x = Workload.Gen.uniform_int st ~lo:0 ~hi:999 in
    Storage.Table.insert t
      (Tuple.of_list
         [ Value.Int x;
           Value.Int (Workload.Gen.uniform_int st ~lo:0 ~hi:999);
           Value.Int (x + Workload.Gen.uniform_int st ~lo:(-20) ~hi:20) ])
  done;
  let db = Stats.Table_stats.analyze_catalog cat in
  let ts = Option.get (Stats.Table_stats.find db "T") in
  let r =
    Stats.Derive.of_table ts ~alias:"T" ~schema:t.Storage.Table.schema
  in
  let pred ycol cut =
    Expr.And
      (Expr.Cmp (Expr.Lt, Util.col "T" "x", Expr.int cut),
       Expr.Cmp (Expr.Lt, Util.col "T" ycol, Expr.int cut))
  in
  (* the paper's remedy: a 2-d histogram on the joint distribution *)
  let joint ycol =
    let xs = Storage.Vec.create () and ys = Storage.Vec.create () in
    Storage.Table.iter
      (fun tu ->
         match Tuple.get tu 0, Tuple.get tu (if ycol = "y_ind" then 1 else 2) with
         | Value.Int x, Value.Int y ->
           Storage.Vec.push xs (float_of_int x);
           Storage.Vec.push ys (float_of_int y)
         | _ -> ())
      t;
    Stats.Histogram2d.build ~buckets:20 (Storage.Vec.to_array xs)
      (Storage.Vec.to_array ys)
  in
  let h2_ind = joint "y_ind" and h2_cor = joint "y_cor" in
  let actual ycol cut =
    let c = ref 0 in
    Storage.Table.iter
      (fun tu ->
         match Tuple.get tu 0, Tuple.get tu (if ycol = "y_ind" then 1 else 2) with
         | Value.Int x, Value.Int y -> if x < cut && y < cut then incr c
         | _ -> ())
      t;
    float_of_int !c /. float_of_int n
  in
  let rows_out = ref [] in
  List.iter
    (fun cut ->
       List.iter
         (fun ycol ->
            let indep = Stats.Derive.selectivity r (pred ycol cut) in
            let most =
              Stats.Derive.selectivity
                ~asm:{ Stats.Derive.conjunction = `Most_selective;
                       use_histograms = true }
                r (pred ycol cut)
            in
            let truth = actual ycol cut in
            let h2 = if ycol = "y_ind" then h2_ind else h2_cor in
            let joint_est =
              Stats.Histogram2d.est_range h2 ~xhi:(float_of_int (cut - 1))
                ~yhi:(float_of_int (cut - 1)) ()
            in
            rows_out :=
              [ (if ycol = "y_ind" then "independent" else "correlated");
                Util.istr cut; Util.f4 truth; Util.f4 indep; Util.f4 most;
                Util.f4 joint_est;
                Util.f2 (if truth > 0. then indep /. truth else nan);
                Util.f2 (if truth > 0. then joint_est /. truth else nan) ]
              :: !rows_out)
         [ "y_ind"; "y_cor" ])
    [ 100; 500 ];
  Util.table
    [ "columns"; "cut"; "actual sel"; "independence"; "most-selective";
      "2-d histogram"; "indep/actual"; "2d/actual" ]
    (List.rev !rows_out);
  print_endline
    "  (independence is accurate for independent columns and off by the\n\
    \   inverse selectivity for perfectly correlated ones — the paper's\n\
    \   'key source of error'; the 2-d histogram of [45,51] captures the\n\
    \   joint distribution and fixes both)"

let all () = e7 (); e8 (); e9 (); e10 ()
