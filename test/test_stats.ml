(* Statistics tests: histogram estimation, sampling, distinct-value
   estimators, selectivity and propagation. *)

open Relalg

let uniform_data n = Array.init n (fun i -> float_of_int (i mod 100))

let zipf_data ?(seed = 3) n =
  let st = Workload.Gen.rng seed in
  Array.map float_of_int (Workload.Gen.zipf_array st ~n:100 ~size:n ~skew:1.2)

(* ---------- histograms ---------- *)

let test_equi_depth_uniform () =
  let h = Stats.Histogram.build_equi_depth ~buckets:10 (uniform_data 1000) in
  (* eq selectivity on uniform data with 100 distinct values: ~1/100 *)
  let s = Stats.Histogram.est_eq h 42. in
  Alcotest.(check bool) "eq approx 0.01" true (s > 0.005 && s < 0.02);
  (* range covering ~half *)
  let r = Stats.Histogram.est_range h ~lo:0. ~hi:49. () in
  Alcotest.(check bool) "half range" true (r > 0.4 && r < 0.6);
  (* full range = 1 *)
  Alcotest.(check bool) "full range" true
    (Stats.Histogram.est_range h () > 0.999)

let test_selectivity_bounds () =
  List.iter
    (fun data ->
       List.iter
         (fun h ->
            for v = -10 to 110 do
              let s = Stats.Histogram.est_eq h (float_of_int v) in
              Alcotest.(check bool) "eq in [0,1]" true (s >= 0. && s <= 1.);
              let r =
                Stats.Histogram.est_range h ~lo:(float_of_int (v - 20))
                  ~hi:(float_of_int v) ()
              in
              Alcotest.(check bool) "range in [0,1]" true (r >= 0. && r <= 1.)
            done)
         [ Stats.Histogram.build_equi_width ~buckets:10 data;
           Stats.Histogram.build_equi_depth ~buckets:10 data;
           Stats.Histogram.build_compressed ~buckets:8 ~singletons:4 data ])
    [ uniform_data 500; zipf_data 500 ]

let test_compressed_exact_heavy_hitters () =
  let data = zipf_data 2000 in
  let h = Stats.Histogram.build_compressed ~buckets:8 ~singletons:4 data in
  (* value 1 is the most frequent rank under Zipf: its selectivity must be
     estimated exactly by the singleton bucket *)
  let truth =
    float_of_int (Array.length (Array.of_list (List.filter (fun v -> v = 1.) (Array.to_list data))))
    /. float_of_int (Array.length data)
  in
  let est = Stats.Histogram.est_eq h 1. in
  Alcotest.(check (float 1e-9)) "heavy hitter exact" truth est

let test_equi_depth_beats_width_on_skew () =
  let data = zipf_data 4000 in
  let st = Workload.Gen.rng 99 in
  let err kind =
    Stats.Sample.range_query_error st ~queries:200 data
      (Stats.Sample.build kind ~buckets:20 data)
  in
  let w = err Stats.Sample.Equi_width and d = err Stats.Sample.Equi_depth in
  Alcotest.(check bool)
    (Printf.sprintf "depth (%.4f) <= width (%.4f) on skew" d w)
    true (d <= w +. 0.01)

let test_histogram_join_rows () =
  let a = Stats.Histogram.build_equi_depth ~buckets:10 (uniform_data 1000) in
  let b = Stats.Histogram.build_equi_depth ~buckets:10 (uniform_data 500) in
  (* truth: each of 100 values: 10 x 5 matches = 5000 *)
  let est = Stats.Histogram.join_rows a b in
  Alcotest.(check bool)
    (Printf.sprintf "join rows ~5000, got %.0f" est)
    true (est > 2000. && est < 12000.)

(* The quadratic histogram join the sweep replaced, kept verbatim as the
   reference: for every interval of the merged boundary set, fold over
   every bucket of both histograms. *)
let join_rows_reference (a : Stats.Histogram.t) (b : Stats.Histogram.t) : float =
  let open Stats.Histogram in
  let expand t =
    Array.to_list t.buckets
    @ (Array.to_list t.singletons
       |> List.map (fun (v, c) -> { lo = v; hi = v; count = c; distinct = 1. }))
  in
  let ba = expand a and bb = expand b in
  let bounds =
    List.concat_map (fun bk -> [ bk.lo; bk.hi ]) (ba @ bb)
    |> List.sort_uniq Float.compare
  in
  let rec intervals = function
    | x :: (y :: _ as rest) -> (x, y) :: intervals rest
    | [ x ] -> [ (x, x) ]
    | [] -> []
  in
  let rows_in bs ~lo_v ~hi_v =
    List.fold_left
      (fun acc bk ->
         let olo = Float.max lo_v bk.lo and ohi = Float.min hi_v bk.hi in
         if ohi < olo then acc
         else if bk.hi = bk.lo then acc +. bk.count
         else if ohi = olo then acc +. (bk.count /. Float.max 1. bk.distinct)
         else acc +. (bk.count *. ((ohi -. olo) /. (bk.hi -. bk.lo))))
      0. bs
  in
  let distinct_in bs ~lo_v ~hi_v =
    List.fold_left
      (fun acc bk ->
         let overlap_lo = max lo_v bk.lo and overlap_hi = min hi_v bk.hi in
         if overlap_hi < overlap_lo then acc
         else if bk.hi = bk.lo then acc +. bk.distinct
         else if overlap_hi = overlap_lo then acc +. 1.
         else
           acc +. (bk.distinct *. ((overlap_hi -. overlap_lo) /. (bk.hi -. bk.lo))))
      0. bs
  in
  let ivs = intervals bounds in
  let n = List.length ivs in
  List.fold_left
    (fun (acc, i) (lo_v, hi_v) ->
       let hi_eff =
         if i = n - 1 then hi_v
         else hi_v -. (1e-9 *. (1. +. Float.abs hi_v))
       in
       let r1 = rows_in ba ~lo_v ~hi_v:hi_eff
       and r2 = rows_in bb ~lo_v ~hi_v:hi_eff in
       let d1 = distinct_in ba ~lo_v ~hi_v:hi_eff
       and d2 = distinct_in bb ~lo_v ~hi_v:hi_eff in
       let d = max d1 d2 in
       ((if d > 0. then acc +. (r1 *. r2 /. d) else acc), i + 1))
    (0., 0) ivs
  |> fst

let same_bits a b =
  let ra = join_rows_reference a b and sa = Stats.Histogram.join_rows a b in
  Int64.equal (Int64.bits_of_float ra) (Int64.bits_of_float sa)

(* The histogram of column A.x after [apply_select] with [A.x op v]. *)
let restrict (h : Stats.Histogram.t) op v : Stats.Histogram.t =
  let cs =
    { Stats.Table_stats.n_distinct = 10.; null_frac = 0.; lo = None; hi = None;
      min_v = None; max_v = None; hist = Some h; sketch = None }
  in
  let r =
    Stats.Derive.of_table
      { Stats.Table_stats.table = "A"; rows = Stats.Histogram.total h;
        pages = 1; cols = [ ("x", Lazy.from_val cs) ] }
      ~alias:"A" ~schema:[ Schema.column ~rel:"A" ~name:"x" ~ty:Value.Tfloat ]
  in
  let r' =
    Stats.Derive.apply_select r
      (Expr.Cmp (op, Expr.col ~rel:"A" ~col:"x", Expr.Const (Value.Float v)))
  in
  Option.get
    (snd (List.hd (Stats.Derive.columns r'))).Stats.Table_stats.hist

type hist_spec = {
  kind : int; (* 0 equi-width, 1 equi-depth, 2 compressed *)
  buckets : int;
  data : float list;
  cut : (Expr.cmpop * float) option; (* restriction by apply_select *)
}

let hist_of_spec sp =
  let data = Array.of_list sp.data in
  let h =
    match sp.kind with
    | 0 -> Stats.Histogram.build_equi_width ~buckets:sp.buckets data
    | 1 -> Stats.Histogram.build_equi_depth ~buckets:sp.buckets data
    | _ ->
      Stats.Histogram.build_compressed ~buckets:sp.buckets
        ~singletons:(1 + (sp.buckets / 2)) data
  in
  match sp.cut with None -> h | Some (op, v) -> restrict h op v

(* Values on one grid per pair, so the two histograms overlap. *)
let gen_hist_spec ~scale ~offset =
  let open QCheck.Gen in
  let* kind = int_range 0 2 in
  let* buckets = int_range 1 12 in
  let* data =
    list_size (int_range 0 60)
      (map (fun i -> offset +. (scale *. float_of_int i)) (int_range 0 40))
  in
  let* cut =
    option
      (pair
         (oneofl [ Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge; Expr.Eq ])
         (map (fun i -> offset +. (scale *. (float_of_int i /. 2.))) (int_range (-4) 84)))
  in
  return { kind; buckets; data; cut }

let print_spec sp =
  Printf.sprintf "{kind=%d; buckets=%d; data=[%s]; cut=%s}" sp.kind sp.buckets
    (String.concat "; " (List.map (Printf.sprintf "%h") sp.data))
    (match sp.cut with
     | None -> "none"
     | Some (op, v) -> Printf.sprintf "%s %h" (Expr.cmp_name op) v)

let prop_join_rows_sweep_bitwise =
  QCheck.Test.make ~name:"join_rows sweep = quadratic reference, bit for bit"
    ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> print_spec a ^ " x " ^ print_spec b)
       QCheck.Gen.(
         let* scale = oneofl [ 1.; 0.5; 7.25; 1e-3; 1e6 ] in
         let* offset = oneofl [ 0.; -30.; 1e3 ] in
         pair (gen_hist_spec ~scale ~offset) (gen_hist_spec ~scale ~offset)))
    (fun (sa, sb) ->
       let a = hist_of_spec sa and b = hist_of_spec sb in
       same_bits a b && same_bits b a && same_bits a a)

(* Hand-built histograms over a value pool with both signed zeros and both
   infinities, sorted (the merge path) or left in generation order (the
   sort path, when out of order). *)
let gen_raw_hist =
  let open QCheck.Gen in
  let value =
    oneof
      [ oneofl [ 0.; -0.; infinity; neg_infinity; 2.5; -1e-300 ];
        map float_of_int (int_range (-4) 4) ]
  in
  let bucket =
    let* x = value and* y = value
    and* count = oneofl [ 1.; 3.; 7.5 ] and* distinct = oneofl [ 1.; 2.; 4. ] in
    let lo, hi = if Float.compare x y <= 0 then (x, y) else (y, x) in
    return { Stats.Histogram.lo; hi; count; distinct }
  in
  let* buckets = list_size (int_range 0 4) bucket
  and* singletons =
    list_size (int_range 0 4) (pair value (oneofl [ 1.; 2.; 5. ]))
  and* sorted = bool in
  let buckets, singletons =
    if sorted then
      ( List.sort
          (fun a b -> Float.compare a.Stats.Histogram.lo b.Stats.Histogram.lo)
          buckets,
        List.sort (fun (a, _) (b, _) -> Float.compare a b) singletons )
    else (buckets, singletons)
  in
  let total =
    List.fold_left (fun acc b -> acc +. b.Stats.Histogram.count) 0. buckets
    +. List.fold_left (fun acc (_, c) -> acc +. c) 0. singletons
  in
  return
    { Stats.Histogram.total; buckets = Array.of_list buckets;
      singletons = Array.of_list singletons }

let print_raw_hist (h : Stats.Histogram.t) =
  Printf.sprintf "{buckets=[%s]; singletons=[%s]}"
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun b ->
                Printf.sprintf "[%h,%h] %g/%g" b.Stats.Histogram.lo
                  b.Stats.Histogram.hi b.Stats.Histogram.count
                  b.Stats.Histogram.distinct)
             h.Stats.Histogram.buckets)))
    (String.concat "; "
       (Array.to_list
          (Array.map (fun (v, c) -> Printf.sprintf "%h:%g" v c)
             h.Stats.Histogram.singletons)))

let prop_join_rows_signed_zero_infinite_unsorted =
  QCheck.Test.make
    ~name:"join_rows = sort-based reference on +-0, infinities, unsorted"
    ~count:3000
    (QCheck.make
       ~print:(fun (a, b) -> print_raw_hist a ^ " x " ^ print_raw_hist b)
       QCheck.Gen.(pair gen_raw_hist gen_raw_hist))
    (fun (a, b) -> same_bits a b && same_bits b a && same_bits a a)

let test_join_rows_edge_cases () =
  let open Stats.Histogram in
  let bk lo hi count distinct = { lo; hi; count; distinct } in
  let mk ?(singletons = [||]) buckets =
    let total =
      Array.fold_left (fun a b -> a +. b.count) 0. buckets
      +. Array.fold_left (fun a (_, c) -> a +. c) 0. singletons
    in
    { total; singletons; buckets }
  in
  let range = mk [| bk 0. 10. 50. 10.; bk 11. 20. 30. 5. |] in
  let cases =
    [ ("empty x empty", empty, empty);
      ("empty x range", empty, range);
      ("single bound", mk [| bk 5. 5. 3. 1. |], mk [| bk 5. 5. 7. 1. |]);
      ("single bound x range", mk ~singletons:[| (10., 4.) |] [||], range);
      ("points on range edges",
       mk ~singletons:[| (0., 3.); (10., 2.); (11., 1.); (20., 6.) |] [||],
       range);
      ("singletons inside ranges",
       mk ~singletons:[| (2.5, 9.); (15., 4.) |] [| bk 0. 10. 40. 8.; bk 12. 30. 10. 4. |],
       range);
      ("point bucket on a range edge",
       mk [| bk 10. 10. 5. 1.; bk 11. 11. 2. 1. |], range);
      ("tiny gap below the shrink",
       mk [| bk 1. (1. +. 1e-12) 4. 2. |], mk [| bk 1. 2. 6. 3. |]);
      ("unsorted buckets",
       mk [| bk 11. 20. 30. 5.; bk 0. 10. 50. 10. |], range);
      ("infinite bound", mk [| bk 0. infinity 10. 5. |], range);
      ("negative infinite bound", mk [| bk neg_infinity 3. 10. 5. |], range) ]
  in
  List.iter
    (fun (name, a, b) ->
       Alcotest.(check bool) name true (same_bits a b && same_bits b a))
    cases

(* ---------- sampling ---------- *)

let test_sample_full_fraction () =
  let data = uniform_data 400 in
  let st = Workload.Gen.rng 1 in
  let h = Stats.Sample.sampled_histogram st Stats.Sample.Equi_depth ~buckets:10 ~fraction:1.0 data in
  Alcotest.(check (float 1.)) "total preserved" 400. (Stats.Histogram.total h)

let test_sample_error_decreases () =
  let data = zipf_data 5000 in
  let st = Workload.Gen.rng 5 in
  let err fraction =
    let h =
      Stats.Sample.sampled_histogram st Stats.Sample.Equi_depth ~buckets:20
        ~fraction data
    in
    Stats.Sample.range_query_error st ~queries:300 data h
  in
  let tiny = err 0.005 and big = err 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "err(0.5)=%.4f <= err(0.005)=%.4f + eps" big tiny)
    true (big <= tiny +. 0.02)

(* ---------- distinct values ---------- *)

let test_distinct_exact_on_full () =
  let data = uniform_data 1000 in
  Alcotest.(check int) "exact" 100 (Stats.Distinct.exact data);
  (* full sample: scale-up is exact *)
  let est = Stats.Distinct.scale_up ~population:1000 data in
  Alcotest.(check (float 1e-6)) "scale-up on full sample" 100. est

let test_distinct_estimators_reasonable () =
  let st = Workload.Gen.rng 17 in
  let data = Array.map float_of_int (Workload.Gen.zipf_array st ~n:500 ~size:5000 ~skew:1.0) in
  let truth = float_of_int (Stats.Distinct.exact data) in
  let sample = Stats.Sample.uniform_sample st ~fraction:0.1 data in
  List.iter
    (fun est ->
       let e = Stats.Distinct.estimate est ~population:5000 sample in
       let err = Stats.Distinct.ratio_error ~truth e in
       Alcotest.(check bool)
         (Printf.sprintf "%s ratio error %.2f < 20" (Stats.Distinct.estimator_name est) err)
         true (err < 20.))
    [ Stats.Distinct.Scale_up; Stats.Distinct.Chao; Stats.Distinct.Gee ]

(* The provably-hard pair ([11]): all-distinct data and low-distinct data
   look similar in a small sample.  Scale-up is exact on the former but
   overestimates the latter by an order of magnitude; GEE stays within its
   sqrt(N/n) guarantee on both. *)
let test_distinct_hard_case () =
  let n = 10000 in
  let fraction = 0.01 in
  let bound = sqrt (1. /. fraction) in
  let st = Workload.Gen.rng 23 in
  let all_distinct = Array.init n (fun i -> float_of_int i) in
  let low_distinct = Array.init n (fun i -> float_of_int (i mod 100)) in
  let check name data truth =
    let sample = Stats.Sample.uniform_sample st ~fraction data in
    let su = Stats.Distinct.scale_up ~population:n sample in
    let gee = Stats.Distinct.gee ~population:n sample in
    let gee_err = Stats.Distinct.ratio_error ~truth gee in
    Alcotest.(check bool)
      (Printf.sprintf "%s: GEE err %.1f within sqrt(N/n)=%.0f" name gee_err bound)
      true (gee_err <= bound +. 1.);
    su
  in
  let su_exact = check "all-distinct" all_distinct (float_of_int n) in
  Alcotest.(check (float 1.)) "scale-up exact on all-distinct"
    (float_of_int n) su_exact;
  let su_bad = check "low-distinct" low_distinct 100. in
  Alcotest.(check bool)
    (Printf.sprintf "scale-up overestimates low-distinct: %.0f >> 100" su_bad)
    true (Stats.Distinct.ratio_error ~truth:100. su_bad > 5.)

(* ---------- table stats & derive ---------- *)

let mk_emp_cat () =
  let cat = Storage.Catalog.create () in
  let t =
    Storage.Catalog.create_table cat ~name:"E"
      ~columns:[ ("id", Value.Tint); ("age", Value.Tint); ("name", Value.Tstring) ]
  in
  for i = 0 to 999 do
    Storage.Table.insert t
      (Tuple.of_list
         [ Value.Int i; (if i mod 10 = 0 then Value.Null else Value.Int (20 + (i mod 50)));
           Value.Str "x" ])
  done;
  cat

let test_analyze () =
  let cat = mk_emp_cat () in
  let ts = Stats.Table_stats.analyze (Storage.Catalog.table cat "E") in
  Alcotest.(check (float 0.1)) "rows" 1000. ts.Stats.Table_stats.rows;
  let age = Option.get (Stats.Table_stats.col ts "age") in
  Alcotest.(check (float 0.001)) "null frac" 0.1 age.Stats.Table_stats.null_frac;
  (* ages 20 + (i mod 50), but i ≡ 0 (mod 10) is NULL, which removes the 5
     residues {0,10,20,30,40}: 45 distinct non-null ages remain *)
  Alcotest.(check (float 0.1)) "ndv" 45. age.Stats.Table_stats.n_distinct;
  let id = Option.get (Stats.Table_stats.col ts "id") in
  (* robust bounds: second-lowest and second-highest *)
  Alcotest.(check (option (float 0.01))) "lo" (Some 1.) id.Stats.Table_stats.lo;
  Alcotest.(check (option (float 0.01))) "hi" (Some 998.) id.Stats.Table_stats.hi

(* A view temporary's deferred columns ([analyze_deferred]) equal eager
   [analyze_column] bit for bit, whatever order they are forced in and
   whichever reader forces them; forcing one leaves the others deferred. *)
let test_deferred_columns () =
  let cat = Storage.Catalog.create () in
  let t =
    Storage.Catalog.create_table cat ~name:"T"
      ~columns:
        [ ("i", Value.Tint); ("f", Value.Tfloat); ("s", Value.Tstring);
          ("n", Value.Tint); ("b", Value.Tbool) ]
  in
  for k = 0 to 599 do
    Storage.Table.insert t
      (Tuple.of_list
         [ Value.Int (k * 7 mod 101);
           (if k mod 13 = 0 then Value.Null
            else Value.Float (float_of_int (k mod 37) /. 3.));
           (if k mod 5 = 0 then Value.Null
            else Value.Str (string_of_int (k mod 17)));
           (if k mod 3 = 0 then Value.Null else Value.Int (k mod 9));
           Value.Bool (k mod 2 = 0) ])
  done;
  let names = [ "i"; "f"; "s"; "n"; "b" ] in
  let bits = Option.map Int64.bits_of_float in
  let same name (a : Stats.Table_stats.col_stats)
      (b : Stats.Table_stats.col_stats) =
    let open Stats.Table_stats in
    Alcotest.(check bool) (name ^ ": identical") true
      (Int64.bits_of_float a.n_distinct = Int64.bits_of_float b.n_distinct
       && Int64.bits_of_float a.null_frac = Int64.bits_of_float b.null_frac
       && bits a.lo = bits b.lo && bits a.hi = bits b.hi
       && bits a.min_v = bits b.min_v && bits a.max_v = bits b.max_v
       && compare a.hist b.hist = 0 && a.sketch = None && b.sketch = None)
  in
  let forced (ts : Stats.Table_stats.t) =
    List.filter_map
      (fun (n, c) -> if Lazy.is_val c then Some n else None)
      ts.Stats.Table_stats.cols
  in
  let schema = Schema.requalify t.Storage.Table.schema ~rel:"T" in
  let eager = Stats.Table_stats.analyze t in
  Alcotest.(check (list string)) "eager: all computed" names (forced eager);
  List.iter
    (fun order ->
       let ts = Stats.Table_stats.analyze_deferred t in
       Alcotest.(check (list string)) "deferred: none computed" [] (forced ts);
       Alcotest.(check bool) "row and page counts" true
         (ts.Stats.Table_stats.rows = eager.Stats.Table_stats.rows
          && ts.Stats.Table_stats.pages = eager.Stats.Table_stats.pages);
       let r = Stats.Derive.of_table ts ~alias:"T" ~schema in
       List.iteri
         (fun k name ->
            let want = Stats.Table_stats.analyze_column t name in
            (* alternate the readers: the registry, and the estimator *)
            let got =
              if k mod 2 = 0 then Stats.Table_stats.col ts name
              else Stats.Derive.find_col r { Expr.rel = "T"; col = name }
            in
            same name want (Option.get got);
            same name (Option.get (Stats.Table_stats.col eager name))
              (Option.get got);
            let read = List.filteri (fun j _ -> j <= k) order in
            Alcotest.(check (list string)) "only what was read"
              (List.filter (fun n -> List.mem n read) names)
              (forced ts))
         order)
    [ names; List.rev names; [ "s"; "i"; "b"; "f"; "n" ];
      [ "n"; "f"; "i"; "s"; "b" ] ];
  (* a selection over an unread column keeps it deferred; reading it
     afterwards restricts the same histogram eager statistics would *)
  let pred =
    Expr.Cmp (Expr.Lt, Expr.col ~rel:"T" ~col:"f", Expr.Const (Value.Float 5.))
  in
  let sel ts =
    Stats.Derive.apply_select (Stats.Derive.of_table ts ~alias:"T" ~schema) pred
  in
  let ts = Stats.Table_stats.analyze_deferred t in
  let lazy_sel = sel ts in
  Alcotest.(check (list string)) "selection reads only f" [ "f" ] (forced ts);
  let eager_sel = sel (Stats.Table_stats.analyze t) in
  Alcotest.(check bool) "selection card" true
    (Int64.bits_of_float lazy_sel.Stats.Derive.card
     = Int64.bits_of_float eager_sel.Stats.Derive.card);
  List.iter2
    (fun ((_, n), a) (_, b) -> same ("selected " ^ n) a b)
    (Stats.Derive.columns lazy_sel) (Stats.Derive.columns eager_sel);
  Alcotest.(check (list string)) "columns forces all" names (forced ts)

let test_derive_select () =
  let cat = mk_emp_cat () in
  let db = Stats.Table_stats.analyze_catalog cat in
  let ts = Option.get (Stats.Table_stats.find db "E") in
  let schema = (Storage.Catalog.table cat "E").Storage.Table.schema in
  let r = Stats.Derive.of_table ts ~alias:"E" ~schema in
  let sel_eq =
    Stats.Derive.selectivity r
      (Expr.Cmp (Expr.Eq, Expr.col ~rel:"E" ~col:"age", Expr.int 25))
  in
  (* age=25: 20 rows of 1000 -> 0.02 *)
  Alcotest.(check bool) (Printf.sprintf "eq sel %.4f" sel_eq) true
    (sel_eq > 0.01 && sel_eq < 0.04);
  let r' =
    Stats.Derive.apply_select r
      (Expr.Cmp (Expr.Lt, Expr.col ~rel:"E" ~col:"id", Expr.int 100))
  in
  Alcotest.(check bool)
    (Printf.sprintf "card %.0f ~100" r'.Stats.Derive.card)
    true (r'.Stats.Derive.card > 50. && r'.Stats.Derive.card < 200.)

let test_derive_conjunction_modes () =
  let cat = mk_emp_cat () in
  let db = Stats.Table_stats.analyze_catalog cat in
  let ts = Option.get (Stats.Table_stats.find db "E") in
  let schema = (Storage.Catalog.table cat "E").Storage.Table.schema in
  let r = Stats.Derive.of_table ts ~alias:"E" ~schema in
  let p =
    Expr.And
      (Expr.Cmp (Expr.Lt, Expr.col ~rel:"E" ~col:"id", Expr.int 500),
       Expr.Cmp (Expr.Lt, Expr.col ~rel:"E" ~col:"age", Expr.int 40))
  in
  let indep = Stats.Derive.selectivity r p in
  let most =
    Stats.Derive.selectivity
      ~asm:{ Stats.Derive.conjunction = `Most_selective; use_histograms = true }
      r p
  in
  Alcotest.(check bool) "independence <= most-selective" true (indep <= most +. 1e-9)

let test_derive_join_and_group () =
  let ed = Workload.Schemas.emp_dept ~emps:1000 ~depts:20 () in
  let base alias table =
    let t = Storage.Catalog.table ed.Workload.Schemas.cat table in
    Stats.Derive.of_table
      (Stats.Table_stats.for_table ed.Workload.Schemas.db t)
      ~alias ~schema:(Schema.requalify t.Storage.Table.schema ~rel:alias)
  in
  let s =
    Stats.Derive.join Algebra.Inner (base "E" "Emp") (base "D" "Dept")
      (Expr.Cmp (Expr.Eq, Expr.col ~rel:"E" ~col:"did", Expr.col ~rel:"D" ~col:"did"))
  in
  (* FK join: estimated rows close to Emp rows *)
  Alcotest.(check bool)
    (Printf.sprintf "fk join card %.0f ~1000" s.Stats.Derive.card)
    true (s.Stats.Derive.card > 300. && s.Stats.Derive.card < 3000.);
  let g =
    Stats.Derive.group s
      ~keys:[ (Expr.col ~rel:"E" ~col:"did", "did") ]
      ~aggs:[ (Expr.Count_star, "n") ]
  in
  Alcotest.(check bool) "group card <= ndv(did)" true (g.Stats.Derive.card <= 21.)

let prop_selectivity_in_unit =
  let gen =
    let open QCheck.Gen in
    let leaf =
      let* col = oneofl [ "id"; "age" ] in
      let* op = oneofl [ Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ] in
      let* c = int_range (-100) 1200 in
      return (Expr.Cmp (op, Expr.col ~rel:"E" ~col, Expr.int c))
    in
    let rec go d =
      if d = 0 then leaf
      else
        frequency
          [ (3, leaf);
            (1, map2 (fun a b -> Expr.And (a, b)) (go (d - 1)) (go (d - 1)));
            (1, map2 (fun a b -> Expr.Or (a, b)) (go (d - 1)) (go (d - 1)));
            (1, map (fun a -> Expr.Not a) (go (d - 1))) ]
    in
    go 3
  in
  let cat = mk_emp_cat () in
  let db = Stats.Table_stats.analyze_catalog cat in
  let ts = Option.get (Stats.Table_stats.find db "E") in
  let schema = (Storage.Catalog.table cat "E").Storage.Table.schema in
  let r = Stats.Derive.of_table ts ~alias:"E" ~schema in
  QCheck.Test.make ~name:"selectivity always in [0,1]" ~count:300
    (QCheck.make ~print:Expr.to_string gen)
    (fun p ->
       let s = Stats.Derive.selectivity r p in
       s >= 0. && s <= 1.)


(* ---------- Fast-AGMS sketches ---------- *)

(* The classical AGMS guarantee with the exact second moments:
   |est - J| <= sqrt(8/w) * sqrt(F2(a) * F2(b)) holds with probability
   >= 1 - exp(-d/8).  Data is generated deterministically from the
   QCheck-drawn seed (Workload.Gen.rng), and the depth is raised so a
   bound violation in this test is a code bug, not sketch bad luck. *)

let exact_join_and_f2 (xs : int array) (ys : int array) =
  let freq arr =
    let h = Hashtbl.create 64 in
    Array.iter
      (fun v ->
         Hashtbl.replace h v (1 + Option.value ~default:0 (Hashtbl.find_opt h v)))
      arr;
    h
  in
  let fa = freq xs and fb = freq ys in
  let join = ref 0. and f2a = ref 0. and f2b = ref 0. in
  Hashtbl.iter
    (fun v ca ->
       f2a := !f2a +. (float_of_int ca ** 2.);
       match Hashtbl.find_opt fb v with
       | Some cb -> join := !join +. float_of_int (ca * cb)
       | None -> ())
    fa;
  Hashtbl.iter (fun _ cb -> f2b := !f2b +. (float_of_int cb ** 2.)) fb;
  (!join, !f2a, !f2b)

let sketch_of (arr : int array) =
  let sk = Stats.Sketch.create ~width:512 ~depth:25 () in
  Array.iter (Stats.Sketch.update sk) arr;
  sk

let prop_sketch_join_within_bound =
  QCheck.Test.make ~name:"Fast-AGMS join estimate within (eps, delta) bound"
    ~count:40
    QCheck.(triple small_nat (int_range 0 2000) (int_range 0 2000))
    (fun (seed, na, nb) ->
       let st = Workload.Gen.rng (0x5ee * (seed + 1)) in
       (* one uniform and one Zipfian key column: skew is where sketch
          estimation earns its keep over ndv heuristics *)
       let xs =
         Array.init na (fun _ -> Workload.Gen.uniform_int st ~lo:0 ~hi:200)
       in
       let ys = Workload.Gen.zipf_array st ~n:200 ~size:nb ~skew:1.2 in
       let sa = sketch_of xs and sb = sketch_of ys in
       let j, f2a, f2b = exact_join_and_f2 xs ys in
       let est = Stats.Sketch.join_estimate sa sb in
       let bound = Stats.Sketch.epsilon sa *. sqrt (f2a *. f2b) in
       Stats.Sketch.items sa = na
       && Stats.Sketch.items sb = nb
       && Float.abs (est -. j) <= bound +. 1e-9)

let test_sketch_edges () =
  let a = Stats.Sketch.create () and b = Stats.Sketch.create () in
  (* empty sketches: exact zero, zero bound *)
  Alcotest.(check (float 0.)) "empty join estimate" 0.
    (Stats.Sketch.join_estimate a b);
  Alcotest.(check (float 0.)) "empty error bound" 0.
    (Stats.Sketch.error_bound a b);
  (* one empty side stays exactly zero: its counters are all zero *)
  Array.iter (Stats.Sketch.update a) [| 1; 2; 3; 1 |];
  Alcotest.(check (float 0.)) "empty right side" 0.
    (Stats.Sketch.join_estimate a b);
  (* guarantee parameters *)
  let s = Stats.Sketch.create ~width:512 ~depth:25 () in
  Alcotest.(check (float 1e-9)) "epsilon" (sqrt (8. /. 512.))
    (Stats.Sketch.epsilon s);
  Alcotest.(check (float 1e-9)) "delta" (exp (-25. /. 8.))
    (Stats.Sketch.delta s);
  (* incompatible shapes are rejected, not silently mis-estimated *)
  (match Stats.Sketch.join_estimate a s with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "incompatible sketches accepted")

(* NULL keys never reach a sketch: the columnar feed skips null bits, so
   a column with interleaved NULLs sketches exactly its non-null part. *)
let test_sketch_null_keys_skipped () =
  let rows =
    Array.init 60 (fun i ->
        Tuple.of_list
          [ (if i mod 3 = 0 then Value.Null else Value.Int (i mod 7)) ])
  in
  let store = Exec.Eval.Chunk.store_of_rows ~arity:1 rows in
  let sk = Stats.Sketch.create () in
  Alcotest.(check bool) "int column feeds" true
    (Exec.Eval.Chunk.feed_ints store 0 (Stats.Sketch.update sk));
  let expect = Stats.Sketch.create () in
  Array.iter
    (fun t ->
       match Tuple.get t 0 with
       | Value.Int v -> Stats.Sketch.update expect v
       | _ -> ())
    rows;
  Alcotest.(check int) "nulls skipped" (Stats.Sketch.items expect)
    (Stats.Sketch.items sk);
  Alcotest.(check (float 1e-9)) "same second moment"
    (Stats.Sketch.second_moment expect)
    (Stats.Sketch.second_moment sk)

(* ---------- 2-d histograms ---------- *)

let test_hist2d_independent_matches_1d () =
  let st = Workload.Gen.rng 41 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> float_of_int (Workload.Gen.uniform_int st ~lo:0 ~hi:999)) in
  let ys = Array.init n (fun _ -> float_of_int (Workload.Gen.uniform_int st ~lo:0 ~hi:999)) in
  let h2 = Stats.Histogram2d.build ~buckets:10 xs ys in
  let est = Stats.Histogram2d.est_range h2 ~xhi:100. ~yhi:100. () in
  (* independent uniform: truth ~ 0.1 * 0.1 = 0.01 *)
  Alcotest.(check bool) (Printf.sprintf "independent est %.4f ~ 0.01" est)
    true (est > 0.005 && est < 0.02)

let test_hist2d_captures_correlation () =
  let st = Workload.Gen.rng 42 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> float_of_int (Workload.Gen.uniform_int st ~lo:0 ~hi:999)) in
  let ys = Array.map (fun x -> x +. float_of_int (Workload.Gen.uniform_int st ~lo:(-20) ~hi:20)) xs in
  let h2 = Stats.Histogram2d.build ~buckets:10 xs ys in
  let est = Stats.Histogram2d.est_range h2 ~xhi:100. ~yhi:100. () in
  let truth =
    let c = ref 0 in
    Array.iteri (fun i x -> if x <= 100. && ys.(i) <= 100. then incr c) xs;
    float_of_int !c /. float_of_int n
  in
  (* truth ~ 0.1; the 1-d independence estimate would be ~0.01 *)
  Alcotest.(check bool)
    (Printf.sprintf "correlated est %.4f vs truth %.4f" est truth)
    true (Float.abs (est -. truth) < 0.05 && est > 0.03)

let test_hist2d_bounds () =
  let h2 = Stats.Histogram2d.build ~buckets:5 [| 1.; 2.; 3. |] [| 4.; 5.; 6. |] in
  Alcotest.(check (float 1e-6)) "full range" 1.
    (Stats.Histogram2d.est_range h2 ());
  Alcotest.(check (float 1e-6)) "empty range" 0.
    (Stats.Histogram2d.est_range h2 ~xhi:0. ());
  let e = Stats.Histogram2d.build ~buckets:5 [||] [||] in
  Alcotest.(check (float 1e-6)) "empty data" 0. (Stats.Histogram2d.est_range e ())

let () =
  Alcotest.run "stats"
    [ ("histogram",
       [ Alcotest.test_case "equi-depth uniform" `Quick test_equi_depth_uniform;
         Alcotest.test_case "selectivity bounds" `Quick test_selectivity_bounds;
         Alcotest.test_case "compressed heavy hitters" `Quick test_compressed_exact_heavy_hitters;
         Alcotest.test_case "depth beats width on skew" `Quick test_equi_depth_beats_width_on_skew;
         Alcotest.test_case "histogram join" `Quick test_histogram_join_rows;
         Alcotest.test_case "join sweep edge cases" `Quick test_join_rows_edge_cases;
         QCheck_alcotest.to_alcotest prop_join_rows_sweep_bitwise;
         QCheck_alcotest.to_alcotest
           prop_join_rows_signed_zero_infinite_unsorted ]);
      ("histogram2d",
       [ Alcotest.test_case "independent ~ product" `Quick test_hist2d_independent_matches_1d;
         Alcotest.test_case "captures correlation" `Quick test_hist2d_captures_correlation;
         Alcotest.test_case "bounds" `Quick test_hist2d_bounds ]);
      ("sampling",
       [ Alcotest.test_case "full fraction" `Quick test_sample_full_fraction;
         Alcotest.test_case "error decreases" `Quick test_sample_error_decreases ]);
      ("distinct",
       [ Alcotest.test_case "exact on full data" `Quick test_distinct_exact_on_full;
         Alcotest.test_case "estimators reasonable" `Quick test_distinct_estimators_reasonable;
         Alcotest.test_case "hard case" `Quick test_distinct_hard_case ]);
      ("derive",
       [ Alcotest.test_case "analyze" `Quick test_analyze;
         Alcotest.test_case "deferred columns = eager" `Quick
           test_deferred_columns;
         Alcotest.test_case "selection" `Quick test_derive_select;
         Alcotest.test_case "conjunction modes" `Quick test_derive_conjunction_modes;
         Alcotest.test_case "join and group" `Quick test_derive_join_and_group;
         QCheck_alcotest.to_alcotest prop_selectivity_in_unit ]);
      ("sketch",
       [ QCheck_alcotest.to_alcotest prop_sketch_join_within_bound;
         Alcotest.test_case "edges" `Quick test_sketch_edges;
         Alcotest.test_case "null keys skipped" `Quick
           test_sketch_null_keys_skipped ]) ]
