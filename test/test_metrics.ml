(* Tests for the metrics registry: registration semantics, histogram
   bucket boundaries and quantile estimates, and exact exporter output. *)

let feps = Alcotest.float 1e-9

let test_counter_basics () =
  let reg = Em.Metrics.create () in
  let c = Em.Metrics.counter reg ~help:"test" "widgets_total" in
  Tu.check_int "starts at zero" 0 (Em.Metrics.counter_value c);
  Em.Metrics.incr c;
  Em.Metrics.incr ~by:5 c;
  Tu.check_int "accumulates" 6 (Em.Metrics.counter_value c);
  (match Em.Metrics.incr ~by:(-1) c with
  | () -> Alcotest.fail "negative increment must raise"
  | exception Invalid_argument _ -> ());
  Tu.check_int "unchanged after rejected incr" 6 (Em.Metrics.counter_value c)

let test_find_or_register () =
  let reg = Em.Metrics.create () in
  let a = Em.Metrics.counter reg "hits" in
  let b = Em.Metrics.counter reg "hits" in
  Em.Metrics.incr a;
  Tu.check_int "same (name, labels) is the same metric" 1 (Em.Metrics.counter_value b);
  let l1 = Em.Metrics.counter reg ~labels:[ ("x", "1"); ("y", "2") ] "hits" in
  let l2 = Em.Metrics.counter reg ~labels:[ ("y", "2"); ("x", "1") ] "hits" in
  Em.Metrics.incr l1;
  Tu.check_int "label order does not matter" 1 (Em.Metrics.counter_value l2);
  Tu.check_int "labelled stream is separate" 1 (Em.Metrics.counter_value a);
  (match Em.Metrics.gauge reg "hits" with
  | _ -> Alcotest.fail "kind mismatch must raise"
  | exception Invalid_argument _ -> ());
  match Em.Metrics.counter reg "bad name!" with
  | _ -> Alcotest.fail "invalid metric name must raise"
  | exception Invalid_argument _ -> ()

let test_gauge () =
  let reg = Em.Metrics.create () in
  let g = Em.Metrics.gauge reg "level" in
  Alcotest.check feps "starts at zero" 0. (Em.Metrics.gauge_value g);
  Em.Metrics.set g 4.5;
  Em.Metrics.add g 1.5;
  Alcotest.check feps "set + add" 6. (Em.Metrics.gauge_value g)

let test_histogram_buckets () =
  let reg = Em.Metrics.create () in
  let h = Em.Metrics.histogram reg ~base:2. "latency" in
  (* Bucket 0 is (-inf, 1]; bucket i is (2^(i-1), 2^i]: boundary values
     land in the lower bucket, boundary + epsilon in the next one. *)
  List.iter (Em.Metrics.observe h) [ 0.5; 1.0; 2.0; 2.5; 4.0; 4.1; 100. ];
  Tu.check_int "count" 7 (Em.Metrics.hist_count h);
  Alcotest.check feps "sum" 114.1 (Em.Metrics.hist_sum h);
  let buckets = Em.Metrics.hist_buckets h in
  let cum le =
    match List.assoc_opt le buckets with
    | Some c -> c
    | None -> Alcotest.failf "no bucket with upper boundary %g" le
  in
  Tu.check_int "<= 1 holds 0.5 and 1.0" 2 (cum 1.);
  Tu.check_int "<= 2 adds the 2.0 sample" 3 (cum 2.);
  Tu.check_int "<= 4 adds 2.5 and 4.0" 5 (cum 4.);
  Tu.check_int "<= 8 adds 4.1" 6 (cum 8.);
  Tu.check_int "<= 128 adds 100" 7 (cum 128.);
  match Em.Metrics.histogram reg ~base:1. "bad_base" with
  | _ -> Alcotest.fail "base <= 1 must raise"
  | exception Invalid_argument _ -> ()

let test_quantiles () =
  let reg = Em.Metrics.create () in
  let empty = Em.Metrics.histogram reg "empty" in
  Tu.check_bool "empty histogram -> nan" true
    (Float.is_nan (Em.Metrics.quantile empty 0.5));
  let one = Em.Metrics.histogram reg "one" in
  Em.Metrics.observe one 3.;
  Alcotest.check feps "one sample is exact at any q" 3. (Em.Metrics.quantile one 0.);
  Alcotest.check feps "one sample is exact at median" 3. (Em.Metrics.quantile one 0.5);
  Alcotest.check feps "one sample is exact at max" 3. (Em.Metrics.quantile one 1.);
  let h = Em.Metrics.histogram reg "spread" in
  List.iter (Em.Metrics.observe h) [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. ];
  (* Every sample sits exactly on a bucket boundary, so the rank-based
     estimate is exact here. *)
  Alcotest.check feps "q=0.5 -> 4th of 8 samples" 8. (Em.Metrics.quantile h 0.5);
  Alcotest.check feps "q=1 -> max" 128. (Em.Metrics.quantile h 1.);
  Alcotest.check feps "q=0 -> clamped to min" 1. (Em.Metrics.quantile h 0.);
  let skew = Em.Metrics.histogram reg "skew" in
  List.iter (Em.Metrics.observe skew) [ 5.; 5.; 5.; 1000. ];
  (* 5 lives in the (4, 8] bucket: the estimate is its upper boundary,
     within one bucket factor of the true value. *)
  Alcotest.check feps "median within one bucket factor" 8.
    (Em.Metrics.quantile skew 0.5);
  Alcotest.check feps "tail clamped to observed max" 1000.
    (Em.Metrics.quantile skew 1.);
  match Em.Metrics.quantile h 1.5 with
  | _ -> Alcotest.fail "q outside [0, 1] must raise"
  | exception Invalid_argument _ -> ()

(* Quantiles under a non-default bucket base: coarser buckets shift the
   rank estimate to the wider boundary, but the [min, max] clamp still
   pins the extremes to observed samples. *)
let test_quantile_non_default_base () =
  let reg = Em.Metrics.create () in
  let h = Em.Metrics.histogram reg ~base:10. "coarse" in
  List.iter (Em.Metrics.observe h) [ 2.; 3.; 50.; 700. ];
  (* 2 and 3 share the (1, 10] bucket; 50 is in (10, 100]; 700 in
     (100, 1000].  Rank 2 of 4 lands in the first bucket: estimate is its
     upper boundary. *)
  Alcotest.check feps "median at the coarse bucket boundary" 10.
    (Em.Metrics.quantile h 0.5);
  (* q=0 is the first non-empty bucket's boundary — here above both small
     samples, so the min clamp does not bite. *)
  Alcotest.check feps "q=0 reports the first coarse boundary" 10.
    (Em.Metrics.quantile h 0.);
  Alcotest.check feps "q=1 clamps to observed max" 700. (Em.Metrics.quantile h 1.)

(* Values far beyond any precomputed boundary still bucket, export and
   clamp without overflow. *)
let test_very_large_values () =
  let reg = Em.Metrics.create () in
  let h = Em.Metrics.histogram reg ~base:2. "huge" in
  List.iter (Em.Metrics.observe h) [ 1.; 1e300 ];
  Tu.check_int "both samples counted" 2 (Em.Metrics.hist_count h);
  Alcotest.check feps "max clamps to the huge sample" 1e300
    (Em.Metrics.quantile h 1.);
  Alcotest.check feps "min clamps to the small sample" 1. (Em.Metrics.quantile h 0.);
  let m = Em.Metrics.quantile h 0.5 in
  Tu.check_bool "median is finite" true (Float.is_finite m);
  Tu.check_bool "median is bracketed by the samples" true (m >= 1. && m <= 1e300);
  Tu.check_bool "export stays well-formed" true
    (String.length (Em.Metrics.to_prometheus reg) > 0)

(* Property: for any sample set, quantile 1.0 is exactly the observed
   maximum (the clamp, not a bucket boundary). *)
let prop_quantile_one_is_max =
  let gen =
    let open QCheck2.Gen in
    let* samples = list_size (int_range 1 60) (float_range 0.001 1e6) in
    let* base = float_range 1.1 16. in
    return (samples, base)
  in
  Tu.qcheck_case ~count:200 "quantile 1.0 = observed max" gen (fun (samples, base) ->
      let reg = Em.Metrics.create () in
      let h = Em.Metrics.histogram reg ~base "h" in
      List.iter (Em.Metrics.observe h) samples;
      let max_obs = List.fold_left Float.max neg_infinity samples in
      Em.Metrics.quantile h 1.0 = max_obs)

let test_nan_observe_raises () =
  let reg = Em.Metrics.create () in
  let h = Em.Metrics.histogram reg "h" in
  match Em.Metrics.observe h Float.nan with
  | () -> Alcotest.fail "NaN observation must raise"
  | exception Invalid_argument _ -> ()

let test_prometheus_export () =
  let reg = Em.Metrics.create ~namespace:"t" () in
  (* Register in non-sorted order: export must still be canonical. *)
  let g = Em.Metrics.gauge reg ~help:"A level" "level" in
  Em.Metrics.set g 2.5;
  let c = Em.Metrics.counter reg ~labels:[ ("kind", "b") ] "hits_total" in
  Em.Metrics.incr ~by:3 c;
  (* Help is taken from the first-sorted stream of the name (kind="a"). *)
  let c2 = Em.Metrics.counter reg ~help:"Hits" ~labels:[ ("kind", "a") ] "hits_total" in
  Em.Metrics.incr c2;
  let expected =
    String.concat "\n"
      [
        "# HELP t_hits_total Hits";
        "# TYPE t_hits_total counter";
        "t_hits_total{kind=\"a\"} 1";
        "t_hits_total{kind=\"b\"} 3";
        "# HELP t_level A level";
        "# TYPE t_level gauge";
        "t_level 2.5";
        "";
      ]
  in
  Alcotest.(check string) "canonical prom text" expected (Em.Metrics.to_prometheus reg)

let test_prometheus_histogram_export () =
  let reg = Em.Metrics.create ~namespace:"t" () in
  let h = Em.Metrics.histogram reg ~help:"Sizes" "sz" in
  List.iter (Em.Metrics.observe h) [ 1.; 3. ];
  let expected =
    String.concat "\n"
      [
        "# HELP t_sz Sizes";
        "# TYPE t_sz histogram";
        "t_sz_bucket{le=\"1\"} 1";
        "t_sz_bucket{le=\"2\"} 1";
        "t_sz_bucket{le=\"4\"} 2";
        "t_sz_bucket{le=\"+Inf\"} 2";
        "t_sz_sum 4";
        "t_sz_count 2";
        "";
      ]
  in
  Alcotest.(check string) "histogram prom text" expected (Em.Metrics.to_prometheus reg)

let test_json_export_canonical () =
  let make order =
    let reg = Em.Metrics.create ~namespace:"t" () in
    List.iter
      (fun (name, labels, v) ->
        Em.Metrics.set (Em.Metrics.gauge reg ~labels name) v)
      order;
    Em.Metrics.to_json reg
  in
  let a =
    make [ ("z", [], 1.); ("a", [ ("k", "v") ], 2.); ("a", [ ("k", "u") ], 3.) ]
  in
  let b =
    make [ ("a", [ ("k", "u") ], 3.); ("z", [], 1.); ("a", [ ("k", "v") ], 2.) ]
  in
  Alcotest.(check string) "registration order is invisible" a b;
  Tu.check_bool "single line + trailing newline" true
    (String.length a > 0
    && a.[String.length a - 1] = '\n'
    && not (String.contains (String.sub a 0 (String.length a - 1)) '\n'))

let test_publish_stats () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let profiler = Em.Profile.create () in
  Em.Profile.attach profiler ctx.Em.Ctx.stats;
  let v = Tu.int_vec ctx (Array.init 160 (fun i -> i)) in
  Em.Phase.with_label ctx "copying" (fun () -> ignore (Emalg.Scan.copy v));
  let reg = Em.Metrics.create () in
  Em.Metrics.publish_stats reg ctx.Em.Ctx.stats;
  Em.Profile.publish_phase_ios reg profiler;
  let g name = Em.Metrics.gauge_value (Em.Metrics.gauge reg name) in
  Alcotest.check feps "ios_total matches stats"
    (float_of_int (Em.Stats.ios ctx.Em.Ctx.stats))
    (g "ios_total");
  Alcotest.check feps "phase gauge carries the path label"
    (float_of_int (List.assoc "copying" (Em.Profile.phase_report profiler)))
    (Em.Metrics.gauge_value
       (Em.Metrics.gauge reg ~labels:[ ("path", "copying") ] "phase_ios"))

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "find-or-register semantics" `Quick test_find_or_register;
    Alcotest.test_case "gauge set/add" `Quick test_gauge;
    Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_buckets;
    Alcotest.test_case "quantile estimates" `Quick test_quantiles;
    Alcotest.test_case "quantile non-default base" `Quick test_quantile_non_default_base;
    Alcotest.test_case "very large values" `Quick test_very_large_values;
    prop_quantile_one_is_max;
    Alcotest.test_case "NaN observation raises" `Quick test_nan_observe_raises;
    Alcotest.test_case "prometheus export" `Quick test_prometheus_export;
    Alcotest.test_case "prometheus histogram export" `Quick
      test_prometheus_histogram_export;
    Alcotest.test_case "json export is canonical" `Quick test_json_export_canonical;
    Alcotest.test_case "publish_stats" `Quick test_publish_stats;
  ]
