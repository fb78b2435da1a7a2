(* API-surface tests: direct coverage for public functions that the larger
   suites only exercise indirectly. *)

let test_scan_prefix () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let v = Tu.int_vec ctx (Array.init 100 (fun i -> i)) in
  let p = Emalg.Scan.prefix v 37 in
  Tu.check_int_array "first 37" (Array.init 37 (fun i -> i)) (Em.Vec.Oracle.to_array p);
  let all = Emalg.Scan.prefix v 1_000 in
  Tu.check_int "clamped to length" 100 (Em.Vec.length all);
  let none = Emalg.Scan.prefix v 0 in
  Tu.check_int "empty prefix" 0 (Em.Vec.length none);
  Alcotest.check_raises "negative" (Invalid_argument "Scan.prefix: negative count")
    (fun () -> ignore (Emalg.Scan.prefix v (-1)))

let test_scan_count () =
  let ctx = Tu.ctx () in
  let v = Tu.int_vec ctx (Array.init 50 (fun i -> i)) in
  Tu.check_int "evens" 25 (Emalg.Scan.count (fun x -> x mod 2 = 0) v);
  Tu.check_int "none" 0 (Emalg.Scan.count (fun x -> x > 100) v)

let test_merge_many_runs () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let nruns = 20 in
  let runs =
    List.init nruns (fun r -> Tu.int_vec ctx (Array.init 50 (fun i -> (i * nruns) + r)))
  in
  let merged = Emalg.Merge.merge Tu.icmp runs in
  Tu.check_int_array "perfect interleave" (Array.init (50 * nruns) (fun i -> i))
    (Em.Vec.Oracle.to_array merged)

let test_merge_with_empty_runs () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let runs =
    [ Tu.int_vec ctx [| 1; 5 |]; Tu.int_vec ctx [||]; Tu.int_vec ctx [| 2; 3 |] ]
  in
  Tu.check_int_array "empties skipped" [| 1; 2; 3; 5 |]
    (Em.Vec.Oracle.to_array (Emalg.Merge.merge Tu.icmp runs))

let test_run_formation_shapes () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let n = 1_000 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:1 n) in
  let runs = Emalg.External_sort.run_formation Tu.icmp v in
  let load = 256 - 32 in
  Tu.check_int "run count" ((n + load - 1) / load) (List.length runs);
  List.iter
    (fun r ->
      Tu.check_bool "each run sorted" true
        (Emalg.Mem_sort.is_sorted Tu.icmp (Em.Vec.Oracle.to_array r)))
    runs;
  let merged = Emalg.External_sort.merge_passes Tu.icmp runs in
  Tu.check_int "merge_passes keeps everything" n (Em.Vec.length merged)

let test_vec_of_blocks_validation () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let v = Tu.int_vec ctx (Array.init 40 (fun i -> i)) in
  let ids = Em.Vec.block_ids v in
  let rebuilt = Em.Vec.of_blocks ctx ids 40 in
  Tu.check_int_array "rebuilt" (Em.Vec.Oracle.to_array v) (Em.Vec.Oracle.to_array rebuilt);
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Vec.of_blocks: block count does not match length")
    (fun () -> ignore (Em.Vec.of_blocks ctx ids 100))

let test_writer_push_array () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let v =
    Em.Writer.with_writer ctx (fun w ->
        Em.Writer.push_array w [| 1; 2 |];
        Em.Writer.push_array w [||];
        Em.Writer.push_array w [| 3 |])
  in
  Tu.check_int_array "concatenated" [| 1; 2; 3 |] (Em.Vec.Oracle.to_array v)

let test_pretty_printers () =
  let p = Em.Params.with_disks (Tu.params ~mem:64 ~block:8 ()) 1 in
  Alcotest.(check string) "params" "{ M = 64; B = 8 }" (Format.asprintf "%a" Em.Params.pp p);
  Alcotest.(check string) "params (multi-disk)" "{ M = 64; B = 8; D = 4 }"
    (Format.asprintf "%a" Em.Params.pp (Em.Params.with_disks p 4));
  let s = Em.Stats.create () in
  s.Em.Stats.reads <- 3;
  s.Em.Stats.writes <- 2;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Tu.check_bool "stats pp mentions ios" true
    (contains (Format.asprintf "%a" Em.Stats.pp s) "ios = 5");
  Alcotest.(check string) "variant" "two-sided"
    (Format.asprintf "%a" Core.Problem.pp_variant Core.Problem.Two_sided);
  Alcotest.(check string) "spec" "{ n = 10; k = 2; a = 1; b = 9 }"
    (Format.asprintf "%a" Core.Problem.pp_spec { Core.Problem.n = 10; k = 2; a = 1; b = 9 })

let test_workload_names () =
  Alcotest.(check string) "pi-hard" "pi-hard" (Core.Workload.kind_name Core.Workload.Pi_hard);
  Alcotest.(check string) "zipf" "zipf-1.5" (Core.Workload.kind_name (Core.Workload.Zipf 1.5));
  Alcotest.(check string) "few" "few-distinct-3"
    (Core.Workload.kind_name (Core.Workload.Few_distinct 3))

let test_bounds_guards () =
  let p = Tu.params ~mem:4096 ~block:64 () in
  (* lg floors at 1 even for tiny arguments; scan/sort sane at n = 0. *)
  Alcotest.(check (float 1e-9)) "scan 0" 0. (Core.Bounds.scan p ~n:0);
  Tu.check_bool "sort 0 finite" true (Float.is_finite (Core.Bounds.sort p ~n:0))

let test_exact_quantiles_guards () =
  let ctx = Tu.ctx () in
  let v = Tu.int_vec ctx [| 1; 2; 3 |] in
  Alcotest.check_raises "k 0"
    (Invalid_argument "Splitters.exact_quantiles: k must be >= 1")
    (fun () -> ignore (Core.Splitters.exact_quantiles Tu.icmp v ~k:0));
  Alcotest.check_raises "k > n"
    (Invalid_argument "Splitters.exact_quantiles: k exceeds the input length")
    (fun () -> ignore (Core.Splitters.exact_quantiles Tu.icmp v ~k:4))

let suite =
  [
    Alcotest.test_case "scan: prefix" `Quick test_scan_prefix;
    Alcotest.test_case "scan: count" `Quick test_scan_count;
    Alcotest.test_case "merge: 20 runs" `Quick test_merge_many_runs;
    Alcotest.test_case "merge: empty runs" `Quick test_merge_with_empty_runs;
    Alcotest.test_case "external_sort: run formation" `Quick test_run_formation_shapes;
    Alcotest.test_case "vec: of_blocks" `Quick test_vec_of_blocks_validation;
    Alcotest.test_case "writer: push_array" `Quick test_writer_push_array;
    Alcotest.test_case "pretty printers" `Quick test_pretty_printers;
    Alcotest.test_case "workload names" `Quick test_workload_names;
    Alcotest.test_case "bounds guards" `Quick test_bounds_guards;
    Alcotest.test_case "exact quantiles guards" `Quick test_exact_quantiles_guards;
  ]
