(* Tests for the quantile substrate: exact quantiles, memory splitters
   (the Hu-et-al stand-in) and equi-depth histograms. *)

let test_exact_quantiles_splitters () =
  let a = Tu.random_perm ~seed:1 100 in
  let before = Array.copy a in
  let s = Quantile.Exact_quantiles.splitters Tu.icmp a ~k:5 in
  Tu.check_int_array "quintiles" [| 19; 39; 59; 79 |] s;
  Tu.check_int_array "input unchanged" before a

let test_exact_quantiles_rank () =
  let sorted = [| 1; 3; 3; 5; 9 |] in
  Tu.check_int "rank 0" 0 (Quantile.Exact_quantiles.rank Tu.icmp sorted 0);
  Tu.check_int "rank 3" 3 (Quantile.Exact_quantiles.rank Tu.icmp sorted 3);
  Tu.check_int "rank 9" 5 (Quantile.Exact_quantiles.rank Tu.icmp sorted 9);
  Tu.check_int "rank 100" 5 (Quantile.Exact_quantiles.rank Tu.icmp sorted 100)

let test_phi_quantile () =
  let a = Tu.random_perm ~seed:2 100 in
  Tu.check_int "median" 49 (Quantile.Exact_quantiles.phi_quantile Tu.icmp a ~phi:0.5);
  Tu.check_int "p99" 98 (Quantile.Exact_quantiles.phi_quantile Tu.icmp a ~phi:0.99);
  Tu.check_int "max" 99 (Quantile.Exact_quantiles.phi_quantile Tu.icmp a ~phi:1.0)

(* Check the exact-spacing contract of Mem_splitters on a concrete input. *)
let check_spacing_contract ~name a spacing splitters =
  let s = Tu.sorted_copy a in
  let n = Array.length s in
  let expected = max 0 (((n + spacing - 1) / spacing) - 1) in
  Tu.check_int (name ^ ": splitter count") expected (Array.length splitters);
  Array.iteri
    (fun i sp ->
      (* splitter i must have rank (i+1) * spacing: with duplicates, any
         element whose <=-count equals the target rank qualifies. *)
      let rank =
        let r = ref 0 in
        Array.iter (fun e -> if e <= sp then incr r) s;
        !r
      in
      let target = (i + 1) * spacing in
      Tu.check_bool
        (Printf.sprintf "%s: splitter %d rank %d covers target %d" name i rank target)
        true
        (rank >= target && rank - spacing < target))
    splitters

let test_mem_splitters_in_memory_case () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let a = Tu.random_perm ~seed:3 100 in
  let v = Tu.int_vec ctx a in
  let s = Quantile.Mem_splitters.find Tu.icmp v ~spacing:10 in
  Tu.check_int_array "deciles" [| 9; 19; 29; 39; 49; 59; 69; 79; 89 |] s

let test_mem_splitters_external () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let n = 5_000 in
  let a = Tu.random_perm ~seed:4 n in
  let v = Tu.int_vec ctx a in
  let spacing = 137 in
  let s = Quantile.Mem_splitters.find Tu.icmp v ~spacing in
  check_spacing_contract ~name:"external" a spacing s;
  (* Exact ranks on a permutation of 0..n-1 mean splitter i = rank - 1. *)
  Array.iteri
    (fun i sp -> Tu.check_int "exact rank element" (((i + 1) * spacing) - 1) sp)
    s;
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

let test_mem_splitters_duplicates () =
  (* With duplicate keys the library breaks ties by input position, so the
     splitter value is the value found at the target sorted position. *)
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let n = 3_000 in
  let a = Tu.random_ints ~seed:5 ~bound:7 n in
  let v = Tu.int_vec ctx a in
  let spacing = 100 in
  let s = Quantile.Mem_splitters.find Tu.icmp v ~spacing in
  let values = Tu.sorted_copy a in
  Tu.check_int "count" (((n + spacing - 1) / spacing) - 1) (Array.length s);
  Array.iteri
    (fun i sp ->
      Tu.check_int (Printf.sprintf "splitter %d positional value" i)
        values.(((i + 1) * spacing) - 1)
        sp)
    s

let test_mem_splitters_sorted_input () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let n = 4_000 in
  let a = Array.init n (fun i -> i) in
  let v = Tu.int_vec ctx a in
  let s = Quantile.Mem_splitters.find Tu.icmp v ~spacing:333 in
  check_spacing_contract ~name:"sorted" a 333 s

let test_mem_splitters_linear_io () =
  let ctx = Tu.ctx ~mem:2048 ~block:32 () in
  let n = 65_536 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:6 n) in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  let splitters, spacing = Quantile.Mem_splitters.memory_splitters Tu.icmp v in
  let ios = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
  let nb = n / 32 in
  Tu.check_bool "Θ(M) buckets" true
    (Array.length splitters + 1 <= 2048 && Array.length splitters >= 2048 / 16);
  Tu.check_int "spacing matches contract" (((8 * n) + 2047) / 2048) spacing;
  (* tag pass (2 N/B) + sample recursion (~1.3 N/B) + distribute (2 N/B) +
     leaf loads (N/B): comfortably under 10 N/B. *)
  Tu.check_bool (Printf.sprintf "linear I/O: %d vs %d blocks" ios nb) true
    (ios <= 10 * nb);
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

let test_mem_splitters_spacing_guards () =
  let ctx = Tu.ctx () in
  let v = Tu.int_vec ctx [| 1; 2; 3 |] in
  Alcotest.check_raises "spacing 0"
    (Invalid_argument "Mem_splitters.find: spacing must be >= 1")
    (fun () -> ignore (Quantile.Mem_splitters.find Tu.icmp v ~spacing:0));
  Tu.check_int_array "spacing >= n gives none" [||]
    (Quantile.Mem_splitters.find Tu.icmp v ~spacing:3 |> Array.map (fun x -> x));
  Tu.check_int_array "empty vec" [||]
    (Quantile.Mem_splitters.find Tu.icmp (Tu.int_vec ctx [||]) ~spacing:5)

let test_histogram_build_and_query () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let n = 1_000 in
  let a = Tu.random_perm ~seed:7 n in
  let v = Tu.int_vec ctx a in
  let h = Quantile.Histogram.build Tu.icmp v ~buckets:10 in
  Tu.check_int "bucket count" 10 (Quantile.Histogram.bucket_count h);
  Tu.check_int "depth" 100 h.Quantile.Histogram.depth;
  Tu.check_int "bucket of 0" 0 (Quantile.Histogram.bucket_of Tu.icmp h 0);
  Tu.check_int "bucket of 99" 0 (Quantile.Histogram.bucket_of Tu.icmp h 99);
  Tu.check_int "bucket of 100" 1 (Quantile.Histogram.bucket_of Tu.icmp h 100);
  Tu.check_int "bucket of 999" 9 (Quantile.Histogram.bucket_of Tu.icmp h 999);
  let sel = Quantile.Histogram.selectivity Tu.icmp h ~lo:99 ~hi:500 in
  Tu.check_bool "selectivity near 0.4" true (abs_float (sel -. 0.4) < 0.12)

let test_histogram_uneven_total () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let n = 1_037 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:8 n) in
  let h = Quantile.Histogram.build Tu.icmp v ~buckets:10 in
  let k = Quantile.Histogram.bucket_count h in
  let total = ref 0 in
  for i = 0 to k - 1 do
    total := !total + Quantile.Histogram.depth_of_bucket h i
  done;
  Tu.check_int "depths sum to n" n !total

let test_histogram_quantile () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let n = 1_000 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:9 n) in
  let h = Quantile.Histogram.build Tu.icmp v ~buckets:10 in
  Tu.check_int "median boundary" 499 (Quantile.Histogram.quantile h ~phi:0.5);
  Tu.check_int "p90 boundary" 899 (Quantile.Histogram.quantile h ~phi:0.9);
  Tu.check_int "p05 clamps to first boundary" 99 (Quantile.Histogram.quantile h ~phi:0.05);
  Alcotest.check_raises "phi = 0 rejected"
    (Invalid_argument "Histogram.quantile: phi must be in (0, 1)")
    (fun () -> ignore (Quantile.Histogram.quantile h ~phi:0.))

let suite =
  [
    Alcotest.test_case "exact_quantiles: splitters" `Quick test_exact_quantiles_splitters;
    Alcotest.test_case "exact_quantiles: rank" `Quick test_exact_quantiles_rank;
    Alcotest.test_case "exact_quantiles: phi" `Quick test_phi_quantile;
    Alcotest.test_case "mem_splitters: in-memory case" `Quick test_mem_splitters_in_memory_case;
    Alcotest.test_case "mem_splitters: external exact ranks" `Quick test_mem_splitters_external;
    Alcotest.test_case "mem_splitters: duplicates" `Quick test_mem_splitters_duplicates;
    Alcotest.test_case "mem_splitters: sorted input" `Quick test_mem_splitters_sorted_input;
    Alcotest.test_case "mem_splitters: linear I/O at Θ(M) buckets" `Quick
      test_mem_splitters_linear_io;
    Alcotest.test_case "mem_splitters: guards" `Quick test_mem_splitters_spacing_guards;
    Alcotest.test_case "histogram: build and query" `Quick test_histogram_build_and_query;
    Alcotest.test_case "histogram: uneven total" `Quick test_histogram_uneven_total;
    Alcotest.test_case "histogram: quantile query" `Quick test_histogram_quantile;
  ]
