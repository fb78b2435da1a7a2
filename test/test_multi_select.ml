(* Tests for multi-selection (Theorem 4). *)

let check_against_oracle ?(mem = 4096) ?(block = 64) ~seed ~n ranks =
  let ctx = Tu.ctx ~mem ~block () in
  let a = Tu.random_perm ~seed n in
  let v = Tu.int_vec ctx a in
  let results = Core.Multi_select.select Tu.icmp v ~ranks in
  Tu.check_ok "verifier" (Core.Verify.multi_select Tu.icmp ~input:a ~ranks results);
  (* On a permutation of 0..n-1, rank r holds value r-1. *)
  Tu.check_int_array "exact values" (Array.map (fun r -> r - 1) ranks) results;
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

let test_single_rank () = check_against_oracle ~seed:1 ~n:10_000 [| 4_567 |]

let test_few_ranks () =
  check_against_oracle ~seed:2 ~n:10_000 [| 1; 2; 3; 5_000; 9_999; 10_000 |]

let test_base_case_boundary () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let m = Core.Multi_select.batch_size ctx in
  let n = 20_000 in
  let r = Tu.rng 3 in
  let rank_set = Hashtbl.create m in
  while Hashtbl.length rank_set < m do
    Hashtbl.replace rank_set (1 + Tu.next_int r n) ()
  done;
  let ranks = Array.of_list (List.sort Tu.icmp (Hashtbl.fold (fun k () acc -> k :: acc) rank_set [])) in
  check_against_oracle ~seed:4 ~n ranks

let test_general_case_many_ranks () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let m = Core.Multi_select.batch_size ctx in
  let n = 30_000 in
  (* K = 5m + 3 ranks, evenly spread. *)
  let k = (5 * m) + 3 in
  let ranks = Array.init k (fun i -> 1 + (i * (n - 1) / k)) in
  let dedup =
    Array.of_list
      (List.sort_uniq Tu.icmp (Array.to_list ranks))
  in
  check_against_oracle ~seed:5 ~n dedup

let test_all_ranks_small () =
  (* K = N: every rank requested; the output is the sorted input. *)
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let n = 3_000 in
  let a = Tu.random_perm ~seed:6 n in
  let v = Tu.int_vec ctx a in
  let ranks = Array.init n (fun i -> i + 1) in
  let results = Core.Multi_select.select Tu.icmp v ~ranks in
  Tu.check_int_array "sorted output" (Array.init n (fun i -> i)) results

let test_duplicates () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let a = Tu.random_ints ~seed:7 ~bound:13 8_000 in
  let v = Tu.int_vec ctx a in
  let ranks = [| 1; 100; 4_000; 7_999 |] in
  let results = Core.Multi_select.select Tu.icmp v ~ranks in
  Tu.check_ok "verifier" (Core.Verify.multi_select Tu.icmp ~input:a ~ranks results)

let test_workload_sweep () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let n = 12_000 in
  List.iter
    (fun kind ->
      let a = Core.Workload.generate kind ~seed:8 ~n ~block:64 in
      let v = Tu.int_vec ctx a in
      let ranks = [| 1; n / 3; n / 2; (2 * n) / 3; n |] in
      let results = Core.Multi_select.select Tu.icmp v ~ranks in
      Tu.check_ok
        (Core.Workload.kind_name kind)
        (Core.Verify.multi_select Tu.icmp ~input:a ~ranks results);
      Em.Vec.free v)
    Core.Workload.all_kinds

let test_clustered_ranks () =
  (* All requested ranks inside one bucket of the base case, plus runs of
     consecutive ranks: stresses the rank->group routing. *)
  let n = 20_000 in
  check_against_oracle ~seed:31 ~n (Array.init 20 (fun i -> 9_990 + i));
  check_against_oracle ~seed:32 ~n [| 1; 2; 3; 4; 5; 6; 7; 8 |];
  check_against_oracle ~seed:33 ~n (Array.init 10 (fun i -> n - 9 + i))

let test_extreme_duplicates_with_ranks () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let n = 10_000 in
  let a = Array.make n 42 in
  a.(0) <- 41;
  a.(n - 1) <- 43;
  let v = Tu.int_vec ctx a in
  let ranks = [| 1; 2; n - 1; n |] in
  let results = Core.Multi_select.select Tu.icmp v ~ranks in
  Tu.check_int_array "all-equal input" [| 41; 42; 42; 43 |] results

let test_rank_validation () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:9 100) in
  let expect_invalid ranks =
    match Core.Multi_select.select Tu.icmp v ~ranks with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid [| 0 |];
  expect_invalid [| 101 |];
  expect_invalid [| 5; 5 |];
  expect_invalid [| 7; 3 |]

let test_io_bound_vs_sort () =
  (* Multi-selecting a handful of ranks costs O((N/B) lg_{M/B}(K/B)); at
     N = 2^16 the sort baseline only needs one merge pass, so we assert (a) a
     small constant per scan and (b) staying within a whisker of the
     baseline.  The next test checks the separation at N = 2^18. *)
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let n = 65_536 in
  let v = Tu.int_vec ctx (Core.Workload.generate Core.Workload.Pi_hard ~seed:10 ~n ~block:64) in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  let ranks = [| 1; n / 4; n / 2; (3 * n) / 4; n |] in
  ignore (Core.Multi_select.select Tu.icmp v ~ranks);
  let ours = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
  let snap2 = Em.Stats.snapshot ctx.Em.Ctx.stats in
  ignore (Core.Baseline.multi_select Tu.icmp v ~ranks);
  let baseline = Em.Stats.ios_since ctx.Em.Ctx.stats snap2 in
  let one_scan = n / 64 in
  Tu.check_bool
    (Printf.sprintf "ours %d <= 7 scans (%d)" ours (7 * one_scan))
    true
    (ours <= 7 * one_scan);
  Tu.check_bool
    (Printf.sprintf "ours %d within 1.3x of baseline %d" ours baseline)
    true
    (10 * ours <= 13 * baseline)

(* Theorem 4's headline at the default machine: evenly spaced ranks cost
   fewer I/Os than sorting once the sort needs a second merge pass.  K = 16
   is one base case; K = 64 > m runs the general case. *)
let below_sort ~k () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let n = 1 lsl 18 in
  let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed:11 ~n in
  let ranks = Array.init k (fun i -> (i + 1) * (n / k)) in
  let (), ours =
    Em.Ctx.measured ctx (fun () -> ignore (Core.Multi_select.select Tu.icmp v ~ranks))
  in
  let (), sort =
    Em.Ctx.measured ctx (fun () -> Em.Vec.free (Emalg.External_sort.sort Tu.icmp v))
  in
  let ours = Em.Stats.delta_ios ours and sort = Em.Stats.delta_ios sort in
  Tu.check_bool (Printf.sprintf "multiselect %d < sort %d I/Os" ours sort) true (ours < sort)

let suite =
  [
    Alcotest.test_case "single rank" `Quick test_single_rank;
    Alcotest.test_case "few ranks" `Quick test_few_ranks;
    Alcotest.test_case "base-case boundary (K = m)" `Quick test_base_case_boundary;
    Alcotest.test_case "general case (K = 5m)" `Quick test_general_case_many_ranks;
    Alcotest.test_case "all ranks = sorting" `Quick test_all_ranks_small;
    Alcotest.test_case "duplicates" `Quick test_duplicates;
    Alcotest.test_case "workload sweep" `Quick test_workload_sweep;
    Alcotest.test_case "clustered ranks" `Quick test_clustered_ranks;
    Alcotest.test_case "extreme duplicates" `Quick test_extreme_duplicates_with_ranks;
    Alcotest.test_case "rank validation" `Quick test_rank_validation;
    Alcotest.test_case "beats sort baseline" `Quick test_io_bound_vs_sort;
    Alcotest.test_case "below external sort (K=16, N=2^18)" `Quick (below_sort ~k:16);
    Alcotest.test_case "general case below sort (K=64, N=2^18)" `Quick (below_sort ~k:64);
  ]
