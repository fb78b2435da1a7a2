(* Tests for multi-partition (Aggarwal–Vitter). *)

let run ?(mem = 4096) ?(block = 64) ~seed ~n sizes =
  let ctx = Tu.ctx ~mem ~block () in
  let a = Tu.random_perm ~seed n in
  let v = Tu.int_vec ctx a in
  let parts = Core.Multi_partition.partition_sizes Tu.icmp v ~sizes in
  let contents = Array.map Em.Vec.Oracle.to_array parts in
  Tu.check_ok "verifier" (Core.Verify.multi_partition Tu.icmp ~input:a ~sizes contents);
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use;
  (ctx, parts)

let test_two_way () = ignore (run ~seed:1 ~n:10_000 [| 4_000; 6_000 |])

let test_many_even () =
  ignore (run ~seed:2 ~n:12_000 (Array.make 60 200))

let test_skewed_sizes () =
  ignore (run ~seed:3 ~n:10_001 [| 1; 9_000; 500; 499; 1 |])

let test_in_memory () = ignore (run ~seed:4 ~n:500 [| 100; 150; 250 |])

let test_huge_k () =
  (* K = 1500 partitions on a machine that holds 4096 words: the bound
     stream exceeds the distribution fanout and must be routed recursively. *)
  let n = 15_000 in
  let k = 1_500 in
  ignore (run ~seed:5 ~n (Array.make k (n / k)))

let test_duplicates () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let a = Tu.random_ints ~seed:6 ~bound:5 6_000 in
  let v = Tu.int_vec ctx a in
  let sizes = [| 1_000; 2_000; 3_000 |] in
  let parts = Core.Multi_partition.partition_sizes Tu.icmp v ~sizes in
  let contents = Array.map Em.Vec.Oracle.to_array parts in
  Tu.check_ok "verifier" (Core.Verify.multi_partition Tu.icmp ~input:a ~sizes contents)

let test_workload_sweep () =
  List.iter
    (fun kind ->
      let ctx = Tu.ctx ~mem:4096 ~block:64 () in
      let n = 8_000 in
      let a = Core.Workload.generate kind ~seed:7 ~n ~block:64 in
      let v = Tu.int_vec ctx a in
      let sizes = [| 2_000; 2_000; 2_000; 2_000 |] in
      let parts = Core.Multi_partition.partition_sizes Tu.icmp v ~sizes in
      let contents = Array.map Em.Vec.Oracle.to_array parts in
      Tu.check_ok (Core.Workload.kind_name kind)
        (Core.Verify.multi_partition Tu.icmp ~input:a ~sizes contents))
    Core.Workload.all_kinds

let test_bound_validation () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:8 100) in
  let ictx : int Em.Ctx.t = Em.Ctx.linked ctx in
  let expect_invalid bounds_arr =
    let bounds = Em.Vec.of_array ictx bounds_arr in
    match Core.Multi_partition.partition Tu.icmp v ~bounds with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid [| 0 |];
  expect_invalid [| 100 |];
  expect_invalid [| 50; 50 |];
  expect_invalid [| 70; 30 |];
  (match Core.Multi_partition.partition_sizes Tu.icmp v ~sizes:[| 30; 30 |] with
  | _ -> Alcotest.fail "expected size-sum failure"
  | exception Invalid_argument _ -> ())

let test_boundary_bounds () =
  (* Cuts at positions 1 and n-1, and a fully consecutive run of cuts. *)
  ignore (run ~seed:21 ~n:5_000 (Array.append [| 1 |] [| 4_998; 1 |]));
  let sizes = Array.append [| 4_990 |] (Array.make 10 1) in
  ignore (run ~seed:22 ~n:5_000 sizes)

let test_io_scales_with_log_k () =
  (* I/O cost per scan should grow roughly logarithmically with K.  At
     M = 512, B = 16 the 2^15 elements need more than one merge pass, so
     both K take the distribution route (an input that sorts in one merge
     pass costs four scans at every K). *)
  let measure k =
    let ctx = Tu.ctx ~mem:512 ~block:16 () in
    let n = 32_768 in
    let v = Tu.int_vec ctx (Tu.random_perm ~seed:9 n) in
    let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
    let parts = Core.Multi_partition.partition_sizes Tu.icmp v ~sizes:(Array.make k (n / k)) in
    let ios = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
    Array.iter Em.Vec.free parts;
    ios
  in
  let io2 = measure 2 and io1024 = measure 1_024 in
  Tu.check_bool "more partitions cost more" true (io1024 > io2);
  (* lg_{M/B}(1024) = 2 at M/B = 32: the ratio should stay mild. *)
  Tu.check_bool
    (Printf.sprintf "io1024 %d <= 4 * io2 %d" io1024 io2)
    true
    (io1024 <= 4 * io2)

(* Pins the one-merge route: at M = 4096, B = 64 the 2^17 elements sort in
   one merge pass, and the parts are cut inside it, so the whole job costs
   at most the external sort's four scans plus one I/O per part. *)
let test_one_merge_cost () =
  let n = 1 lsl 17 and k = 16 in
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let a = Core.Workload.generate Core.Workload.Pi_hard ~seed:2014 ~n ~block:64 in
  let v = Tu.int_vec ctx a in
  let sizes = Array.make k (n / k) in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  let parts = Core.Multi_partition.partition_sizes Tu.icmp v ~sizes in
  let ios = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
  Tu.check_ok "verifier"
    (Core.Verify.multi_partition Tu.icmp ~input:a ~sizes (Array.map Em.Vec.Oracle.to_array parts));
  let sort_ios = 4 * n / 64 in
  Tu.check_bool
    (Printf.sprintf "%d I/Os <= sort's %d + K" ios sort_ios)
    true
    (ios <= sort_ios + k);
  Tu.check_bool "mem_peak <= M" true (ctx.Em.Ctx.stats.Em.Stats.mem_peak <= 4096)

(* Few distinct keys through both output modes of approximate partitioning
   at a size that sorts in one merge pass: ties must stay consistent across
   the cuts made inside the merge. *)
let test_one_merge_duplicates () =
  let n = 20_000 in
  let input = Tu.random_ints ~seed:23 ~bound:4 n in
  List.iter
    (fun spec ->
      let ctx = Tu.ctx ~mem:4096 ~block:64 () in
      let v = Tu.int_vec ctx input in
      let name = Core.Problem.variant_name (Core.Problem.classify spec) in
      let parts = Core.Partitioning.solve Tu.icmp v spec in
      Tu.check_ok (name ^ ": separate")
        (Core.Verify.partitioning Tu.icmp ~input spec (Array.map Em.Vec.Oracle.to_array parts));
      Array.iter Em.Vec.free parts;
      let packed = Core.Partitioning.solve_packed Tu.icmp v spec in
      let data = Em.Vec.Oracle.to_array packed.Core.Partitioning.data in
      let offset = ref 0 in
      let pieces =
        Array.map
          (fun size ->
            let piece = Array.sub data !offset size in
            offset := !offset + size;
            piece)
          packed.Core.Partitioning.sizes
      in
      Tu.check_ok (name ^ ": packed") (Core.Verify.partitioning Tu.icmp ~input spec pieces);
      Em.Vec.free packed.Core.Partitioning.data;
      Tu.check_int (name ^ ": ledger drained") 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use)
    [
      { Core.Problem.n; k = 16; a = 200; b = 4_000 };
      { Core.Problem.n; k = 10; a = 0; b = 4_000 };
    ]

let suite =
  [
    Alcotest.test_case "two-way" `Quick test_two_way;
    Alcotest.test_case "many even parts" `Quick test_many_even;
    Alcotest.test_case "skewed sizes" `Quick test_skewed_sizes;
    Alcotest.test_case "in-memory leaf" `Quick test_in_memory;
    Alcotest.test_case "K = 1500 (streamed bounds)" `Quick test_huge_k;
    Alcotest.test_case "duplicates" `Quick test_duplicates;
    Alcotest.test_case "workload sweep" `Quick test_workload_sweep;
    Alcotest.test_case "bound validation" `Quick test_bound_validation;
    Alcotest.test_case "boundary bounds" `Quick test_boundary_bounds;
    Alcotest.test_case "I/O grows ~log K" `Quick test_io_scales_with_log_k;
    Alcotest.test_case "one merge: cost pin" `Quick test_one_merge_cost;
    Alcotest.test_case "one merge: duplicates, both modes" `Quick test_one_merge_duplicates;
  ]
