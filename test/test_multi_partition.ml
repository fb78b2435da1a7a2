(* Tests for multi-partition (Aggarwal–Vitter). *)

(* The paper's default machine, and a small one on which every input [run]
   gives it needs more than one merge pass, so the parts are cut by
   counting or, when they outnumber the distribution's writers, in the
   last of several merge passes. *)
let default = (4096, 64)
let small = (512, 16)

let run ?input (mem, block) ~seed ~n sizes =
  let ctx = Tu.ctx ~mem ~block () in
  let a = match input with Some a -> a | None -> Tu.random_perm ~seed n in
  if (mem, block) = small then
    Tu.check_bool "above one merge pass" false (Emalg.External_sort.one_merge ctx n);
  let v = Tu.int_vec ctx a in
  let parts = Core.Multi_partition.partition_sizes Tu.icmp v ~sizes in
  let contents = Array.map Em.Vec.Oracle.to_array parts in
  Tu.check_ok "verifier" (Core.Verify.multi_partition Tu.icmp ~input:a ~sizes contents);
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use;
  Tu.check_bool "mem_peak <= M" true (ctx.Em.Ctx.stats.Em.Stats.mem_peak <= mem);
  (ctx, parts)

let test_two_way () = ignore (run default ~seed:1 ~n:10_000 [| 4_000; 6_000 |])

let test_many_even () =
  ignore (run default ~seed:2 ~n:12_000 (Array.make 60 200))

let test_skewed_sizes machine () =
  ignore (run machine ~seed:3 ~n:10_001 [| 1; 9_000; 500; 499; 1 |])

let test_in_memory () = ignore (run default ~seed:4 ~n:500 [| 100; 150; 250 |])

let test_huge_k machine () =
  (* K = 1500 partitions: the bound stream exceeds the memory budget.  At
     the default machine the 15 000 elements sort in one merge pass and are
     cut inside it; on the small machine the parts outnumber the
     distribution's writers, so the input is merged in passes and cut in
     the last one. *)
  let n = 15_000 in
  let k = 1_500 in
  ignore (run machine ~seed:5 ~n (Array.make k (n / k)))

(* Few distinct keys: equal keys straddle every cut, and the parts must
   still be value-ordered (test_packed checks that ties go by position).
   On the small machine the input is larger, so that it needs more than
   one merge pass there. *)
let test_duplicates machine () =
  let n = if machine = small then 12_000 else 6_000 in
  let input = Tu.random_ints ~seed:6 ~bound:5 n in
  ignore (run ~input machine ~seed:6 ~n [| n / 6; n / 3; n / 2 |])

let test_workload_sweep () =
  List.iter
    (fun kind ->
      let n = 8_000 in
      let input = Core.Workload.generate kind ~seed:7 ~n ~block:64 in
      ignore (run ~input default ~seed:7 ~n [| 2_000; 2_000; 2_000; 2_000 |]))
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

let test_boundary_bounds machine () =
  (* Cuts at positions 1 and n-1, and a fully consecutive run of cuts.  On
     the small machine the input is larger, so that it needs more than one
     merge pass there. *)
  let n = if machine = small then 10_000 else 5_000 in
  ignore (run machine ~seed:21 ~n [| 1; n - 2; 1 |]);
  ignore (run machine ~seed:22 ~n (Array.append [| n - 10 |] (Array.make 10 1)))

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
    Alcotest.test_case "skewed sizes" `Quick (test_skewed_sizes default);
    Alcotest.test_case "in-memory leaf" `Quick test_in_memory;
    Alcotest.test_case "K = 1500 (streamed bounds)" `Quick (test_huge_k default);
    Alcotest.test_case "duplicates" `Quick (test_duplicates default);
    Alcotest.test_case "workload sweep" `Quick test_workload_sweep;
    Alcotest.test_case "bound validation" `Quick test_bound_validation;
    Alcotest.test_case "boundary bounds" `Quick (test_boundary_bounds default);
    Alcotest.test_case "skewed sizes (M=512)" `Quick (test_skewed_sizes small);
    Alcotest.test_case "K = 1500 (M=512)" `Quick (test_huge_k small);
    Alcotest.test_case "duplicates (M=512)" `Quick (test_duplicates small);
    Alcotest.test_case "boundary bounds (M=512)" `Quick (test_boundary_bounds small);
    Alcotest.test_case "I/O grows ~log K" `Quick test_io_scales_with_log_k;
    Alcotest.test_case "one merge: cost pin" `Quick test_one_merge_cost;
    Alcotest.test_case "one merge: duplicates, both modes" `Quick test_one_merge_duplicates;
  ]
