(* Tests for approximate K-partitioning (Theorem 6). *)

let solve_and_verify ?(mem = 4096) ?(block = 64) ~seed ~kind spec =
  let ctx = Tu.ctx ~mem ~block () in
  let a = Core.Workload.generate kind ~seed ~n:spec.Core.Problem.n ~block in
  let v = Tu.int_vec ctx a in
  let parts = Core.Partitioning.solve Tu.icmp v spec in
  let contents = Array.map Em.Vec.Oracle.to_array parts in
  Tu.check_ok
    (Format.asprintf "verify %a" Core.Problem.pp_spec spec)
    (Core.Verify.partitioning Tu.icmp ~input:a spec contents);
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use;
  contents

let perm = Core.Workload.Random_perm

let test_right_grounded_basic () =
  let parts =
    solve_and_verify ~seed:1 ~kind:perm { Core.Problem.n = 10_000; k = 8; a = 500; b = 10_000 }
  in
  (* The first K-1 partitions must have exactly a elements. *)
  for i = 0 to 6 do
    Tu.check_int "size a" 500 (Array.length parts.(i))
  done

let test_right_grounded_a2 () =
  ignore (solve_and_verify ~seed:2 ~kind:perm { Core.Problem.n = 10_000; k = 16; a = 2; b = 10_000 })

let test_left_grounded_basic () =
  let parts =
    solve_and_verify ~seed:3 ~kind:perm { Core.Problem.n = 10_000; k = 16; a = 0; b = 1_000 }
  in
  Tu.check_int "K partitions" 16 (Array.length parts);
  (* ceil(10000/1000) = 10 non-empty partitions, 6 empty. *)
  let empties = Array.fold_left (fun acc p -> if Array.length p = 0 then acc + 1 else acc) 0 parts in
  Tu.check_int "empties" 6 empties

let test_left_grounded_exact_fill () =
  ignore (solve_and_verify ~seed:4 ~kind:perm { Core.Problem.n = 10_000; k = 10; a = 0; b = 1_000 })

let test_two_sided_shortcut () =
  ignore (solve_and_verify ~seed:5 ~kind:perm { Core.Problem.n = 10_000; k = 10; a = 700; b = 1_400 })

let test_two_sided_hard () =
  let parts =
    solve_and_verify ~seed:6 ~kind:perm { Core.Problem.n = 10_000; k = 10; a = 50; b = 4_000 }
  in
  Tu.check_int "K partitions" 10 (Array.length parts)

let test_even_spec () =
  let parts = solve_and_verify ~seed:7 ~kind:perm (Core.Problem.even_spec ~n:9_999 ~k:7) in
  Array.iter
    (fun p ->
      Tu.check_bool "balanced" true
        (Array.length p >= 9_999 / 7 && Array.length p <= (9_999 / 7) + 1))
    parts

let test_k1_and_unconstrained () =
  ignore (solve_and_verify ~seed:8 ~kind:perm { Core.Problem.n = 1_000; k = 1; a = 0; b = 1_000 });
  ignore (solve_and_verify ~seed:9 ~kind:perm { Core.Problem.n = 1_000; k = 5; a = 0; b = 1_000 })

let test_workload_sweep () =
  List.iter
    (fun kind ->
      if Core.Workload.distinct_ranks kind then begin
        ignore (solve_and_verify ~seed:10 ~kind { Core.Problem.n = 8_192; k = 8; a = 128; b = 8_192 });
        ignore (solve_and_verify ~seed:11 ~kind { Core.Problem.n = 8_192; k = 8; a = 0; b = 2_048 });
        ignore (solve_and_verify ~seed:12 ~kind { Core.Problem.n = 8_192; k = 8; a = 64; b = 4_096 })
      end)
    Core.Workload.all_kinds

let test_right_grounded_avoids_full_sort () =
  (* With small a*K, right-grounded partitioning should cost a few scans,
     far below the sort baseline. *)
  let ctx = Tu.ctx ~mem:2048 ~block:32 () in
  let n = 65_536 in
  let v = Tu.int_vec ctx (Core.Workload.generate perm ~seed:13 ~n ~block:32) in
  let spec = { Core.Problem.n; k = 8; a = 32; b = n } in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  let parts = Core.Partitioning.solve Tu.icmp v spec in
  let ours = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
  Array.iter Em.Vec.free parts;
  let snap2 = Em.Stats.snapshot ctx.Em.Ctx.stats in
  let bparts = Core.Baseline.partitioning Tu.icmp v spec in
  let baseline = Em.Stats.ios_since ctx.Em.Ctx.stats snap2 in
  Array.iter Em.Vec.free bparts;
  Tu.check_bool (Printf.sprintf "ours %d < baseline %d" ours baseline) true (ours < baseline)

let suite =
  [
    Alcotest.test_case "right-grounded: basic" `Quick test_right_grounded_basic;
    Alcotest.test_case "right-grounded: a = 2" `Quick test_right_grounded_a2;
    Alcotest.test_case "left-grounded: basic + empties" `Quick test_left_grounded_basic;
    Alcotest.test_case "left-grounded: exact fill" `Quick test_left_grounded_exact_fill;
    Alcotest.test_case "two-sided: shortcut" `Quick test_two_sided_shortcut;
    Alcotest.test_case "two-sided: K' split" `Quick test_two_sided_hard;
    Alcotest.test_case "even spec" `Quick test_even_spec;
    Alcotest.test_case "k = 1 / unconstrained" `Quick test_k1_and_unconstrained;
    Alcotest.test_case "workload sweep" `Quick test_workload_sweep;
    Alcotest.test_case "beats sort baseline" `Quick test_right_grounded_avoids_full_sort;
  ]
