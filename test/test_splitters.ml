(* Tests for approximate K-splitters (Theorem 5). *)

let solve_and_verify ?(mem = 4096) ?(block = 64) ~seed ~kind spec =
  let ctx = Tu.ctx ~mem ~block () in
  let a = Core.Workload.generate kind ~seed ~n:spec.Core.Problem.n ~block in
  let v = Tu.int_vec ctx a in
  let out = Core.Splitters.solve Tu.icmp v spec in
  let splitters = Em.Vec.Oracle.to_array out in
  Tu.check_ok
    (Format.asprintf "verify %a" Core.Problem.pp_spec spec)
    (Core.Verify.splitters Tu.icmp ~input:a spec splitters);
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use;
  (ctx, a, splitters)

let perm = Core.Workload.Random_perm

let test_right_grounded_basic () =
  ignore
    (solve_and_verify ~seed:1 ~kind:perm { Core.Problem.n = 10_000; k = 16; a = 100; b = 10_000 })

let test_right_grounded_tiny_a () =
  ignore
    (solve_and_verify ~seed:2 ~kind:perm { Core.Problem.n = 10_000; k = 8; a = 2; b = 10_000 })

let test_right_grounded_max_a () =
  ignore
    (solve_and_verify ~seed:3 ~kind:perm { Core.Problem.n = 10_000; k = 10; a = 1_000; b = 10_000 })

let test_right_grounded_sublinear_io () =
  (* With a*K << N the right-grounded algorithm must not even read all of S. *)
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let n = 262_144 in
  let v = Tu.int_vec ctx (Core.Workload.generate perm ~seed:4 ~n ~block:64) in
  let spec = { Core.Problem.n; k = 16; a = 8; b = n } in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  let out = Core.Splitters.solve Tu.icmp v spec in
  let ios = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
  let one_scan = n / 64 in
  Tu.check_bool
    (Printf.sprintf "sublinear: %d I/Os vs %d for one scan" ios one_scan)
    true
    (ios < one_scan / 8);
  ignore out

let test_left_grounded_basic () =
  ignore
    (solve_and_verify ~seed:5 ~kind:perm { Core.Problem.n = 10_000; k = 16; a = 0; b = 1_000 })

let test_left_grounded_padding () =
  (* K much larger than ceil(n/b): most splitters are padding. *)
  ignore
    (solve_and_verify ~seed:6 ~kind:perm { Core.Problem.n = 10_000; k = 64; a = 0; b = 5_000 })

let test_left_grounded_b_half () =
  ignore
    (solve_and_verify ~seed:7 ~kind:perm { Core.Problem.n = 10_000; k = 4; a = 0; b = 5_000 })

let test_two_sided_easy_case () =
  (* a >= n/2K triggers the even-quantile shortcut. *)
  ignore
    (solve_and_verify ~seed:8 ~kind:perm { Core.Problem.n = 10_000; k = 10; a = 600; b = 1_500 })

let test_two_sided_hard_case () =
  (* a < n/2K and b > 2n/K: the K' cut plan. *)
  ignore
    (solve_and_verify ~seed:9 ~kind:perm { Core.Problem.n = 10_000; k = 10; a = 100; b = 4_000 })

let test_two_sided_extreme_slack () =
  ignore
    (solve_and_verify ~seed:10 ~kind:perm { Core.Problem.n = 10_000; k = 100; a = 1; b = 9_000 })

let test_two_sided_below_sort () =
  (* The K' plan's K-1 cut ranks in one multi-selection: cheaper than
     sorting the input (Pi_hard, N = 2^17, K = 64, a = 512, b = 8192 gives
     K' = 51; a < N/2K and b > 2N/K, so no shortcut). *)
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let n = 1 lsl 17 in
  let v = Tu.int_vec ctx (Core.Workload.generate Core.Workload.Pi_hard ~seed:4 ~n ~block:64) in
  let spec = { Core.Problem.n; k = 64; a = 512; b = 8_192 } in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  Em.Vec.free (Core.Splitters.solve Tu.icmp v spec);
  let ours = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  Em.Vec.free (Emalg.External_sort.sort Tu.icmp v);
  let sort = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
  Tu.check_bool
    (Printf.sprintf "two-sided splitters %d I/Os < sort %d" ours sort)
    true (ours < sort)

let test_unconstrained () =
  ignore
    (solve_and_verify ~seed:11 ~kind:perm { Core.Problem.n = 1_000; k = 10; a = 0; b = 1_000 })

let test_k_equals_one () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:12 100) in
  let out = Core.Splitters.solve Tu.icmp v { Core.Problem.n = 100; k = 1; a = 0; b = 100 } in
  Tu.check_int "no splitters" 0 (Em.Vec.length out)

let test_exact_quantile_spec () =
  (* a = b = n/k: the fully balanced case. *)
  ignore (solve_and_verify ~seed:13 ~kind:perm (Core.Problem.even_spec ~n:10_000 ~k:10))

let test_workload_sweep () =
  List.iter
    (fun kind ->
      if Core.Workload.distinct_ranks kind then begin
        ignore (solve_and_verify ~seed:14 ~kind { Core.Problem.n = 8_192; k = 8; a = 100; b = 4_000 });
        ignore (solve_and_verify ~seed:15 ~kind { Core.Problem.n = 8_192; k = 8; a = 0; b = 2_048 });
        ignore (solve_and_verify ~seed:16 ~kind { Core.Problem.n = 8_192; k = 8; a = 64; b = 8_192 })
      end)
    Core.Workload.all_kinds

let test_spec_mismatch () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:17 100) in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Splitters: spec.n does not match the input length")
    (fun () ->
      ignore (Core.Splitters.solve Tu.icmp v { Core.Problem.n = 99; k = 2; a = 0; b = 99 }))

let suite =
  [
    Alcotest.test_case "right-grounded: basic" `Quick test_right_grounded_basic;
    Alcotest.test_case "right-grounded: a = 2" `Quick test_right_grounded_tiny_a;
    Alcotest.test_case "right-grounded: a = n/k" `Quick test_right_grounded_max_a;
    Alcotest.test_case "right-grounded: sublinear I/O" `Quick test_right_grounded_sublinear_io;
    Alcotest.test_case "left-grounded: basic" `Quick test_left_grounded_basic;
    Alcotest.test_case "left-grounded: heavy padding" `Quick test_left_grounded_padding;
    Alcotest.test_case "left-grounded: b = n/2" `Quick test_left_grounded_b_half;
    Alcotest.test_case "two-sided: shortcut case" `Quick test_two_sided_easy_case;
    Alcotest.test_case "two-sided: K' split case" `Quick test_two_sided_hard_case;
    Alcotest.test_case "two-sided: extreme slack" `Quick test_two_sided_extreme_slack;
    Alcotest.test_case "two-sided: K' plan below sort" `Quick test_two_sided_below_sort;
    Alcotest.test_case "unconstrained" `Quick test_unconstrained;
    Alcotest.test_case "k = 1" `Quick test_k_equals_one;
    Alcotest.test_case "exact quantile spec" `Quick test_exact_quantile_spec;
    Alcotest.test_case "workload sweep" `Quick test_workload_sweep;
    Alcotest.test_case "spec mismatch" `Quick test_spec_mismatch;
  ]
