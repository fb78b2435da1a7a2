(* Tests for the Section 3 / Lemma 5 reductions. *)

let test_precise_exact_sizes () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let n = 10_000 and chunk = 700 in
  let a = Tu.random_perm ~seed:1 n in
  let v = Tu.int_vec ctx a in
  let parts = Core.Reduction.precise_by_approximate Tu.icmp v ~chunk in
  let sizes = Array.map Em.Vec.length parts in
  Tu.check_int "partition count" ((n + chunk - 1) / chunk) (Array.length parts);
  Array.iteri
    (fun i s ->
      if i < Array.length parts - 1 then Tu.check_int "full chunk" chunk s
      else Tu.check_int "last chunk" (n - (chunk * (Array.length parts - 1))) s)
    sizes;
  let contents = Array.map Em.Vec.Oracle.to_array parts in
  Tu.check_ok "ordering + multiset"
    (Core.Verify.multi_partition Tu.icmp ~input:a ~sizes contents);
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

let test_precise_divisible () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let n = 8_192 and chunk = 1_024 in
  let a = Tu.random_perm ~seed:2 n in
  let v = Tu.int_vec ctx a in
  let parts = Core.Reduction.precise_by_approximate Tu.icmp v ~chunk in
  Tu.check_int "8 parts" 8 (Array.length parts);
  Array.iter (fun p -> Tu.check_int "size" chunk (Em.Vec.length p)) parts

let test_precise_chunk_exceeds_n () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let a = Tu.random_perm ~seed:3 100 in
  let v = Tu.int_vec ctx a in
  let parts = Core.Reduction.precise_by_approximate Tu.icmp v ~chunk:1_000 in
  Tu.check_int "one part" 1 (Array.length parts);
  Tu.check_int_array "contents" (Tu.sorted_copy a) (Tu.sorted_copy (Em.Vec.Oracle.to_array parts.(0)))

let test_precise_chunk_one () =
  (* chunk = 1 degenerates to sorting. *)
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let n = 600 in
  let a = Tu.random_perm ~seed:4 n in
  let v = Tu.int_vec ctx a in
  let parts = Core.Reduction.precise_by_approximate Tu.icmp v ~chunk:1 in
  Tu.check_int "n parts" n (Array.length parts);
  Array.iteri (fun i p -> Tu.check_int "sorted order" i (Em.Vec.Oracle.get p 0)) parts

let test_precise_linear_io () =
  (* The reduction costs the approximate solve plus O(N/B). *)
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let n = 65_536 and chunk = 8_192 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:5 n) in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  let parts = Core.Reduction.precise_by_approximate Tu.icmp v ~chunk in
  let total = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
  Array.iter Em.Vec.free parts;
  let snap2 = Em.Stats.snapshot ctx.Em.Ctx.stats in
  let spec = { Core.Problem.n; k = n / chunk; a = 0; b = chunk } in
  Array.iter Em.Vec.free (Core.Partitioning.solve Tu.icmp v spec);
  let approx_only = Em.Stats.ios_since ctx.Em.Ctx.stats snap2 in
  let nb = n / 64 in
  (* Each buffer cut pays an external split_at (~5 scans of <= 2*chunk) plus
     the append copies: linear with constant ~15. *)
  Tu.check_bool
    (Printf.sprintf "post-pass is O(N/B): total %d <= approx %d + 20 scans (%d)" total
       approx_only (20 * nb))
    true
    (total <= approx_only + (20 * nb))

let test_precise_duplicates () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let n = 5_000 in
  let a = Tu.random_ints ~seed:6 ~bound:9 n in
  let v = Tu.int_vec ctx a in
  let parts = Core.Reduction.precise_by_approximate Tu.icmp v ~chunk:777 in
  let sizes = Array.map Em.Vec.length parts in
  Tu.check_ok "duplicates"
    (Core.Verify.multi_partition Tu.icmp ~input:a ~sizes (Array.map Em.Vec.Oracle.to_array parts))

let test_sort_by_partitioning () =
  let ctx = Tu.ctx ~mem:2048 ~block:32 () in
  let n = 20_000 in
  let a = Tu.random_ints ~seed:7 ~bound:50_000 n in
  let v = Tu.int_vec ctx a in
  let sorted = Core.Reduction.sort_by_partitioning Tu.icmp v in
  Tu.check_int_array "fully sorted" (Tu.sorted_copy a) (Em.Vec.Oracle.to_array sorted);
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

let test_sort_by_partitioning_cost_is_sortish () =
  (* Lemma 5's point: this route sorts, so it cannot beat the sorting bound;
     sanity-check it stays within a constant of the real external sort. *)
  let ctx = Tu.ctx ~mem:2048 ~block:32 () in
  let n = 32_768 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:8 n) in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  Em.Vec.free (Core.Reduction.sort_by_partitioning Tu.icmp v);
  let via_partitioning = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
  let snap2 = Em.Stats.snapshot ctx.Em.Ctx.stats in
  Em.Vec.free (Emalg.External_sort.sort Tu.icmp v);
  let direct = Em.Stats.ios_since ctx.Em.Ctx.stats snap2 in
  Tu.check_bool
    (Printf.sprintf "within 6x of direct sort (%d vs %d)" via_partitioning direct)
    true
    (via_partitioning <= 6 * direct)

let suite =
  [
    Alcotest.test_case "precise: exact sizes" `Quick test_precise_exact_sizes;
    Alcotest.test_case "precise: divisible" `Quick test_precise_divisible;
    Alcotest.test_case "precise: chunk > n" `Quick test_precise_chunk_exceeds_n;
    Alcotest.test_case "precise: chunk = 1" `Quick test_precise_chunk_one;
    Alcotest.test_case "precise: post-pass is linear" `Quick test_precise_linear_io;
    Alcotest.test_case "precise: duplicates" `Quick test_precise_duplicates;
    Alcotest.test_case "sort via partitioning" `Quick test_sort_by_partitioning;
    Alcotest.test_case "sort via partitioning: cost" `Quick
      test_sort_by_partitioning_cost_is_sortish;
  ]
