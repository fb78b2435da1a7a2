(* Tests for the packed (linked-list) output format of multi-partition and
   approximate partitioning — the paper's literal output convention. *)

(* Slice a packed result back into per-partition arrays for verification. *)
let slices (packed : int Core.Partitioning.packed) =
  let data = Em.Vec.Oracle.to_array packed.Core.Partitioning.data in
  let offset = ref 0 in
  Array.map
    (fun size ->
      let piece = Array.sub data !offset size in
      offset := !offset + size;
      piece)
    packed.Core.Partitioning.sizes

let check_packed ~name spec packed input =
  let pieces = slices packed in
  Tu.check_int (name ^ ": data covers everything") (Array.length input)
    (Em.Vec.length packed.Core.Partitioning.data);
  Tu.check_ok (name ^ ": verifies")
    (Core.Verify.partitioning Tu.icmp ~input spec pieces)

let run ~seed spec =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let input = Tu.random_perm ~seed spec.Core.Problem.n in
  let v = Tu.int_vec ctx input in
  let packed = Core.Partitioning.solve_packed Tu.icmp v spec in
  check_packed ~name:(Core.Problem.variant_name (Core.Problem.classify spec)) spec packed
    input;
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

let test_packed_right () = run ~seed:1 { Core.Problem.n = 10_000; k = 16; a = 300; b = 10_000 }
let test_packed_left () = run ~seed:2 { Core.Problem.n = 10_000; k = 16; a = 0; b = 1_000 }
let test_packed_two_sided () = run ~seed:3 { Core.Problem.n = 10_000; k = 10; a = 100; b = 4_000 }
let test_packed_shortcut () = run ~seed:4 { Core.Problem.n = 10_000; k = 10; a = 700; b = 1_400 }
let test_packed_unconstrained () = run ~seed:5 { Core.Problem.n = 1_000; k = 5; a = 0; b = 1_000 }

let test_packed_matches_separate () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let spec = { Core.Problem.n = 8_000; k = 8; a = 500; b = 8_000 } in
  let input = Tu.random_perm ~seed:6 8_000 in
  let v = Tu.int_vec ctx input in
  let packed = Core.Partitioning.solve_packed Tu.icmp v spec in
  let separate = Core.Partitioning.solve Tu.icmp v spec in
  Tu.check_int_array "same sizes"
    (Array.map Em.Vec.length separate)
    packed.Core.Partitioning.sizes

let test_packed_avoids_partial_blocks () =
  (* a = 2, K = 2048: the separate output must pay ~K partial blocks, the
     packed output only ~aK/B + data blocks.  This is exactly the regime
     where only the linked-list format meets the Theorem 6 bound. *)
  let n = 65_536 and k = 2_048 and a = 2 in
  let spec = { Core.Problem.n; k; a; b = n } in
  let measure solve =
    let ctx = Tu.ctx ~mem:4096 ~block:64 () in
    let v = Tu.int_vec ctx (Tu.random_perm ~seed:7 n) in
    let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
    solve v;
    ctx.Em.Ctx.stats.Em.Stats.writes - snap.Em.Stats.d_writes
  in
  let packed_writes =
    measure (fun v -> ignore (Core.Partitioning.solve_packed Tu.icmp v spec))
  in
  let separate_writes =
    measure (fun v -> ignore (Core.Partitioning.solve Tu.icmp v spec))
  in
  Tu.check_bool
    (Printf.sprintf "separate pays ~K partial blocks (%d writes)" separate_writes)
    true
    (separate_writes >= k - 1);
  (* Packed pays ~2 N/B (the split + re-streaming the big partition) with no
     per-partition term; separate pays the same plus ~K partial blocks. *)
  Tu.check_bool
    (Printf.sprintf "packed has no per-partition term (%d writes)" packed_writes)
    true
    (packed_writes <= (3 * n / 64) + 300);
  Tu.check_bool
    (Printf.sprintf "packed (%d) saves the ~K partial blocks of separate (%d)"
       packed_writes separate_writes)
    true
    (packed_writes + (k / 3) <= separate_writes)

let test_packed_multi_partition_into () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let n = 5_000 in
  let input = Tu.random_perm ~seed:8 n in
  let v = Tu.int_vec ctx input in
  let ictx : int Em.Ctx.t = Em.Ctx.linked ctx in
  let bounds = Em.Vec.of_array ictx [| 1_000; 2_500; 4_999 |] in
  let data =
    Em.Writer.with_writer ctx (fun w ->
        Core.Multi_partition.partition_packed_into Tu.icmp v ~bounds w)
  in
  let flat = Em.Vec.Oracle.to_array data in
  Tu.check_int "everything present" n (Array.length flat);
  (* Slice at the cut positions and run the oracle. *)
  let sizes = [| 1_000; 1_500; 2_499; 1 |] in
  let offset = ref 0 in
  let pieces =
    Array.map
      (fun size ->
        let piece = Array.sub flat !offset size in
        offset := !offset + size;
        piece)
      sizes
  in
  Tu.check_ok "oracle" (Core.Verify.multi_partition Tu.icmp ~input ~sizes pieces)

let suite =
  [
    Alcotest.test_case "packed: right-grounded" `Quick test_packed_right;
    Alcotest.test_case "packed: left-grounded" `Quick test_packed_left;
    Alcotest.test_case "packed: two-sided" `Quick test_packed_two_sided;
    Alcotest.test_case "packed: shortcut" `Quick test_packed_shortcut;
    Alcotest.test_case "packed: unconstrained" `Quick test_packed_unconstrained;
    Alcotest.test_case "packed: matches separate" `Quick test_packed_matches_separate;
    Alcotest.test_case "packed: avoids partial blocks" `Quick
      test_packed_avoids_partial_blocks;
    Alcotest.test_case "packed: multi-partition into" `Quick
      test_packed_multi_partition_into;
  ]
