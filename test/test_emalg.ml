(* Tests for the classic EM algorithm substrate: scans, sorting, merging,
   selection, distribution, sample splitters. *)

let sorted = Tu.sorted_copy

let test_scan_fold_iter () =
  let ctx = Tu.ctx () in
  let a = Array.init 100 (fun i -> i) in
  let v = Tu.int_vec ctx a in
  Tu.check_int "fold sum" 4950 (Emalg.Scan.fold ( + ) 0 v);
  let count = ref 0 in
  Emalg.Scan.iter (fun _ -> incr count) v;
  Tu.check_int "iter count" 100 !count;
  Tu.check_no_leaks ~live:(Em.Vec.num_blocks v) ctx

let test_scan_copy_cost () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let v = Tu.int_vec ctx (Array.init 160 (fun i -> i)) in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  let c = Emalg.Scan.copy v in
  Tu.check_int "copy = 2N/B I/Os" 20 (Em.Stats.ios_since ctx.Em.Ctx.stats snap);
  Tu.check_int_array "copy contents" (Em.Vec.Oracle.to_array v) (Em.Vec.Oracle.to_array c)

let test_scan_filter_map () =
  let ctx = Tu.ctx () in
  let v = Tu.int_vec ctx (Array.init 50 (fun i -> i)) in
  let evens = Emalg.Scan.filter (fun x -> x mod 2 = 0) v in
  Tu.check_int_array "filter" (Array.init 25 (fun i -> 2 * i)) (Em.Vec.Oracle.to_array evens);
  let doubled = Emalg.Scan.map_into ctx (fun x -> x * 2) v in
  Tu.check_int_array "map" (Array.init 50 (fun i -> 2 * i)) (Em.Vec.Oracle.to_array doubled);
  let tagged = Emalg.Scan.mapi_into (Em.Ctx.linked ctx) (fun i x -> (x, i)) v in
  Tu.check_int "mapi length" 50 (Em.Vec.length tagged)

let test_scan_rank_of () =
  let ctx = Tu.ctx () in
  let v = Tu.int_vec ctx [| 5; 1; 9; 3; 7; 3 |] in
  Tu.check_int "rank of 3" 3 (Emalg.Scan.rank_of Tu.icmp v 3);
  Tu.check_int "rank of 0" 0 (Emalg.Scan.rank_of Tu.icmp v 0);
  Tu.check_int "rank of 9" 6 (Emalg.Scan.rank_of Tu.icmp v 9)

let test_scan_chunks () =
  let ctx = Tu.ctx ~mem:64 ~block:8 () in
  let v = Tu.int_vec ctx (Array.init 100 (fun i -> i)) in
  let sizes = ref [] in
  Emalg.Scan.chunks ~size:30 (fun c -> sizes := Array.length c :: !sizes) v;
  Alcotest.(check (list int)) "chunk sizes" [ 30; 30; 30; 10 ] (List.rev !sizes)

let test_mem_sort () =
  let a = Tu.random_ints ~seed:3 ~bound:50 200 in
  let b = Array.copy a in
  Emalg.Mem_sort.sort Tu.icmp b;
  Tu.check_bool "sorted" true (Emalg.Mem_sort.is_sorted Tu.icmp b);
  Tu.check_int_array "same multiset" (sorted a) b

let test_quantile_splitters_exact () =
  let a = Tu.random_perm ~seed:11 100 in
  let s = Emalg.Mem_sort.quantile_splitters Tu.icmp a ~k:4 in
  Tu.check_int_array "quartiles of 0..99" [| 24; 49; 74 |] s;
  let b = Tu.random_perm ~seed:12 10 in
  Tu.check_int_array "k=1 gives none" [||] (Emalg.Mem_sort.quantile_splitters Tu.icmp b ~k:1);
  let c = Tu.random_perm ~seed:13 10 in
  Tu.check_int_array "k=n gives all but max" [| 0; 1; 2; 3; 4; 5; 6; 7; 8 |]
    (Emalg.Mem_sort.quantile_splitters Tu.icmp c ~k:10)

let test_select_mem_exhaustive () =
  let a = Tu.random_perm ~seed:5 137 in
  for rank = 1 to 137 do
    let scratch = Array.copy a in
    Tu.check_int "rank element" (rank - 1)
      (Emalg.Select_mem.select Tu.icmp scratch ~rank)
  done

let test_select_mem_duplicates () =
  let a = Array.concat [ Array.make 40 7; Array.make 40 3; Array.make 40 11 ] in
  Tu.shuffle (Tu.rng 9) a;
  Tu.check_int "rank 1" 3 (Emalg.Select_mem.select Tu.icmp (Array.copy a) ~rank:1);
  Tu.check_int "rank 40" 3 (Emalg.Select_mem.select Tu.icmp (Array.copy a) ~rank:40);
  Tu.check_int "rank 41" 7 (Emalg.Select_mem.select Tu.icmp (Array.copy a) ~rank:41);
  Tu.check_int "rank 80" 7 (Emalg.Select_mem.select Tu.icmp (Array.copy a) ~rank:80);
  Tu.check_int "rank 120" 11 (Emalg.Select_mem.select Tu.icmp (Array.copy a) ~rank:120)

let test_select_mem_median () =
  Tu.check_int "median odd" 3 (Emalg.Select_mem.median Tu.icmp [| 5; 1; 3; 2; 4 |]);
  Tu.check_int "median even picks lower" 2 (Emalg.Select_mem.median Tu.icmp [| 4; 1; 3; 2 |]);
  Alcotest.check_raises "median empty" (Invalid_argument "Select_mem.median: empty array")
    (fun () -> ignore (Emalg.Select_mem.median Tu.icmp [||]))

let test_merge_two_runs () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let r1 = Tu.int_vec ctx (Array.init 40 (fun i -> 2 * i)) in
  let r2 = Tu.int_vec ctx (Array.init 40 (fun i -> (2 * i) + 1)) in
  let merged = Emalg.Merge.merge Tu.icmp [ r1; r2 ] in
  Tu.check_int_array "interleave" (Array.init 80 (fun i -> i)) (Em.Vec.Oracle.to_array merged);
  Tu.check_no_leaks ~live:(Em.Vec.num_blocks r1 + Em.Vec.num_blocks r2 + Em.Vec.num_blocks merged) ctx

let test_merge_fanout_guard () =
  let ctx = Tu.ctx ~mem:64 ~block:16 () in
  (* max_fanout = (64-16)/18 = 2 *)
  Tu.check_int "max fanout" 2 (Emalg.Merge.max_fanout ctx);
  let mk i = Tu.int_vec ctx [| i |] in
  Alcotest.check_raises "too many runs"
    (Invalid_argument "Merge.merge: too many runs for the memory budget")
    (fun () -> ignore (Emalg.Merge.merge Tu.icmp [ mk 1; mk 2; mk 3 ]))

(* Sorted runs for the merge tests: [k] runs whose lengths mix empty,
   single-element and multi-block runs of up to [max_len] elements, keys
   drawn below [bound] (1 makes every key equal).  Each element is tagged
   (key, run, position). *)
let tagged_runs ?(max_len = 60) ~seed ~k ~bound () =
  let r = Tu.rng seed in
  List.init k (fun run ->
      let len =
        match Tu.next_int r 4 with 0 -> 0 | 1 -> 1 | _ -> Tu.next_int r max_len
      in
      let keys = Tu.random_ints ~seed:(seed + run + 1) ~bound len in
      Array.sort Tu.icmp keys;
      Array.mapi (fun pos key -> (key, run, pos)) keys)

let key_cmp (a, _, _) (b, _, _) = Int.compare a b

let prop_merge_is_stable_sort =
  Tu.qcheck_case ~count:60
    "merge: merge and iter equal a stable sort of the runs, at D=1 and D=4"
    QCheck2.Gen.(triple (int_range 1 13) (int_range 0 999) (oneofl [ 1; 3; 1000 ]))
    (fun (k, seed, bound) ->
      let runs = tagged_runs ~seed ~k ~bound () in
      let expected = Array.concat runs in
      Array.stable_sort key_cmp expected;
      List.for_all
        (fun disks ->
          let ctx : (int * int * int) Em.Ctx.t = Em.Ctx.create ~disks (Tu.params ()) in
          k <= Emalg.Merge.max_fanout ctx
          &&
          let vecs = List.map (Em.Vec.of_array ctx) runs in
          let merged = Emalg.Merge.merge key_cmp vecs in
          let iterated = ref [] in
          Emalg.Merge.iter key_cmp vecs (fun e -> iterated := e :: !iterated);
          let ok =
            Em.Vec.Oracle.to_array merged = expected
            && Array.of_list (List.rev !iterated) = expected
            && ctx.Em.Ctx.stats.Em.Stats.mem_in_use = 0
          in
          Em.Ctx.close ctx;
          ok)
        [ 1; 4 ])

let rec ceil_log2 k = if k <= 1 then 0 else 1 + ceil_log2 ((k + 1) / 2)

let test_merge_comparison_bound () =
  (* A tournament of k runs replays one leaf-to-root path per element:
     at most ceil(lg k) comparisons each, plus k - 1 to seed the tree. *)
  List.iter
    (fun (k, bound) ->
      let ctx = Tu.ctx ~mem:4096 ~block:64 () in
      let runs =
        List.map (Array.map (fun (key, _, _) -> key)) (tagged_runs ~max_len:400 ~seed:k ~k ~bound ())
      in
      let n = List.fold_left (fun acc r -> acc + Array.length r) 0 runs in
      let vecs = List.map (Tu.int_vec ctx) runs in
      let merged, d =
        Em.Ctx.measured ctx (fun () -> Emalg.Merge.merge (Em.Ctx.counted ctx Tu.icmp) vecs)
      in
      Tu.check_int_array "merged" (sorted (Array.concat runs)) (Em.Vec.Oracle.to_array merged);
      let comps = d.Em.Stats.d_comparisons and limit = (n * ceil_log2 k) + k in
      Tu.check_bool
        (Printf.sprintf "k=%d n=%d: %d comparisons <= n ceil(lg k) + k = %d" k n comps limit)
        true (comps <= limit))
    [ (1, 1000); (2, 1000); (3, 3); (5, 1000); (8, 1); (13, 1000); (34, 1000); (61, 5) ]

let test_merge_io_exact () =
  (* One read per input block and one write per output block, on one disk
     and on four; [iter] reads the same blocks and writes none. *)
  List.iter
    (fun disks ->
      let ctx : int Em.Ctx.t = Em.Ctx.create ~disks (Tu.params ()) in
      let runs =
        List.map (Array.map (fun (key, _, _) -> key)) (tagged_runs ~seed:disks ~k:13 ~bound:1000 ())
      in
      let vecs = List.map (Tu.int_vec ctx) runs in
      let in_blocks = List.fold_left (fun acc v -> acc + Em.Vec.num_blocks v) 0 vecs in
      let merged, d = Em.Ctx.measured ctx (fun () -> Emalg.Merge.merge Tu.icmp vecs) in
      Tu.check_int "reads = input blocks" in_blocks d.Em.Stats.d_reads;
      Tu.check_int "writes = output blocks" (Em.Vec.num_blocks merged) d.Em.Stats.d_writes;
      let (), d = Em.Ctx.measured ctx (fun () -> Emalg.Merge.iter Tu.icmp vecs ignore) in
      Tu.check_int "iter reads = input blocks" in_blocks d.Em.Stats.d_reads;
      Tu.check_int "iter writes nothing" 0 d.Em.Stats.d_writes;
      Tu.check_no_leaks ~live:(in_blocks + Em.Vec.num_blocks merged) ctx;
      Em.Ctx.close ctx)
    [ 1; 4 ]

(* The int kernels against the generic path.  [counted ctx Int.compare] is
   the machine's recognised comparator; [fun x y -> Int.compare x y] is an
   equal comparator that is not, so it takes the generic path.  Each side
   runs on its own fresh machine and must give the same output and count
   the same comparisons. *)
let int_kernel_ctx ?(disks = 1) ?(mem = 4096) ?(block = 64) () : int Em.Ctx.t =
  Em.Ctx.create ~disks (Tu.params ~mem ~block ())

let fast ctx = Em.Ctx.counted ctx Int.compare
let slow ctx = Em.Ctx.counted ctx (fun x y -> Int.compare x y)

(* [f]'s result and the comparisons it counted, on the kernel path and on
   the generic path. *)
let both_paths ?disks ?mem ?block f =
  let on pick =
    let ctx = int_kernel_ctx ?disks ?mem ?block () in
    let out = f ctx (pick ctx) in
    let comps = ctx.Em.Ctx.stats.Em.Stats.comparisons in
    Em.Ctx.close ctx;
    (out, comps)
  in
  (on fast, on slow)

let same_on_both_paths ?disks f =
  let kernel, generic = both_paths ?disks f in
  kernel = generic

let test_int_keys_recognition () =
  let ctx = int_kernel_ctx () in
  let recognised cmp = Option.is_some (Em.Ctx.int_keys ctx cmp) in
  Tu.check_bool "counted Int.compare is memoised" true (fast ctx == fast ctx);
  Tu.check_bool "counted Int.compare is recognised" true (recognised (fast ctx));
  Tu.check_bool "plain Int.compare is not" false (recognised Int.compare);
  Tu.check_bool "an equal closure is not" false (recognised (slow ctx));
  let reversed = Em.Ctx.counted ctx (fun x y -> Int.compare y x) in
  Tu.check_bool "a reversed comparator is not" false (recognised reversed);
  let other = int_kernel_ctx () in
  Tu.check_bool "another machine's is not" false
    (Option.is_some (Em.Ctx.int_keys other (fast ctx)));
  let linked : int Em.Ctx.t = Em.Ctx.linked ctx in
  Tu.check_bool "a linked machine starts without one" false
    (Option.is_some (Em.Ctx.int_keys linked (fast ctx)));
  let pairs : (int * int) Em.Ctx.t = Em.Ctx.linked ctx in
  let tagged = Em.Ctx.counted pairs (Emalg.Order.tagged Int.compare) in
  Tu.check_bool "a tagged comparator is not" false
    (Option.is_some (Em.Ctx.int_keys pairs tagged));
  (* Unrecognised comparators sort by their own order, counted. *)
  let a = Tu.random_ints ~seed:5 ~bound:20 500 in
  let before = ctx.Em.Ctx.stats.Em.Stats.comparisons in
  Emalg.Mem_sort.sort_on ctx reversed a;
  Tu.check_int_array "reversed order" (Array.of_list (List.rev (Array.to_list (sorted a)))) a;
  Tu.check_bool "reversed sort counted" true (ctx.Em.Ctx.stats.Em.Stats.comparisons > before);
  let p = Array.init 300 (fun i -> (i mod 7, i)) in
  let expected = Array.copy p in
  Array.stable_sort (Emalg.Order.tagged Int.compare) expected;
  Emalg.Mem_sort.sort_on pairs tagged p;
  Tu.check_bool "tagged order" true (p = expected);
  Em.Ctx.close ctx;
  Em.Ctx.close other

let gen_keys ~max_len =
  QCheck2.Gen.(
    let* len = oneof [ int_range 0 12; int_range 0 max_len ] in
    let* bound = oneofl [ 1; 2; 7; 1000; max_int ] in
    let* seed = int_range 0 9999 in
    return (Tu.random_ints ~seed ~bound len))

let prop_mem_sort_int_kernel =
  let big = Emalg.Layout.big_load (int_kernel_ctx ()) in
  Tu.qcheck_case ~count:80
    "int kernel: Mem_sort output and comparisons equal the generic path"
    (gen_keys ~max_len:(3 * big))
    (fun a ->
      same_on_both_paths (fun ctx cmp ->
          let b = Array.copy a in
          Emalg.Mem_sort.sort_on ctx cmp b;
          b)
      && same_on_both_paths (fun ctx cmp ->
             let b = Array.copy a in
             let k = max 1 (min 9 (Array.length b)) in
             if Array.length b = 0 then [||]
             else Emalg.Mem_sort.quantile_splitters ~ctx cmp b ~k))

let prop_merge_int_kernel =
  let fanout = Emalg.Merge.max_fanout (int_kernel_ctx ()) in
  Tu.qcheck_case ~count:60
    "int kernel: Merge.merge and Merge.iter equal the generic path, at D=1 and D=4"
    QCheck2.Gen.(
      triple (int_range 1 fanout) (int_range 0 9999) (oneofl [ 1; 3; 1000; max_int ]))
    (fun (k, seed, bound) ->
      let runs =
        List.map (Array.map (fun (key, _, _) -> key)) (tagged_runs ~max_len:300 ~seed ~k ~bound ())
      in
      List.for_all
        (fun disks ->
          same_on_both_paths ~disks (fun ctx cmp ->
              let vecs = List.map (Tu.int_vec ctx) runs in
              let merged = Em.Vec.Oracle.to_array (Emalg.Merge.merge cmp vecs) in
              let iterated = ref [] in
              Emalg.Merge.iter cmp vecs (fun e -> iterated := e :: !iterated);
              (merged, !iterated)))
        [ 1; 4 ])

let test_int_kernel_merge_fault () =
  (* A read fault halfway through the merge's reads unwinds both paths after
     the same comparisons. *)
  let runs =
    List.map (Array.map (fun (key, _, _) -> key)) (tagged_runs ~max_len:400 ~seed:7 ~k:20 ~bound:50 ())
  in
  let outcomes =
    both_paths (fun ctx cmp ->
        let vecs = List.map (Tu.int_vec ctx) runs in
        let blocks = List.fold_left (fun acc v -> acc + Em.Vec.num_blocks v) 0 vecs in
        Em.Ctx.inject ctx (Em.Fault.every_nth ~n:(blocks / 2) Em.Fault.Transient_read);
        let seen = ref 0 in
        match Emalg.Merge.iter cmp vecs (fun _ -> incr seen) with
        | () -> None
        | exception Em.Em_error.Error _ -> Some !seen)
  in
  match outcomes with
  | (Some seen_fast, c_fast), (Some seen_slow, c_slow) ->
      Tu.check_bool "faulted mid-merge" true (seen_fast > 0);
      Tu.check_int "same elements before the fault" seen_slow seen_fast;
      Tu.check_int "same comparisons before the fault" c_slow c_fast
  | _ -> Alcotest.fail "the read fault must stop the merge on both paths"

let test_int_kernel_restartable () =
  (* Two merge passes with crashes in run formation and in the merges: the
     restarted steps recount their comparisons alike on both paths. *)
  let data = Tu.random_ints ~seed:17 ~bound:5_000 6_000 in
  let (kernel_out, c_kernel), (generic_out, c_generic) =
    both_paths ~mem:256 ~block:16 (fun ctx cmp ->
        Em.Ctx.arm ctx;
        Em.Ctx.inject ctx (Em.Fault.crash_at [ 100; 500; 900; 1300 ]);
        let out = Emalg.External_sort.restartable cmp (Tu.int_vec ctx data) in
        match out.Emalg.Restart.result with
        | Ok sv -> (out.Emalg.Restart.restarts, Em.Vec.Oracle.to_array sv)
        | Error e -> Alcotest.failf "restartable sort: %s" (Em.Em_error.to_string e))
  in
  Tu.check_int "four restarts" 4 (fst kernel_out);
  Tu.check_int_array "sorted" (sorted data) (snd kernel_out);
  Tu.check_bool "same restarts and output" true (kernel_out = generic_out);
  Tu.check_int "same comparisons through the crashes" c_generic c_kernel

let test_external_sort_correct () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let a = Tu.random_ints ~seed:31 ~bound:10_000 5_000 in
  let v = Tu.int_vec ctx a in
  let s = Emalg.External_sort.sort Tu.icmp v in
  Tu.check_int_array "sorted output" (sorted a) (Em.Vec.Oracle.to_array s);
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

let test_external_sort_io_bound () =
  (* N/B = 1024 blocks, fanout >= 14: two merge passes over runs of 224.
     Cost must be far below N/B * lg(N/B) and at least 2 * N/B. *)
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  let n = 65_536 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:41 n) in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  let s = Emalg.External_sort.sort Tu.icmp v in
  let ios = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
  let nb = n / 64 in
  Tu.check_bool "at least one full read+write pass" true (ios >= 2 * nb);
  Tu.check_bool "at most 4 passes for 2-level merge" true (ios <= 8 * nb);
  Tu.check_bool "output sorted" true
    (Emalg.Mem_sort.is_sorted Tu.icmp (Em.Vec.Oracle.to_array s))

let test_external_sort_empty_and_tiny () =
  let ctx = Tu.ctx () in
  let empty = Emalg.External_sort.sort Tu.icmp (Tu.int_vec ctx [||]) in
  Tu.check_int "empty" 0 (Em.Vec.length empty);
  let one = Emalg.External_sort.sort Tu.icmp (Tu.int_vec ctx [| 42 |]) in
  Tu.check_int_array "singleton" [| 42 |] (Em.Vec.Oracle.to_array one)

let test_distribute_pass () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let a = Tu.random_perm ~seed:51 100 in
  let v = Tu.int_vec ctx a in
  let pivots = [| 24; 49; 74 |] in
  let buckets =
    Emalg.Distribute.pass ctx ~nwriters:4 (fun push ->
        Emalg.Scan.iter (fun e -> push (Emalg.Distribute.bucket_index Tu.icmp pivots e) e) v)
  in
  Tu.check_int "4 buckets" 4 (Array.length buckets);
  Array.iteri
    (fun i b ->
      Tu.check_int (Printf.sprintf "bucket %d size" i) 25 (Em.Vec.length b);
      Array.iter
        (fun e ->
          Tu.check_bool "element in range" true (e >= i * 25 && e < (i + 1) * 25))
        (Em.Vec.Oracle.to_array b))
    buckets;
  Array.iter Em.Vec.free buckets;
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

let test_distribute_pivot_boundary_semantics () =
  (* bucket 0 = (-inf, 3], bucket 1 = (3, +inf) *)
  Tu.check_int_array "left closed at pivot, right open" [| 0; 0; 0; 1; 1 |]
    (Array.map (Emalg.Distribute.bucket_index Tu.icmp [| 3 |]) [| 1; 2; 3; 4; 5 |]);
  Tu.check_int_array "least pivot at or above" [| 0; 1; 1; 2; 3 |]
    (Array.map (Emalg.Distribute.bucket_index Tu.icmp [| 2; 4; 6 |]) [| 2; 3; 4; 5; 7 |])

let test_three_way () =
  let ctx = Tu.ctx () in
  let v = Tu.int_vec ctx [| 5; 3; 7; 3; 3; 9; 1 |] in
  let less, eq, greater = Emalg.Distribute.three_way Tu.icmp v ~pivot:3 in
  Tu.check_int_array "less" [| 1 |] (Em.Vec.Oracle.to_array less);
  Tu.check_int "equal count" 3 eq;
  Tu.check_int_array "greater" [| 5; 7; 9 |] (Em.Vec.Oracle.to_array greater)

let test_em_select_matches_oracle () =
  let ctx = Tu.ctx ~mem:128 ~block:8 () in
  let a = Tu.random_ints ~seed:71 ~bound:500 1_000 in
  let v = Tu.int_vec ctx a in
  let s = sorted a in
  List.iter
    (fun rank ->
      Tu.check_int
        (Printf.sprintf "rank %d" rank)
        s.(rank - 1)
        (Emalg.Em_select.select Tu.icmp v ~rank))
    [ 1; 2; 250; 500; 999; 1000 ];
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

let test_em_select_linear_io () =
  let ctx = Tu.ctx ~mem:1024 ~block:32 () in
  let n = 32_768 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:81 n) in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  ignore (Emalg.Em_select.select Tu.icmp v ~rank:(n / 3));
  let ios = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
  let nb = n / 32 in
  Tu.check_bool
    (Printf.sprintf "linear I/O: %d ios vs %d blocks" ios nb)
    true
    (ios <= 14 * nb);
  Tu.check_int "no leaked intermediates" (Em.Vec.num_blocks v)
    (Em.Device.live_blocks ctx.Em.Ctx.dev)

let test_em_select_rank_guards () =
  let ctx = Tu.ctx () in
  let v = Tu.int_vec ctx [| 1; 2; 3 |] in
  Alcotest.check_raises "rank 0" (Invalid_argument "Em_select.select: rank out of range")
    (fun () -> ignore (Emalg.Em_select.select Tu.icmp v ~rank:0));
  Alcotest.check_raises "rank 4" (Invalid_argument "Em_select.select: rank out of range")
    (fun () -> ignore (Emalg.Em_select.select Tu.icmp v ~rank:4))

let max_gap splitters data =
  (* Largest bucket induced by sorted [splitters] on [data]. *)
  let s = sorted data in
  let n = Array.length s in
  let gaps = ref [] in
  let start = ref 0 in
  Array.iter
    (fun sp ->
      let pos = ref !start in
      while !pos < n && s.(!pos) <= sp do
        incr pos
      done;
      gaps := (!pos - !start) :: !gaps;
      start := !pos)
    splitters;
  gaps := (n - !start) :: !gaps;
  List.fold_left max 0 !gaps

let test_sample_splitters_small_exact () =
  (* base_size = M/2 - 2B = 96 here, so 80 elements stay in memory. *)
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let a = Tu.random_perm ~seed:91 80 in
  let v = Tu.int_vec ctx a in
  let s = Emalg.Sample_splitters.find Tu.icmp v ~k:4 in
  Tu.check_int_array "exact quartiles in base case" [| 19; 39; 59 |] s

let test_sample_splitters_gap_bound () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let n = 20_000 in
  let a = Tu.random_perm ~seed:101 n in
  let v = Tu.int_vec ctx a in
  List.iter
    (fun k ->
      let s = Emalg.Sample_splitters.find Tu.icmp v ~k in
      Tu.check_int "k-1 splitters" (k - 1) (Array.length s);
      let bound = Emalg.Sample_splitters.gap_bound ctx.Em.Ctx.params ~n ~k in
      let gap = max_gap s a in
      Tu.check_bool
        (Printf.sprintf "k=%d: max gap %d <= bound %d" k gap bound)
        true (gap <= bound))
    [ 2; 4; 8; 16 ]

let test_sample_splitters_linear_io () =
  let ctx = Tu.ctx ~mem:1024 ~block:32 () in
  let n = 32_768 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:111 n) in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  ignore (Emalg.Sample_splitters.find Tu.icmp v ~k:8);
  let ios = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
  let nb = n / 32 in
  (* One read pass + sample writes/reads, geometrically decreasing: < 2 N/B. *)
  Tu.check_bool (Printf.sprintf "%d ios vs %d blocks" ios nb) true (ios <= 2 * nb)

let test_sample_splitters_sorted_adversary () =
  (* Sorted and reverse-sorted inputs must also satisfy the bound. *)
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let n = 10_000 in
  List.iter
    (fun (name, a) ->
      let v = Tu.int_vec ctx a in
      let s = Emalg.Sample_splitters.find Tu.icmp v ~k:8 in
      let bound = Emalg.Sample_splitters.gap_bound ctx.Em.Ctx.params ~n ~k:8 in
      let gap = max_gap s a in
      Tu.check_bool (Printf.sprintf "%s: gap %d <= %d" name gap bound) true (gap <= bound))
    [
      ("sorted", Array.init n (fun i -> i));
      ("reverse", Array.init n (fun i -> n - i));
    ]

let test_find_random_pivots () =
  let ctx = Tu.ctx ~mem:1024 ~block:32 () in
  let n = 20_000 and k = 8 in
  let a = Tu.random_perm ~seed:121 n in
  let v = Tu.int_vec ctx a in
  let rng_state = Tu.rng 99 in
  let rng bound = Tu.next_int rng_state bound in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  let s = Emalg.Sample_splitters.find_random ~rng Tu.icmp v ~k in
  let ios = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
  Tu.check_int "k-1 splitters" (k - 1) (Array.length s);
  Tu.check_int "exactly one scan" (n / 32) ios;
  (* All splitters are input members and sorted. *)
  Tu.check_bool "sorted" true (Emalg.Mem_sort.is_sorted Tu.icmp s);
  Array.iter (fun x -> Tu.check_bool "member" true (x >= 0 && x < n)) s;
  (* Probabilistic quality: with oversampling 8 ln k, buckets should stay
     within ~4x of even on a random permutation (deterministic seed). *)
  Tu.check_bool "bucket quality" true (max_gap s a <= 4 * (n / k))

let test_find_random_small_input () =
  (* n below the reservoir size (64 here): exact quantiles, no randomness. *)
  let ctx = Tu.ctx ~mem:1024 ~block:32 () in
  let a = Tu.random_perm ~seed:122 60 in
  let v = Tu.int_vec ctx a in
  let rng_state = Tu.rng 5 in
  let rng bound = Tu.next_int rng_state bound in
  let s = Emalg.Sample_splitters.find_random ~rng Tu.icmp v ~k:4 in
  Tu.check_int_array "exact quartiles when the input fits" [| 14; 29; 44 |] s

let suite =
  [
    Alcotest.test_case "scan: fold/iter" `Quick test_scan_fold_iter;
    Alcotest.test_case "scan: copy cost" `Quick test_scan_copy_cost;
    Alcotest.test_case "scan: filter/map/mapi" `Quick test_scan_filter_map;
    Alcotest.test_case "scan: rank_of" `Quick test_scan_rank_of;
    Alcotest.test_case "scan: chunks" `Quick test_scan_chunks;
    Alcotest.test_case "mem_sort: sorts" `Quick test_mem_sort;
    Alcotest.test_case "mem_sort: quantile splitters" `Quick test_quantile_splitters_exact;
    Alcotest.test_case "select_mem: exhaustive ranks" `Quick test_select_mem_exhaustive;
    Alcotest.test_case "select_mem: duplicates" `Quick test_select_mem_duplicates;
    Alcotest.test_case "select_mem: median" `Quick test_select_mem_median;
    Alcotest.test_case "merge: two runs" `Quick test_merge_two_runs;
    Alcotest.test_case "merge: fanout guard" `Quick test_merge_fanout_guard;
    prop_merge_is_stable_sort;
    Alcotest.test_case "merge: comparison bound" `Quick test_merge_comparison_bound;
    Alcotest.test_case "merge: reads and writes exact" `Quick test_merge_io_exact;
    Alcotest.test_case "int kernel: comparator recognition" `Quick test_int_keys_recognition;
    prop_mem_sort_int_kernel;
    prop_merge_int_kernel;
    Alcotest.test_case "int kernel: read fault mid-merge" `Quick test_int_kernel_merge_fault;
    Alcotest.test_case "int kernel: restartable sort with crashes" `Quick
      test_int_kernel_restartable;
    Alcotest.test_case "external_sort: correct" `Quick test_external_sort_correct;
    Alcotest.test_case "external_sort: I/O bound" `Quick test_external_sort_io_bound;
    Alcotest.test_case "external_sort: empty/tiny" `Quick test_external_sort_empty_and_tiny;
    Alcotest.test_case "distribute: pass by bucket_index" `Quick test_distribute_pass;
    Alcotest.test_case "distribute: boundary semantics" `Quick
      test_distribute_pivot_boundary_semantics;
    Alcotest.test_case "distribute: three_way" `Quick test_three_way;
    Alcotest.test_case "em_select: matches oracle" `Quick test_em_select_matches_oracle;
    Alcotest.test_case "em_select: linear I/O" `Quick test_em_select_linear_io;
    Alcotest.test_case "em_select: rank guards" `Quick test_em_select_rank_guards;
    Alcotest.test_case "sample_splitters: base exact" `Quick test_sample_splitters_small_exact;
    Alcotest.test_case "sample_splitters: gap bound" `Quick test_sample_splitters_gap_bound;
    Alcotest.test_case "sample_splitters: linear I/O" `Quick test_sample_splitters_linear_io;
    Alcotest.test_case "sample_splitters: sorted adversary" `Quick
      test_sample_splitters_sorted_adversary;
    Alcotest.test_case "sample_splitters: randomized pivots" `Quick
      test_find_random_pivots;
    Alcotest.test_case "sample_splitters: randomized small input" `Quick
      test_find_random_small_input;
  ]
