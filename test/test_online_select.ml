(* Online multiselection sessions (Emalg.Online_select): correctness against
   the sorted oracle, equivalence with the batch engine under a full
   adversarial rank stream, the refinement invariant (intervals only split,
   never re-merge), and the teardown guarantees (no leaked blocks, no
   resident buffer-pool pages after [close ~drop_cache:true]). *)

module Os = Emalg.Online_select

let session ctx a = Os.open_session Tu.icmp ctx (Tu.int_vec ctx a)

(* ---- point queries against the sorted oracle ---- *)

let test_select_oracle () =
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let n = 6_000 in
  let a = Tu.random_perm ~seed:11 n in
  let v = Tu.int_vec ctx a in
  let baseline = Em.Device.live_blocks ctx.Em.Ctx.dev in
  let s = Os.open_session Tu.icmp ctx v in
  (* Adversarial-ish stream: extremes, the middle, then neighbours and
     repeats that must ride refinement already paid for. *)
  List.iter
    (fun k -> Tu.check_int (Printf.sprintf "select %d" k) (k - 1) (Os.select s k))
    [ n; 1; n / 2; (n / 2) + 1; 17; n - 17; n / 2; 1 ];
  (* A repeated query finds its interval sorted: refinement is free and the
     lookup costs at most one block read. *)
  let r = Os.query s (Os.Select (n / 2)) in
  Tu.check_int "repeat query refines nothing" 0 (Em.Stats.delta_ios r.Os.refine);
  Tu.check_bool "repeat query costs <= 1 I/O" true (Em.Stats.delta_ios r.Os.cost <= 1);
  Tu.check_int "repeat query splits nothing" 0 r.Os.splits;
  let sum = Os.summary s in
  Tu.check_int "summary counts the queries" 9 sum.Os.queries;
  Tu.check_bool "session refined lazily, not fully" true
    (sum.Os.sorted_leaves < sum.Os.leaves);
  Os.close s;
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use;
  Tu.check_int "session storage freed (input preserved)" baseline
    (Em.Device.live_blocks ctx.Em.Ctx.dev)

let test_quantile_convention () =
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let n = 4_000 in
  let a = Tu.random_perm ~seed:12 n in
  let sorted = Tu.sorted_copy a in
  let s = session ctx a in
  List.iter
    (fun phi ->
      let rank = max 1 (int_of_float (Float.ceil (phi *. float_of_int n))) in
      let r = Os.query s (Os.Quantile phi) in
      Tu.check_int
        (Printf.sprintf "quantile %g = rank %d" phi rank)
        sorted.(rank - 1) r.Os.values.(0))
    [ 1e-9; 0.25; 0.5; 0.999; 1.0 ];
  List.iter
    (fun phi ->
      match Os.query s (Os.Quantile phi) with
      | _ -> Alcotest.failf "quantile %g should be rejected" phi
      | exception Invalid_argument _ -> ())
    [ 0.0; -0.5; 1.5 ];
  Os.close s

let test_range_oracle () =
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let n = 5_000 in
  (* Heavy duplicates: ranks must resolve like the stable batch engine. *)
  let a = Tu.random_ints ~seed:13 ~bound:97 n in
  let sorted = Tu.sorted_copy a in
  let s = session ctx a in
  List.iter
    (fun (x, y) ->
      let r = Os.query s (Os.Range (x, y)) in
      Tu.check_int_array
        (Printf.sprintf "range %d..%d" x y)
        (Array.sub sorted (x - 1) (y - x + 1))
        r.Os.values)
    [ (1, 50); (2_400, 2_500); (n - 10, n); (777, 777) ];
  (match Os.query s (Os.Range (5, 4)) with
  | _ -> Alcotest.fail "empty range should be rejected"
  | exception Invalid_argument _ -> ());
  Os.close s;
  (* A range wider than a half-memory load cannot be assembled in memory. *)
  let small = Tu.ctx () in
  let s2 = session small (Tu.random_perm ~seed:14 400) in
  (match Os.query s2 (Os.Range (1, 1 + Emalg.Layout.half_load small)) with
  | _ -> Alcotest.fail "over-wide range should be rejected"
  | exception Invalid_argument _ -> ());
  Os.close s2

let test_out_of_range_ranks () =
  let ctx = Tu.ctx () in
  let s = session ctx (Tu.random_perm ~seed:15 300) in
  List.iter
    (fun k ->
      match Os.select s k with
      | _ -> Alcotest.failf "rank %d should be rejected" k
      | exception Invalid_argument _ -> ())
    [ 0; -3; 301 ];
  Os.close s;
  (match Os.select s 1 with
  | _ -> Alcotest.fail "closed session should reject queries"
  | exception Invalid_argument _ -> ())

(* ---- the refinement invariant: partitions only ever subdivide ---- *)

let check_partition n ivs =
  let stop =
    List.fold_left
      (fun off (lo, len, _) ->
        Tu.check_int "intervals contiguous" off lo;
        Tu.check_bool "interval non-empty" true (len > 0);
        off + len)
      0 ivs
  in
  Tu.check_int "partition covers the input" n stop

let check_refines prev next =
  List.iter
    (fun (lo, len, sorted) ->
      match
        List.find_opt
          (fun (plo, plen, _) -> plo <= lo && lo + len <= plo + plen)
          prev
      with
      | None -> Alcotest.fail "new interval not nested in the previous partition"
      | Some (plo, plen, psorted) ->
          if psorted then begin
            (* A sorted interval is final: never re-split, never unsorted. *)
            Tu.check_bool "sorted interval survives unchanged" true
              (plo = lo && plen = len && sorted)
          end)
    next

let test_intervals_monotone () =
  let ctx = Tu.ctx () in
  let n = 2_000 in
  let s = session ctx (Tu.random_perm ~seed:16 n) in
  let prev = ref (Os.intervals s) in
  check_partition n !prev;
  Tu.check_bool "starts as one raw leaf" true
    (!prev = [ (0, n, false) ]);
  List.iter
    (fun q ->
      ignore (Os.query s q);
      let next = Os.intervals s in
      check_partition n next;
      check_refines !prev next;
      Tu.check_bool "leaf count monotone" true
        (List.length next >= List.length !prev);
      prev := next)
    [
      Os.Select (n / 2);
      Os.Select (n / 2);
      Os.Range (3, 40);
      Os.Quantile 0.9;
      Os.Select 1;
      Os.Range ((n / 2) - 30, (n / 2) + 30);
      Os.Select n;
    ];
  Os.close s

(* Every leaf holds exactly the (key, position) pairs of its rank interval:
   the leaves partition the input in rank order, ties broken by position. *)
let check_leaves a s =
  let n = Array.length a in
  let ranked = Array.init n (fun i -> (a.(i), i)) in
  Array.stable_sort (fun (x, _) (y, _) -> Tu.icmp x y) ranked;
  List.iter
    (fun (lo, len, h) ->
      let expect = Array.sub ranked lo len in
      match h with
      | Os.H_raw -> Tu.check_int "a raw leaf spans the input" n len
      | Os.H_unsorted tv ->
          let got = Em.Vec.Oracle.to_array tv in
          Array.sort compare got;
          Tu.check_bool "a bucket holds its interval's pairs" true (got = expect)
      | Os.H_sorted sv ->
          Tu.check_int_array "a sorted run holds its interval" (Array.map fst expect)
            (Em.Vec.Oracle.to_array sv))
    (Os.snapshot s).Os.s_leaves

(* At M=256, B=16 one sampled pass opens at most 13 writers, so a
   20 000-element root splits into 13 buckets of about 1 540 elements, too
   many to sort in one merge pass: a query splits its bucket again.
   [split_stream a step] opens a session on [a], runs a stream of selects
   against the sorted oracle and hands [step] the session, the query's
   reply and the intervals before and after it; it returns the session
   and its input vector, still open. *)
let split_stream a step =
  let n = Array.length a in
  let ctx = Tu.ctx () in
  let v = Tu.int_vec ctx a in
  let s = Os.open_session Tu.icmp ctx v in
  let sorted = Tu.sorted_copy a in
  List.iter
    (fun k ->
      let prev = Os.intervals s in
      let r = Os.query s (Os.Select k) in
      Tu.check_int (Printf.sprintf "select %d" k) sorted.(k - 1) r.Os.values.(0);
      step s r prev (Os.intervals s);
      Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use)
    [ n / 2; 1; n; n / 3 ];
  Tu.check_bool "children split again" true ((Os.summary s).Os.splits > 1);
  (s, v)

(* The leaves stay a partition of the input in rank order, each nested in
   the leaf it came from. *)
let partition_step a s (r : int Os.reply) prev next =
  check_partition (Array.length a) next;
  check_refines prev next;
  Tu.check_bool "each split adds a leaf or more" true
    (List.length next >= List.length prev + r.Os.splits);
  check_leaves a s

(* Each split leaves at least two non-empty children, so every child is
   strictly smaller than the leaf it came from. *)
let progress_step _s _r prev next =
  List.iter
    (fun (lo, len, _) ->
      match
        List.find_opt
          (fun (plo, plen, _) -> plo <= lo && lo + len <= plo + plen)
          prev
      with
      | Some (plo, plen, _) when plo = lo && plen = len -> ()
      | Some (_, plen, _) ->
          Tu.check_bool "a child is smaller than its leaf" true (len < plen)
      | None -> Alcotest.fail "new interval not nested in the previous partition")
    next

let test_children_partition () =
  let a = Tu.random_perm ~seed:25 20_000 in
  let s, _ = split_stream a (partition_step a) in
  Os.close s

let test_split_progress () =
  let n = 20_000 in
  let s, _ = split_stream (Tu.random_perm ~seed:25 n) progress_step in
  Tu.check_bool "the root split into smaller children" true
    (List.for_all (fun (_, len, _) -> len < n) (Os.intervals s));
  Os.close s

let test_input_preserved () =
  List.iter
    (fun a ->
      let s, v = split_stream a (fun _ _ _ _ -> ()) in
      Tu.check_int_array "input unchanged" a (Em.Vec.Oracle.to_array v);
      Os.close s)
    [ Tu.random_perm ~seed:25 20_000; Array.make 20_000 7 ]

(* All-equal keys: only the positional tags let a sampled pass make
   progress. *)
let test_equal_keys_progress () =
  let n = 20_000 in
  let a = Array.make n 7 in
  let s, _ =
    split_stream a (fun s r prev next ->
        partition_step a s r prev next;
        progress_step s r prev next)
  in
  Tu.check_bool "the root split into smaller children" true
    (List.for_all (fun (_, len, _) -> len < n) (Os.intervals s));
  Os.close s

(* The first select on a raw session samples the input, distributes it
   once and sorts the queried bucket in one merge pass: at most four
   scans. *)
let test_first_select_cost () =
  let n = 1 lsl 14 in
  let ctx = Tu.ctx ~mem:512 ~block:16 () in
  let s = session ctx (Tu.random_perm ~seed:26 n) in
  let r = Os.query s (Os.Select (n / 2)) in
  Tu.check_int "answer" ((n / 2) - 1) r.Os.values.(0);
  let ios = Em.Stats.delta_ios r.Os.cost in
  if ios > 4 * n / 16 then Alcotest.failf "first select costs %d I/Os, over four scans" ios;
  Os.close s

(* ---- equivalence with the batch engine under a full rank stream ---- *)

(* Theorem 4's general case as the paper states it, costed as the batch
   engine once ran it (less its rank-validation scan): the ranks spilled
   and streamed, a multi-partition at every m-th rank, one base case per
   batch of <= m ranks into one output vector, and the answers loaded
   back.  The reference for the session's total work below. *)
let multi_partition_route cmp v ranks =
  let ctx = Em.Vec.ctx v in
  let m = Core.Multi_select.batch_size ctx in
  let k = Array.length ranks in
  let ictx : int Em.Ctx.t = Em.Ctx.linked ctx in
  let rv = Emalg.Scan.vec_of_array_io ictx ranks in
  let bounds =
    Em.Writer.with_writer ictx (fun w ->
        let idx = ref 0 in
        Emalg.Scan.iter
          (fun r ->
            incr idx;
            if !idx mod m = 0 && !idx < k then Em.Writer.push w r)
          rv)
  in
  let parts = Core.Multi_partition.partition cmp v ~bounds in
  Em.Vec.free bounds;
  let offset = ref 0 in
  let out =
    Em.Writer.with_writer ctx (fun w ->
        Em.Reader.with_reader rv (fun rr ->
            Array.iter
              (fun part ->
                let batch = Em.Reader.take rr m in
                Em.Ctx.with_words ctx (2 * Array.length batch) (fun () ->
                    let rebased = Array.map (fun r -> r - !offset) batch in
                    Em.Writer.push_array w (Core.Multi_select.base_case cmp part rebased));
                offset := batch.(Array.length batch - 1);
                Em.Vec.free part)
              parts))
  in
  Em.Vec.free rv;
  let results = Emalg.Scan.array_of_vec_io out in
  Em.Vec.free out;
  results

(* A session answering all N ranks in adversarial (shuffled) order must
   produce exactly the batch multiselection output, for strictly fewer
   total I/Os than the multi-partition route over the same rank set — and
   its cumulative refinement stays within a small constant of one external
   sort (the online algorithm's total-work guarantee; the constant covers
   the position-tagged distribution pass a lazy tree pays and an up-front
   sort does not).  The batch engine's counting route is cheaper than the
   session on a full rank stream, so the I/O reference is the route the
   session's lazy tree refines like.  Above n = 1 248 the root wants more
   buckets than one pass's writers, and its buckets sort in one merge
   pass. *)
let prop_full_stream_matches_batch =
  Tu.qcheck_case ~count:25
    "all-rank shuffled stream == batch multiselect, for fewer total I/Os"
    QCheck2.Gen.(pair (int_range 120 2_000) (int_range 0 999))
    (fun (n, seed) ->
      let a = Tu.random_perm ~seed n in
      let order = Array.init n (fun i -> i + 1) in
      Tu.shuffle (Tu.rng (seed + 1)) order;
      (* online session, one rank per query *)
      let ctx1 = Tu.ctx () in
      let s = session ctx1 a in
      let out = Array.make n (-1) in
      Array.iter (fun k -> out.(k - 1) <- Os.select s k) order;
      let sum = Os.summary s in
      Os.close s;
      let drained = ctx1.Em.Ctx.stats.Em.Stats.mem_in_use in
      Em.Ctx.close ctx1;
      (* batch multiselect of the same ranks on a fresh machine *)
      let ranks = Array.init n (fun i -> i + 1) in
      let ctx2 = Tu.ctx () in
      let batch = Core.Multi_select.select Tu.icmp (Tu.int_vec ctx2 a) ~ranks in
      Em.Ctx.close ctx2;
      (* the multi-partition route over the same ranks on a fresh machine *)
      let ctx4 = Tu.ctx () in
      let v4 = Tu.int_vec ctx4 a in
      let routed, droute = Em.Ctx.measured ctx4 (fun () -> multi_partition_route Tu.icmp v4 ranks) in
      Em.Ctx.close ctx4;
      (* one full external sort on a third fresh machine *)
      let ctx3 = Tu.ctx () in
      let v3 = Tu.int_vec ctx3 a in
      let _, dsort =
        Em.Ctx.measured ctx3 (fun () ->
            Em.Vec.free (Emalg.External_sort.sort (Em.Ctx.counted ctx3 Tu.icmp) v3))
      in
      Em.Ctx.close ctx3;
      out = batch && routed = batch && drained = 0
      && sum.Os.refine_ios + sum.Os.answer_ios <= Em.Stats.delta_ios droute
      && sum.Os.refine_ios <= 4 * Em.Stats.delta_ios dsort)

(* All ranks at M=32, B=4, the smallest geometry: two buckets per sampled
   pass, and the memory ledger stays within M throughout. *)
let test_all_ranks_tiny_memory () =
  let n = 600 in
  let ctx = Tu.ctx ~mem:32 ~block:4 () in
  let s = session ctx (Tu.random_perm ~seed:27 n) in
  let order = Array.init n (fun i -> i + 1) in
  Tu.shuffle (Tu.rng 28) order;
  Array.iter (fun k -> Tu.check_int (Printf.sprintf "select %d" k) (k - 1) (Os.select s k)) order;
  Tu.check_bool "every leaf sorted" true (List.for_all (fun (_, _, sorted) -> sorted) (Os.intervals s));
  Tu.check_bool "memory peak within M" true (ctx.Em.Ctx.stats.Em.Stats.mem_peak <= 32);
  Os.close s;
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

(* ---- a warm session's selects answer like batch multiselection ---- *)

let test_warm_selects_match_batch () =
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let n = 4_000 in
  let a = Tu.random_ints ~seed:18 ~bound:50 n in
  let ranks = [| 3; 700; 1_999; 2_000; 3_999 |] in
  (* warm session: a query first, then every rank in turn *)
  let s = session ctx a in
  ignore (Os.select s (n / 3));
  let out = Array.map (Os.select s) ranks in
  Os.close s;
  (* batch reference on a fresh machine *)
  let ctx2 = Tu.ctx ~mem:1024 ~block:16 () in
  let batch = Core.Multi_select.select Tu.icmp (Tu.int_vec ctx2 a) ~ranks in
  Tu.check_int_array "warm selects = batch answers" batch out

(* ---- O(1) summary: the session's leaf counters against a recount ---- *)

let counters_match s =
  let ivs = Os.intervals s and sum = Os.summary s in
  sum.Os.leaves = List.length ivs
  && sum.Os.sorted_leaves = List.length (List.filter (fun (_, _, sorted) -> sorted) ivs)

let check_counters what s = Tu.check_bool (what ^ ": counters = recount") true (counters_match s)

let gen_query n half =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> Os.Select k) (int_range 1 n);
        map (fun m -> Os.Quantile (float_of_int m /. 1000.)) (int_range 1 1000);
        map2 (fun a w -> Os.Range (a, min n (a + w))) (int_range 1 n) (int_range 0 (half - 1));
      ])

let prop_counters_match_recount =
  let n = 3_000 in
  let half = Emalg.Layout.half_load (Tu.ctx ()) in
  Tu.qcheck_case ~count:30 "summary leaf counters = recount after every query"
    QCheck2.Gen.(pair (int_range 0 999) (list_size (int_range 1 30) (gen_query n half)))
    (fun (seed, qs) ->
      let ctx = Tu.ctx () in
      let s = session ctx (Tu.random_perm ~seed n) in
      let ok =
        counters_match s
        && List.for_all
             (fun q ->
               ignore (Os.query s q);
               counters_match s)
             qs
      in
      Os.close s;
      ok)

(* Aborted queries keep the refinement they paid for; the counters must
   follow exactly the leaves they left behind. *)
let test_counters_after_aborts () =
  let n = 6_000 in
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let s = session ctx (Tu.random_perm ~seed:21 n) in
  Os.set_io_budget s (Some 1);
  (match Os.select s 7 with
  | _ -> Alcotest.fail "a 1-I/O budget should abort a refining query"
  | exception Em.Em_error.Error (Em.Em_error.Budget_exceeded _) -> ());
  check_counters "after a budget abort" s;
  Os.set_io_budget s None;
  Em.Ctx.inject ctx (Em.Fault.limit 1 (Em.Fault.every_nth ~n:2 Em.Fault.Transient_read));
  (match Os.select s (n - 7) with
  | _ -> Alcotest.fail "an unrecovered read fault should abort the query"
  | exception Em.Em_error.Error _ -> ());
  check_counters "after a fault abort" s;
  Em.Ctx.clear_injector ctx;
  Tu.check_int "the session still answers" (n - 8) (Os.select s (n - 7));
  check_counters "after the retry" s;
  Os.close s

let test_counters_after_restore () =
  let n = 6_000 in
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:22 n) in
  let s = Os.open_session Tu.icmp ctx v in
  let store = Os.enable_checkpoints s in
  List.iter (fun k -> ignore (Os.select s k)) [ 1; n / 3; n / 2; n ];
  Os.checkpoint s;
  let before = Os.summary s in
  let r = Os.restore Tu.icmp ctx v store in
  check_counters "restored" r;
  Tu.check_int "restore keeps the leaf count" before.Os.leaves (Os.summary r).Os.leaves;
  Tu.check_int "restore keeps the sorted count" before.Os.sorted_leaves
    (Os.summary r).Os.sorted_leaves;
  List.iter (fun k -> ignore (Os.select r k)) [ 2; (n / 3) + 40; (2 * n) / 3 ];
  check_counters "restored, then refined" r;
  Os.close r

(* A restored session is one flat level of every leaf, so [find_leaf]
   searches >= 1000 children.  Built directly from a snapshot: sorted runs,
   small position-tagged buckets, and a few 3 000-element buckets too big to
   sort in one load.  At M=1024 those sort in one merge pass and become
   sorted leaves; at M=256 they must split under the flat level. *)
let test_restored_flat_oracle ~mem () =
  let n = 30_000 in
  let ctx = Tu.ctx ~mem ~block:16 () in
  let pctx : (int * int) Em.Ctx.t = Em.Ctx.linked ctx in
  let a = Tu.random_perm ~seed:23 n in
  let pos = Array.make n 0 in
  Array.iteri (fun i x -> pos.(x) <- i) a;
  let v = Tu.int_vec ctx a in
  let r = Tu.rng 24 in
  let rec leaves lo acc =
    if lo >= n then List.rev acc
    else
      let len = min (n - lo) (if Tu.next_int r 400 = 0 then 3_000 else 4 + Tu.next_int r 16) in
      let run = Array.init len (fun i -> lo + i) in
      let h =
        if len <= 20 && Tu.next_int r 2 = 0 then Os.H_sorted (Tu.int_vec ctx run)
        else begin
          let pairs = Array.map (fun x -> (x, pos.(x))) run in
          Tu.shuffle r pairs;
          Os.H_unsorted (Em.Vec.of_array pctx pairs)
        end
      in
      leaves (lo + len) ((lo, len, h) :: acc)
  in
  let snap =
    { Os.s_leaves = leaves 0 []; s_queries = 0; s_refine_ios = 0; s_answer_ios = 0; s_splits = 0 }
  in
  let store = Em.Checkpoint.create ctx in
  Em.Checkpoint.install store ~words:(Os.snapshot_words snap) snap;
  let s = Os.restore Tu.icmp ctx v store in
  Tu.check_bool "at least 1000 restored leaves" true ((Os.summary s).Os.leaves >= 1000);
  check_counters "restored flat" s;
  let half = Emalg.Layout.half_load ctx in
  for i = 1 to 400 do
    let k = 1 + Tu.next_int r n in
    if i mod 4 = 0 then begin
      let b = min n (k + Tu.next_int r half) in
      Tu.check_int_array
        (Printf.sprintf "range %d..%d" k b)
        (Array.init (b - k + 1) (fun j -> k - 1 + j))
        (Os.query s (Os.Range (k, b))).Os.values
    end
    else Tu.check_int (Printf.sprintf "select %d" k) (k - 1) (Os.select s k)
  done;
  List.iter (fun k -> Tu.check_int "edge ranks" (k - 1) (Os.select s k)) [ 1; 2; n - 1; n ];
  check_counters "restored flat, then queried" s;
  let sum = Os.summary s in
  if mem >= 1024 then begin
    Tu.check_int "no bucket split" 0 sum.Os.splits;
    Tu.check_bool "an oversized bucket became one sorted leaf" true
      (List.exists (fun (_, len, sorted) -> len = 3_000 && sorted) (Os.intervals s))
  end
  else Tu.check_bool "an oversized bucket split under the flat level" true (sum.Os.splits > 0);
  Os.close s

(* ---- teardown: no resident pool pages, no leaked blocks ---- *)

let test_zero_pool_pages_after_close () =
  let ctx : int Em.Ctx.t =
    Em.Ctx.create
      ~backend:(Em.Backend.Cached Em.Backend.Sim)
      (Tu.params ~mem:1024 ~block:16 ())
  in
  let pool =
    match Em.Ctx.backend_pool ctx with
    | Some p -> p
    | None -> Alcotest.fail "cached backend must expose its pool"
  in
  let n = 4_000 in
  let a = Tu.random_perm ~seed:19 n in
  (* Idle session: open + close touches nothing, holds nothing. *)
  let s0 = session ctx a in
  Os.close ~drop_cache:true s0;
  Tu.check_int "idle session holds zero pool pages" 0
    (Em.Backend.Pool.resident pool);
  (* Worked session: queries warm the pool; close ~drop_cache evicts. *)
  let s = session ctx a in
  ignore (Os.select s 1);
  ignore (Os.select s (n / 2));
  ignore (Os.query s (Os.Range ((n / 2) - 8, (n / 2) + 8)));
  Tu.check_bool "queries warmed the pool" true
    (Em.Backend.Pool.resident pool > 0);
  Os.close ~drop_cache:true s;
  Tu.check_int "closed session holds zero pool pages" 0
    (Em.Backend.Pool.resident pool);
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use;
  Em.Ctx.close ctx

let suite =
  [
    Alcotest.test_case "select against the sorted oracle" `Quick test_select_oracle;
    Alcotest.test_case "quantile rank convention" `Quick test_quantile_convention;
    Alcotest.test_case "range against the sorted oracle" `Quick test_range_oracle;
    Alcotest.test_case "rank validation" `Quick test_out_of_range_ranks;
    Alcotest.test_case "intervals only split, never re-merge" `Quick
      test_intervals_monotone;
    Alcotest.test_case "children partition their leaf in order" `Quick
      test_children_partition;
    Alcotest.test_case "split children shrink their leaf" `Quick test_split_progress;
    Alcotest.test_case "input unchanged after splits" `Quick test_input_preserved;
    Alcotest.test_case "all-equal keys make progress" `Quick test_equal_keys_progress;
    Alcotest.test_case "first select within four scans" `Quick test_first_select_cost;
    prop_full_stream_matches_batch;
    Alcotest.test_case "all ranks at M=32, B=4" `Quick test_all_ranks_tiny_memory;
    Alcotest.test_case "warm select loop matches batch" `Quick test_warm_selects_match_batch;
    prop_counters_match_recount;
    Alcotest.test_case "counters after budget and fault aborts" `Quick
      test_counters_after_aborts;
    Alcotest.test_case "counters after restore" `Quick test_counters_after_restore;
    Alcotest.test_case "restored flat level of 1000+ leaves vs oracle" `Quick
      (test_restored_flat_oracle ~mem:1024);
    Alcotest.test_case "restored flat level at M=256 splits big buckets" `Quick
      (test_restored_flat_oracle ~mem:256);
    Alcotest.test_case "zero pool pages after close" `Quick
      test_zero_pool_pages_after_close;
  ]
