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

(* ---- equivalence with the batch engine under a full rank stream ---- *)

(* A session answering all N ranks in adversarial (shuffled) order must
   produce exactly the batch multiselection output, for strictly fewer
   total I/Os than the batch engine run over the same rank set — and its
   cumulative refinement stays within a small constant of one external
   sort (the online algorithm's total-work guarantee; the constant covers
   the position-tagged distribution pass a lazy tree pays and an up-front
   sort does not). *)
let prop_full_stream_matches_batch =
  Tu.qcheck_case ~count:25
    "all-rank shuffled stream == batch multiselect, for fewer total I/Os"
    QCheck2.Gen.(pair (int_range 120 700) (int_range 0 999))
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
      let ctx2 = Tu.ctx () in
      let v2 = Tu.int_vec ctx2 a in
      let ranks = Array.init n (fun i -> i + 1) in
      let batch, dbatch =
        Em.Ctx.measured ctx2 (fun () -> Core.Multi_select.select Tu.icmp v2 ~ranks)
      in
      Em.Ctx.close ctx2;
      (* one full external sort on a third fresh machine *)
      let ctx3 = Tu.ctx () in
      let v3 = Tu.int_vec ctx3 a in
      let _, dsort =
        Em.Ctx.measured ctx3 (fun () ->
            Em.Vec.free (Emalg.External_sort.sort (Em.Ctx.counted ctx3 Tu.icmp) v3))
      in
      Em.Ctx.close ctx3;
      out = batch && drained = 0
      && sum.Os.refine_ios + sum.Os.answer_ios <= Em.Stats.delta_ios dbatch
      && sum.Os.refine_ios <= 4 * Em.Stats.delta_ios dsort)

(* ---- drains: the batch wrappers are thin session shells ---- *)

let test_pristine_drain_is_batch () =
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let n = 4_000 in
  let a = Tu.random_perm ~seed:17 n in
  let v = Tu.int_vec ctx a in
  let s = Core.Multi_select.open_session Tu.icmp v in
  let ranks = Tu.int_vec ctx [| 5; 1_000; 2_500; n |] in
  let out = Os.drain s ~ranks in
  Tu.check_int_array "pristine drain = batch answers"
    [| 4; 999; 2_499; n - 1 |]
    (Em.Vec.Oracle.to_array out);
  (* The pristine drain delegated to the batch plan: the tree is untouched
     (still one raw leaf) and the session accounted no queries. *)
  let sum = Os.summary s in
  Tu.check_int "no per-query accounting" 0 sum.Os.queries;
  Tu.check_int "tree untouched" 1 sum.Os.leaves;
  Em.Vec.free out;
  Em.Vec.free ranks;
  Os.close s;
  Tu.check_no_leaks ~live:(Em.Vec.num_blocks v) ctx

let test_warm_drain_matches_batch () =
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let n = 4_000 in
  let a = Tu.random_ints ~seed:18 ~bound:50 n in
  let ranks = [| 3; 700; 1_999; 2_000; 3_999 |] in
  (* warm session: a query first, then a streaming drain *)
  let s = session ctx a in
  ignore (Os.select s (n / 3));
  let rv = Tu.int_vec ctx ranks in
  let out = Em.Vec.Oracle.to_array (Os.drain s ~ranks:rv) in
  Os.close s;
  (* batch reference on a fresh machine *)
  let ctx2 = Tu.ctx ~mem:1024 ~block:16 () in
  let batch = Core.Multi_select.select Tu.icmp (Tu.int_vec ctx2 a) ~ranks in
  Tu.check_int_array "warm streaming drain = batch answers" batch out

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
  Os.enable_checkpoints s;
  List.iter (fun k -> ignore (Os.select s k)) [ 1; n / 3; n / 2; n ];
  Os.checkpoint s;
  let before = Os.summary s in
  let store = Option.get (Os.checkpoint_store s) in
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
   small position-tagged buckets, and a few buckets too big to sort in one
   load (which must split under the flat level). *)
let test_restored_flat_oracle () =
  let n = 30_000 in
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
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
  Tu.check_bool "an oversized bucket split under the flat level" true
    ((Os.summary s).Os.splits > 0);
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
    prop_full_stream_matches_batch;
    Alcotest.test_case "pristine drain delegates to the batch plan" `Quick
      test_pristine_drain_is_batch;
    Alcotest.test_case "warm drain streams through the session" `Quick
      test_warm_drain_matches_batch;
    prop_counters_match_recount;
    Alcotest.test_case "counters after budget and fault aborts" `Quick
      test_counters_after_aborts;
    Alcotest.test_case "counters after restore" `Quick test_counters_after_restore;
    Alcotest.test_case "restored flat level of 1000+ leaves vs oracle" `Quick
      test_restored_flat_oracle;
    Alcotest.test_case "zero pool pages after close" `Quick
      test_zero_pool_pages_after_close;
  ]
