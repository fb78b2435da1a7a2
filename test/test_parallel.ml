(* Parallel-disk model: striping, round accounting, and the prefetch /
   write-behind pipelines.

   The load-bearing invariant, checked from several directions: adding
   disks changes *scheduling* (the round count), never *work* — outputs,
   read/write/comparison totals and [mem_peak <= M] are identical at D = 1
   and D = k for every algorithm, and rounds always sit in the
   [ceil(ios / D), ios] band (collapsing to ios exactly at D = 1).

   Per-physical-slot counts are D-invariant only while allocation is fresh:
   the allocator keeps one LIFO free list per disk, so once an algorithm
   frees scratch vectors, slot *recycling* order legitimately depends on D.
   The pipeline props below therefore check per-block counts on fresh
   vectors, and the algorithm prop checks totals. *)

let per_block op evs =
  let h = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.Em.Trace.op = op then
        Hashtbl.replace h e.Em.Trace.block
          (1 + Option.value ~default:0 (Hashtbl.find_opt h e.Em.Trace.block)))
    evs;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

let traced_ctx ?plan ~disks () =
  let trace = Em.Trace.create () in
  let sink, events = Em.Trace.collector () in
  Em.Trace.add_sink trace sink;
  let ctx : int Em.Ctx.t = Em.Ctx.create ~trace ~disks (Tu.params ()) in
  (match plan with
  | Some p ->
      Em.Ctx.inject ctx p;
      Em.Ctx.arm ctx
  | None -> ());
  (ctx, events)

(* ---- (a) algorithm outputs and per-block I/Os are D-invariant ---- *)

let algos n =
  let spec = { Core.Problem.n; k = 8; a = 0; b = ((n / 4) + 7) / 8 * 8 } in
  let ranks = [| 1; (n / 2) + 1; n |] in
  [
    ("sort", fun cmp v -> Em.Vec.Oracle.to_array (Emalg.External_sort.sort cmp v));
    ("multiselect", fun cmp v -> Core.Multi_select.select cmp v ~ranks);
    ("splitters", fun cmp v -> Em.Vec.Oracle.to_array (Core.Splitters.solve cmp v spec));
    ( "partitioning",
      fun cmp v ->
        let parts = Core.Partitioning.solve cmp v spec in
        Array.concat
          (Array.to_list (Array.map (fun p -> [| Em.Vec.length p |]) parts)
          @ Array.to_list (Array.map Em.Vec.Oracle.to_array parts)) );
  ]

let run_algo ~disks ~seed ~n (_, algo) =
  let ctx, events = traced_ctx ~disks () in
  let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed ~n in
  let cmp = Em.Ctx.counted ctx Tu.icmp in
  let out, d = Em.Ctx.measured ctx (fun () -> algo cmp v) in
  let evs = events () in
  let peak = ctx.Em.Ctx.stats.Em.Stats.mem_peak in
  Em.Ctx.close ctx;
  (out, d, evs, peak)

let prop_d_invariant =
  Tu.qcheck_case ~count:20
    "every algorithm: output, reads, writes, comparisons identical at D=1 and D=k"
    QCheck2.Gen.(triple (int_range 2 8) (int_range 200 1200) (int_range 0 999))
    (fun (disks, n, seed) ->
      List.for_all
        (fun algo ->
          let o1, d1, e1, _ = run_algo ~disks:1 ~seed ~n algo in
          let ok, dk, ek, peak = run_algo ~disks ~seed ~n algo in
          o1 = ok
          && d1.Em.Stats.d_reads = dk.Em.Stats.d_reads
          && d1.Em.Stats.d_writes = dk.Em.Stats.d_writes
          && d1.Em.Stats.d_comparisons = dk.Em.Stats.d_comparisons
          && List.length e1 = List.length ek
          && peak <= 256)
        (algos n))

(* ---- (b) round accounting stays in the [ceil(ios/D), ios] band ---- *)

let prop_round_bounds =
  Tu.qcheck_case ~count:25
    "rounds in [ceil(ios/D), ios]; rounds = ios exactly at D = 1"
    QCheck2.Gen.(triple (int_range 1 8) (int_range 200 1200) (int_range 0 999))
    (fun (disks, n, seed) ->
      List.for_all
        (fun algo ->
          let _, d, _, _ = run_algo ~disks ~seed ~n algo in
          let ios = Em.Stats.delta_ios d and rounds = d.Em.Stats.d_rounds in
          rounds <= ios
          && rounds >= (ios + disks - 1) / disks
          && (disks > 1 || rounds = ios))
        (algos n))

(* ---- per-disk balance: striping spreads a vector evenly ---- *)

let prop_striping_balance =
  Tu.qcheck_case ~count:50 "striping: per-disk block counts of a vec differ by <= 1"
    QCheck2.Gen.(triple (int_range 1 8) (int_range 1 2000) (int_range 0 999))
    (fun (disks, n, seed) ->
      let ctx : int Em.Ctx.t = Em.Ctx.create ~disks (Tu.params ()) in
      let v = Tu.int_vec ctx (Tu.random_ints ~seed ~bound:1_000_000 n) in
      let counts = Array.make disks 0 in
      Array.iter
        (fun id ->
          let disk = Em.Device.disk_of_block ctx.Em.Ctx.dev id in
          counts.(disk) <- counts.(disk) + 1)
        (Em.Vec.block_ids v);
      let mx = Array.fold_left max 0 counts
      and mn = Array.fold_left min max_int counts in
      Em.Ctx.close ctx;
      mx - mn <= 1)

(* ---- (c) pipelined readers deliver the unbuffered element sequence ---- *)

(* Drain [r] with a seed-determined mix of peek/next/take; the same seed
   replays the same op sequence on another reader over the same data. *)
let drain_reader ~seed r =
  let rng = Tu.rng seed in
  let out = ref [] in
  while Em.Reader.has_next r do
    match Tu.next_int rng 4 with
    | 0 -> out := Em.Reader.take r (1 + Tu.next_int rng 40) :: !out
    | 1 ->
        ignore (Em.Reader.peek r : int);
        out := [| Em.Reader.next r |] :: !out
    | _ -> out := [| Em.Reader.next r |] :: !out
  done;
  Array.concat (List.rev !out)

(* Plans are stateful (every_nth counts decisions), so each run builds a
   fresh one — sharing a plan between the two runs being compared would
   resume its counter mid-stream and fault different reads. *)
let fault_plans =
  [
    ("no faults", None);
    ( "transient reads",
      Some
        (fun () ->
          Em.Fault.on_op `Read (Em.Fault.every_nth ~n:5 Em.Fault.Transient_read))
    );
    ( "seeded mix",
      Some
        (fun () ->
          Em.Fault.seeded ~seed:42 ~p:0.05
            [ Em.Fault.Transient_read; Em.Fault.Transient_write ]) );
  ]

let prop_reader_pipeline =
  Tu.qcheck_case ~count:30
    "prefetch reader: same elements, same per-block reads (incl. under faults)"
    QCheck2.Gen.(
      quad (int_range 1 8) (int_range 1 600) (int_range 0 999) (int_range 0 999))
    (fun (prefetch, n, seed, script) ->
      let data = Tu.random_ints ~seed ~bound:1_000_000 n in
      List.for_all
        (fun (_, make_plan) ->
          let run pf =
            let plan = Option.map (fun mk -> mk ()) make_plan in
            let ctx, events = traced_ctx ?plan ~disks:(1 + (prefetch mod 4)) () in
            let v = Tu.int_vec ctx data in
            let r = Em.Reader.open_vec ~prefetch:pf v in
            let out = drain_reader ~seed:script r in
            Em.Reader.close r;
            let evs = events () in
            let drained = ctx.Em.Ctx.stats.Em.Stats.mem_in_use in
            Em.Ctx.close ctx;
            (out, per_block Em.Trace.Read evs, drained)
          in
          let out0, blocks0, drained0 = run 0 in
          let outk, blocksk, drainedk = run prefetch in
          out0 = outk && out0 = data && blocks0 = blocksk && drained0 = 0
          && drainedk = 0)
        fault_plans)

(* ---- (c) write-behind writers produce the unbuffered writes ---- *)

let prop_writer_pipeline =
  Tu.qcheck_case ~count:30
    "write-behind writer: same vector, same per-block writes"
    QCheck2.Gen.(triple (int_range 1 8) (int_range 1 600) (int_range 0 999))
    (fun (wb, n, seed) ->
      let data = Tu.random_ints ~seed ~bound:1_000_000 n in
      let run wb =
        let ctx, events = traced_ctx ~disks:(1 + (wb mod 4)) () in
        let v = Em.Writer.with_writer ~write_behind:wb ctx (fun w ->
            Array.iter (Em.Writer.push w) data)
        in
        let out = Em.Vec.Oracle.to_array v in
        let evs = events () in
        let writes = ctx.Em.Ctx.stats.Em.Stats.writes in
        Em.Ctx.close ctx;
        (out, per_block Em.Trace.Write evs, writes)
      in
      run 0 = run wb)

(* ---- Reader.take at block boundaries: every block read exactly once ---- *)

let test_take_boundary_reads () =
  let trace = Em.Trace.create () in
  let sink, events = Em.Trace.collector () in
  Em.Trace.add_sink trace sink;
  let ctx : int Em.Ctx.t = Em.Ctx.create ~trace (Tu.params ~mem:256 ~block:16 ()) in
  let n = 100 in
  let v = Tu.int_vec ctx (Array.init n Fun.id) in
  let r = Em.Reader.open_vec v in
  (* Takes that start mid-block, end mid-block, cover whole blocks, and
     leave a partial tail — the shapes that historically double-charged.
     (Let-bound: array-literal element order of evaluation is unspecified.) *)
  let t1 = Em.Reader.take r 7 in
  let t2 = [| Em.Reader.next r |] in
  let t3 = Em.Reader.take r 24 in
  (* exactly to a block boundary *)
  let t4 = Em.Reader.take r 16 in
  let t5 = Em.Reader.take r 52 in
  let got = Array.concat [ t1; t2; t3; t4; t5 ] in
  Tu.check_int "everything delivered" n (Array.length got);
  Tu.check_int_array "in order" (Array.init n Fun.id) got;
  Em.Reader.close r;
  let reads = per_block Em.Trace.Read (events ()) in
  Tu.check_int "every block read" (Array.length (Em.Vec.block_ids v))
    (List.length reads);
  List.iter
    (fun (block, count) ->
      if count <> 1 then
        Alcotest.failf "block %d read %d times (expected exactly once)" block count)
    reads;
  Tu.check_no_leaks ~live:(Em.Vec.num_blocks v) ctx

(* ---- write-behind queues drain under memory pressure (reclaimers) ---- *)

(* Behind a buffer pool the drain itself admits pool pages, so it frees
   fewer words than it had queued: the pool must still be asked for the
   rest, or the charge below overflows. *)
let test_writer_reclaims_under_pressure ?backend () =
  let ctx = Tu.ctx ?backend () in
  (* 256-word budget, B = 16. *)
  let w = Em.Writer.create ~write_behind:4 ctx in
  for i = 0 to 47 do
    Em.Writer.push w i
  done;
  (* Base buffer + 3 queued blocks = 64 words held by the writer. *)
  Tu.check_int "queue held" 64 ctx.Em.Ctx.stats.Em.Stats.mem_in_use;
  (* A 224-word charge only fits if the queue drains (64 + 224 > 256). *)
  Em.Ctx.with_words ctx 224 (fun () ->
      Tu.check_int "queue drained to make room" (16 + 224)
        ctx.Em.Ctx.stats.Em.Stats.mem_in_use);
  let v = Em.Writer.finish w in
  Tu.check_int "all elements written" 48 (Em.Vec.length v);
  Tu.check_int_array "contents intact" (Array.init 48 Fun.id)
    (Em.Vec.Oracle.to_array v);
  Tu.check_int "per-block writes preserved (3 blocks, once each)" 3
    ctx.Em.Ctx.stats.Em.Stats.writes;
  Tu.check_no_leaks ~live:(Em.Vec.num_blocks v) ctx

(* ---- merge stability is D-invariant (forecasting must not reorder) ---- *)

let test_merge_stability_across_disks () =
  (* Duplicate keys across runs: ties must resolve by run index at any D. *)
  let runs = [ [| 1; 3; 3; 9 |]; [| 1; 2; 3; 9; 9 |]; [| 3; 3; 9 |] ] in
  let merged disks =
    let ctx : (int * int) Em.Ctx.t = Em.Ctx.create ~disks (Tu.params ()) in
    let vecs = List.mapi (fun i a -> Em.Vec.of_array ctx (Array.map (fun x -> (x, i)) a)) runs in
    let out =
      Emalg.Merge.merge (fun (x, _) (y, _) -> Tu.icmp x y) vecs
    in
    let a = Em.Vec.Oracle.to_array out in
    Em.Vec.free out;
    List.iter Em.Vec.free vecs;
    Em.Ctx.close ctx;
    a
  in
  let reference = merged 1 in
  List.iter
    (fun d ->
      Tu.check_bool (Printf.sprintf "stable merge identical at D=%d" d) true
        (merged d = reference))
    [ 2; 4; 8 ]

(* ---- online sessions: query streams are D-invariant ---- *)

module Os = Emalg.Online_select

let online_stream n =
  [
    Os.Select (n / 2);
    Os.Select 1;
    Os.Range (max 1 ((n / 4) - 8), min n ((n / 4) + 8));
    Os.Quantile 0.9;
    Os.Select (n / 2);
  ]

let run_online ~disks ~seed ~n =
  let ctx : int Em.Ctx.t = Em.Ctx.create ~disks (Tu.params ()) in
  let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed ~n in
  let cmp = Em.Ctx.counted ctx Tu.icmp in
  let s = Os.open_session cmp ctx v in
  let replies = List.map (Os.query s) (online_stream n) in
  Os.close s;
  let peak = ctx.Em.Ctx.stats.Em.Stats.mem_peak in
  Em.Ctx.close ctx;
  (replies, peak)

let prop_online_d_invariant =
  Tu.qcheck_case ~count:25
    "online sessions: per-query values/reads/writes/comparisons identical at \
     any D; rounds in band"
    QCheck2.Gen.(triple (int_range 2 8) (int_range 200 1200) (int_range 0 999))
    (fun (disks, n, seed) ->
      let r1, _ = run_online ~disks:1 ~seed ~n in
      let rk, peak = run_online ~disks ~seed ~n in
      peak <= 256
      && List.for_all2
           (fun (a : int Os.reply) (b : int Os.reply) ->
             let ios = Em.Stats.delta_ios b.Os.cost in
             a.Os.values = b.Os.values
             && a.Os.cost.Em.Stats.d_reads = b.Os.cost.Em.Stats.d_reads
             && a.Os.cost.Em.Stats.d_writes = b.Os.cost.Em.Stats.d_writes
             && a.Os.cost.Em.Stats.d_comparisons
                = b.Os.cost.Em.Stats.d_comparisons
             && a.Os.splits = b.Os.splits
             (* D = 1 schedules serially; D = k stays in the band. *)
             && a.Os.cost.Em.Stats.d_rounds = Em.Stats.delta_ios a.Os.cost
             && b.Os.cost.Em.Stats.d_rounds <= ios
             && b.Os.cost.Em.Stats.d_rounds >= (ios + disks - 1) / disks)
           r1 rk)

(* A query stream issued inside an already-open scheduling window must still
   report per-query round costs (Stats.effective_rounds brackets the pending
   window), and those brackets telescope exactly to the window's total. *)
let test_online_window_nesting () =
  let disks = 4 in
  let ctx : int Em.Ctx.t = Em.Ctx.create ~disks (Tu.params ()) in
  let n = 1_000 in
  let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed:21 ~n in
  let s = Os.open_session (Em.Ctx.counted ctx Tu.icmp) ctx v in
  let stats = ctx.Em.Ctx.stats in
  let snap = Em.Stats.snapshot stats in
  let replies =
    Em.Ctx.io_window ctx (fun () -> List.map (Os.query s) (online_stream n))
  in
  let total = Em.Stats.delta stats snap in
  List.iter
    (fun (r : int Os.reply) ->
      let ios = Em.Stats.delta_ios r.Os.cost in
      Tu.check_bool "per-query rounds bracketed inside the window" true
        (r.Os.cost.Em.Stats.d_rounds >= 0 && r.Os.cost.Em.Stats.d_rounds <= ios))
    replies;
  (* The first query refines a 1000-element tree: its I/Os overlap across
     the disks, so its in-window round bracket must compress. *)
  (match replies with
  | r :: _ ->
      Tu.check_bool "refining query compresses rounds" true
        (r.Os.cost.Em.Stats.d_rounds < Em.Stats.delta_ios r.Os.cost)
  | [] -> Alcotest.fail "no replies");
  Tu.check_int "per-query round brackets telescope to the window total"
    total.Em.Stats.d_rounds
    (List.fold_left (fun acc (r : int Os.reply) -> acc + r.Os.cost.Em.Stats.d_rounds) 0 replies);
  Tu.check_bool "the shared window compresses the stream" true
    (total.Em.Stats.d_rounds < Em.Stats.delta_ios total);
  Os.close s;
  Em.Ctx.close ctx

let suite =
  [
    prop_d_invariant;
    prop_round_bounds;
    prop_online_d_invariant;
    Alcotest.test_case "online queries inside an open window" `Quick
      test_online_window_nesting;
    prop_striping_balance;
    prop_reader_pipeline;
    prop_writer_pipeline;
    Alcotest.test_case "take reads each boundary block once" `Quick
      test_take_boundary_reads;
    Alcotest.test_case "write-behind drains under memory pressure" `Quick
      (fun () -> test_writer_reclaims_under_pressure ());
    Alcotest.test_case "cached write-behind drain asks the pool too" `Quick
      (test_writer_reclaims_under_pressure ~backend:(Em.Backend.Cached Em.Backend.Sim));
    Alcotest.test_case "merge stability across D" `Quick
      test_merge_stability_across_disks;
  ]
