(* Crash-survivable online sessions (Emalg.Online_select snapshot/restore):
   a kill between queries — the session object dropped without [close],
   buffer-pool pages and the memory ledger wiped — followed by [restore]
   from the attached checkpoint store must reproduce the lost session
   exactly: same leaf partition, same summary counters, same answers, and
   the same subsequent query costs as an uninterrupted twin.  Exercised on
   sim, file and cached backends at D in {1, 4}. *)

module Os = Emalg.Online_select

let n = 6_000
let mem = 1_024
let block = 16

let queries_before = [ Os.Select (n / 2); Os.Quantile 0.1; Os.Select 17 ]
let queries_after = [ Os.Select ((n / 2) + 3); Os.Range (40, 50); Os.Select (n / 2) ]

let with_ctx ~backend ~disks f =
  let run dir =
    let ctx : int Em.Ctx.t =
      Em.Ctx.create ~backend ?backend_dir:dir ~disks (Em.Params.create ~mem ~block)
    in
    Fun.protect ~finally:(fun () -> Em.Ctx.close ctx) (fun () -> f ctx)
  in
  if backend = Em.Backend.File then (
    let dir = Filename.temp_file "em_restore" ".d" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Unix.rmdir dir)
      (fun () -> run (Some dir)))
  else run None

let open_checkpointed ctx =
  let v = Em.Vec.of_array ctx (Tu.random_perm ~seed:5 n) in
  let s = Os.open_session (Em.Ctx.counted ctx Tu.icmp) ctx v in
  ignore (Os.enable_checkpoints ~every_splits:2 s);
  (v, s)

let kill_and_restore ctx v s =
  let store = match Os.checkpoint_store s with Some st -> st | None -> assert false in
  (* kill -9: drop the session without closing it — the tree skeleton in
     RAM dies, the device and checkpoint region survive; pool pages and the
     memory ledger are wiped like a process death would. *)
  (match Em.Ctx.backend_pool ctx with
  | Some pool -> Em.Backend.Pool.drop_all pool
  | None -> ());
  Em.Stats.wipe_memory ctx.Em.Ctx.stats;
  Os.restore ~every_splits:2 (Em.Ctx.counted ctx Tu.icmp) ctx v store

let summaries_equal what (a : Os.summary) (b : Os.summary) =
  Tu.check_int (what ^ ": queries") a.Os.queries b.Os.queries;
  Tu.check_int (what ^ ": refine_ios") a.Os.refine_ios b.Os.refine_ios;
  Tu.check_int (what ^ ": answer_ios") a.Os.answer_ios b.Os.answer_ios;
  Tu.check_int (what ^ ": splits") a.Os.splits b.Os.splits;
  Tu.check_int (what ^ ": leaves") a.Os.leaves b.Os.leaves;
  Tu.check_int (what ^ ": sorted_leaves") a.Os.sorted_leaves b.Os.sorted_leaves

let intervals_equal what a b =
  Tu.check_bool (what ^ ": leaf partitions equal") true (a = b)

(* The oracle twin: the same stream uninterrupted, on its own machine. *)
let twin_costs ~backend ~disks () =
  with_ctx ~backend ~disks (fun ctx ->
      let _, s = open_checkpointed ctx in
      List.iter (fun q -> ignore (Os.query s q)) queries_before;
      let replies = List.map (fun q -> Os.query s q) queries_after in
      let costs =
        List.map
          (fun (r : int Os.reply) ->
            (Array.to_list r.Os.values, Em.Stats.delta_ios r.Os.cost, r.Os.splits))
          replies
      in
      (costs, Os.summary s, Os.intervals s))

let test_round_trip ~backend ~disks () =
  let twin, twin_summary, twin_intervals = twin_costs ~backend ~disks () in
  with_ctx ~backend ~disks (fun ctx ->
      let v, s = open_checkpointed ctx in
      List.iter (fun q -> ignore (Os.query s q)) queries_before;
      let pre_summary = Os.summary s in
      let pre_intervals = Os.intervals s in
      let s = kill_and_restore ctx v s in
      (* The restored session IS the lost one: partition and counters. *)
      summaries_equal "restored summary" pre_summary (Os.summary s);
      intervals_equal "restored intervals" pre_intervals (Os.intervals s);
      (* Subsequent queries: same values, same costs, same splits as the
         uninterrupted twin — sorted runs and buckets were re-referenced,
         not rebuilt. *)
      List.iter2
        (fun q (values, ios, splits) ->
          let r = Os.query s q in
          Tu.check_bool "restored answer equals twin" true
            (Array.to_list r.Os.values = values);
          Tu.check_int "restored query cost equals twin" ios
            (Em.Stats.delta_ios r.Os.cost);
          Tu.check_int "restored query splits equal twin" splits r.Os.splits)
        queries_after twin;
      summaries_equal "final summary equals twin" twin_summary (Os.summary s);
      intervals_equal "final intervals equal twin" twin_intervals (Os.intervals s);
      Os.close ~drop_cache:true s;
      (* Pre-kill refinement vectors the dead session referenced are
         orphaned garbage by design — the ledger must still drain. *)
      Tu.check_no_leaks ~live:(-1) ctx)

(* A second kill immediately after the first (no queries in between) must
   also work: restore, then kill, then restore again. *)
let test_double_kill () =
  with_ctx ~backend:Em.Backend.Sim ~disks:1 (fun ctx ->
      let v, s = open_checkpointed ctx in
      List.iter (fun q -> ignore (Os.query s q)) queries_before;
      let pre = Os.summary s in
      let s = kill_and_restore ctx v s in
      let s = kill_and_restore ctx v s in
      summaries_equal "double restore" pre (Os.summary s);
      Tu.check_int "select still exact" ((n / 2) - 1) (Os.select s (n / 2));
      Os.close ~drop_cache:true s;
      Tu.check_no_leaks ~live:(-1) ctx)

(* Restoring a pristine session (baseline checkpoint only, nothing refined)
   must hand back a session that still answers everything from scratch. *)
let test_restore_pristine () =
  with_ctx ~backend:Em.Backend.Sim ~disks:1 (fun ctx ->
      let v, s = open_checkpointed ctx in
      let s = kill_and_restore ctx v s in
      Tu.check_int "pristine restore answers" (n - 1) (Os.select s n);
      Os.close ~drop_cache:true s;
      Tu.check_no_leaks ~live:(-1) ctx)

(* The save/restore cost model: saves charge ceil(words/B) writes under the
   "checkpoint" phase, the restore pays one metered resume read — and the
   snapshot is handle-sized, orders of magnitude below the data. *)
let test_checkpoint_costs () =
  with_ctx ~backend:Em.Backend.Sim ~disks:1 (fun ctx ->
      let v, s = open_checkpointed ctx in
      List.iter (fun q -> ignore (Os.query s q)) queries_before;
      let snap = Os.snapshot s in
      Tu.check_bool "snapshot is handle-sized" true (Os.snapshot_words snap < n / 4);
      let store = match Os.checkpoint_store s with Some st -> st | None -> assert false in
      Tu.check_bool "policy saved at least the baseline" true (Em.Checkpoint.saves store >= 1);
      Tu.check_bool "saves charged metered writes" true (Em.Checkpoint.save_ios store >= 1);
      let loads0 = Em.Checkpoint.loads store in
      let s = kill_and_restore ctx v s in
      Tu.check_int "restore paid one load" (loads0 + 1) (Em.Checkpoint.loads store);
      Tu.check_bool "resume read metered" true (Em.Checkpoint.load_ios store >= 1);
      Os.close ~drop_cache:true s;
      Tu.check_no_leaks ~live:(-1) ctx)

let suite =
  let rt name backend disks =
    Alcotest.test_case
      (Printf.sprintf "round trip %s D=%d" name disks)
      `Quick (test_round_trip ~backend ~disks)
  in
  [
    rt "sim" Em.Backend.Sim 1;
    rt "sim" Em.Backend.Sim 4;
    rt "file" Em.Backend.File 1;
    rt "file" Em.Backend.File 4;
    rt "cached" (Em.Backend.Cached Em.Backend.Sim) 1;
    rt "cached" (Em.Backend.Cached Em.Backend.Sim) 4;
    Alcotest.test_case "double kill" `Quick test_double_kill;
    Alcotest.test_case "restore pristine" `Quick test_restore_pristine;
    Alcotest.test_case "checkpoint costs" `Quick test_checkpoint_costs;
  ]
