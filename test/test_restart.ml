(* Crash-restart harness: restartable external sort and multi-selection
   resume from checkpoint boundaries, produce oracle-identical output, and
   stay within the k-crash I/O bound. *)

let mem_ok what (ctx : _ Em.Ctx.t) =
  Tu.check_bool what true (ctx.Em.Ctx.stats.Em.Stats.mem_peak <= ctx.Em.Ctx.params.Em.Params.mem)

(* Run the restartable sort on a fresh armed machine under [plan], with a
   span profiler attached; return (outcome, sorted-array-or-None, total
   ios, ctx, profiler). *)
let run_sort ?plan ?disks ?mem ?block data =
  let ctx : int Em.Ctx.t = Em.Ctx.create ?disks (Tu.params ?mem ?block ()) in
  let profiler = Em.Profile.create () in
  Em.Profile.attach profiler ctx.Em.Ctx.stats;
  Em.Ctx.arm ctx;
  (match plan with Some p -> Em.Ctx.inject ctx p | None -> ());
  let v = Tu.int_vec ctx data in
  let out = Emalg.External_sort.restartable Tu.icmp v in
  let sorted =
    match out.Emalg.Restart.result with
    | Ok sv ->
        let a = Em.Vec.Oracle.to_array sv in
        Em.Vec.free sv;
        Some a
    | Error _ -> None
  in
  Em.Vec.free v;
  (out, sorted, Em.Stats.ios ctx.Em.Ctx.stats, ctx, profiler)

let test_sort_crash_free () =
  let data = Tu.random_ints ~seed:11 ~bound:10_000 600 in
  let out, sorted, _, ctx, _ = run_sort data in
  (match sorted with
  | None -> Alcotest.fail "crash-free sort must succeed"
  | Some a -> Tu.check_int_array "sorted output" (Tu.sorted_copy data) a);
  Tu.check_int "no restarts" 0 out.Emalg.Restart.restarts;
  Tu.check_bool "checkpointed at step boundaries" true (out.Emalg.Restart.saves > 1);
  Tu.check_int "no resumes" 0 out.Emalg.Restart.loads;
  mem_ok "mem within M" ctx;
  Tu.check_no_leaks ctx;
  (* The restartable sort runs the plain sort's own steps: without crashes
     it reads and compares exactly as much, and writes only the checkpoint
     saves on top.  Both geometries need two merge passes. *)
  List.iter
    (fun (mem, block, n) ->
      let cost f =
        let ctx = Tu.ctx ~mem ~block () in
        let v = Tu.int_vec ctx (Tu.random_perm ~seed:mem n) in
        let cmp = Em.Ctx.counted ctx Tu.icmp in
        snd (Em.Ctx.measured ctx (fun () -> f cmp v))
      in
      let what field = Printf.sprintf "M=%d B=%d n=%d: %s" mem block n field in
      let plain = cost (fun cmp v -> Em.Vec.free (Emalg.External_sort.sort cmp v)) in
      let save_ios = ref (-1) in
      let restartable =
        cost (fun cmp v ->
            let out = Emalg.External_sort.restartable cmp v in
            save_ios := out.Emalg.Restart.save_ios;
            match out.Emalg.Restart.result with
            | Ok sv -> Em.Vec.free sv
            | Error e -> Alcotest.failf "%s" (Em.Em_error.to_string e))
      in
      Tu.check_int (what "reads") plain.Em.Stats.d_reads restartable.Em.Stats.d_reads;
      Tu.check_int (what "comparisons") plain.Em.Stats.d_comparisons
        restartable.Em.Stats.d_comparisons;
      Tu.check_bool (what "checkpoints written") true (!save_ios > 0);
      Tu.check_int (what "writes = plain + saves")
        (plain.Em.Stats.d_writes + !save_ios)
        restartable.Em.Stats.d_writes)
    [ (256, 16, 4_096); (512, 16, 50_000) ]

let test_sort_survives_crashes () =
  let data = Tu.random_ints ~seed:12 ~bound:10_000 600 in
  let _, _, crash_free_ios, _, _ = run_sort data in
  (* Crash three times mid-computation, spread across the run. *)
  let plan =
    Em.Fault.crash_at
      [ crash_free_ios / 4; crash_free_ios / 2; (3 * crash_free_ios) / 4 ]
  in
  let out, sorted, _, ctx, _ = run_sort ~plan data in
  (match sorted with
  | None -> Alcotest.fail "sort must survive crashes"
  | Some a -> Tu.check_int_array "sorted output after crashes" (Tu.sorted_copy data) a);
  Tu.check_int "three restarts" 3 out.Emalg.Restart.restarts;
  Tu.check_int "one resume per restart" 3 out.Emalg.Restart.loads;
  mem_ok "mem within M even through recovery" ctx;
  (* Crashed steps may orphan disk blocks (acceptable garbage); the memory
     ledger must still drain. *)
  Tu.check_no_leaks ~live:(-1) ctx

let test_sort_crash_cost_bound () =
  let data = Tu.random_ints ~seed:13 ~bound:10_000 600 in
  let _, _, crash_free_ios, _, _ = run_sort data in
  (* Property: for k crashes, total I/O <= crash-free I/O (which already
     includes checkpoint saves) + k * (one step's I/O) + resume reads.
     Exercise many crash schedules. *)
  List.iter
    (fun seed ->
      let rng = Em.Fault.Rng.create seed in
      let k = 1 + Em.Fault.Rng.int rng 4 in
      let schedule =
        List.init k (fun _ -> 1 + Em.Fault.Rng.int rng crash_free_ios)
      in
      let out, sorted, total_ios, _, _ = run_sort ~plan:(Em.Fault.crash_at schedule) data in
      (match sorted with
      | None -> Alcotest.fail "sort must survive crash schedule"
      | Some a -> Tu.check_int_array "oracle-identical" (Tu.sorted_copy data) a);
      let restarts = out.Emalg.Restart.restarts in
      Tu.check_bool "at least one crash fired" true (restarts >= 1);
      let bound =
        crash_free_ios
        + (restarts * out.Emalg.Restart.max_step_ios)
        + out.Emalg.Restart.load_ios
      in
      if total_ios > bound then
        Alcotest.failf "seed %d: %d ios exceeds k-crash bound %d (k = %d)" seed
          total_ios bound restarts)
    [ 101; 102; 103; 104; 105; 106; 107; 108 ]

let test_sort_gives_up_past_max_restarts () =
  let data = Tu.random_ints ~seed:14 ~bound:1_000 300 in
  let ctx = Tu.ctx () in
  Em.Ctx.arm ctx;
  (* Crash every 10 I/Os forever: cheaper than any single step, so the
     computation can never make progress. *)
  Em.Ctx.inject ctx (Em.Fault.every_nth ~n:10 Em.Fault.Crash);
  let v = Tu.int_vec ctx data in
  let out = Emalg.External_sort.restartable ~max_restarts:2 Tu.icmp v in
  (match out.Emalg.Restart.result with
  | Ok _ -> Alcotest.fail "expected to give up"
  | Error (Em.Em_error.Crashed _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Em.Em_error.to_string e));
  Tu.check_int "stopped at the cap" 2 out.Emalg.Restart.restarts

let run_select ?plan data ranks =
  let ctx = Tu.ctx () in
  Em.Ctx.arm ctx;
  (match plan with Some p -> Em.Ctx.inject ctx p | None -> ());
  let v = Tu.int_vec ctx data in
  let out = Core.Restartable.select Tu.icmp v ~ranks in
  (out, Em.Stats.ios ctx.Em.Ctx.stats, ctx, v)

let test_select_crash_free () =
  let data = Tu.random_ints ~seed:21 ~bound:100_000 900 in
  let ranks = Array.init 40 (fun i -> (i * 22) + 5) in
  let out, _, ctx, v = run_select data ranks in
  (match out.Emalg.Restart.result with
  | Error e -> Alcotest.failf "crash-free select failed: %s" (Em.Em_error.to_string e)
  | Ok selected ->
      Tu.check_ok "oracle-verified" (Core.Verify.multi_select Tu.icmp ~input:data ~ranks selected));
  Tu.check_int "no restarts" 0 out.Emalg.Restart.restarts;
  mem_ok "mem within M" ctx;
  Em.Vec.free v;
  Tu.check_no_leaks ctx

let test_select_survives_crashes () =
  let data = Tu.random_ints ~seed:22 ~bound:100_000 900 in
  let ranks = Array.init 40 (fun i -> (i * 22) + 3) in
  let _, crash_free_ios, _, _ = run_select data ranks in
  List.iter
    (fun seed ->
      let rng = Em.Fault.Rng.create seed in
      let k = 1 + Em.Fault.Rng.int rng 3 in
      let schedule =
        List.init k (fun _ -> 1 + Em.Fault.Rng.int rng crash_free_ios)
      in
      let out, total_ios, ctx, v = run_select ~plan:(Em.Fault.crash_at schedule) data ranks in
      (match out.Emalg.Restart.result with
      | Error e ->
          Alcotest.failf "seed %d: select failed: %s" seed (Em.Em_error.to_string e)
      | Ok selected ->
          Tu.check_ok "oracle-verified after crashes"
            (Core.Verify.multi_select Tu.icmp ~input:data ~ranks selected));
      let restarts = out.Emalg.Restart.restarts in
      Tu.check_bool "at least one crash fired" true (restarts >= 1);
      let bound =
        crash_free_ios
        + (restarts * out.Emalg.Restart.max_step_ios)
        + out.Emalg.Restart.load_ios
      in
      if total_ios > bound then
        Alcotest.failf "seed %d: %d ios exceeds k-crash bound %d (k = %d)" seed
          total_ios bound restarts;
      mem_ok "mem within M through recovery" ctx;
      Em.Vec.free v;
      Tu.check_no_leaks ~live:(-1) ctx)
    [ 201; 202; 203; 204; 205 ]

let test_select_matches_multi_select () =
  (* The restartable driver must give byte-identical results to the direct
     algorithm, crash or no crash. *)
  let data = Tu.random_ints ~seed:23 ~bound:50_000 700 in
  let ranks = Array.init 30 (fun i -> (i * 23) + 7) in
  let direct =
    let ctx = Tu.ctx () in
    let v = Tu.int_vec ctx data in
    Core.Multi_select.select Tu.icmp v ~ranks
  in
  let out, _, _, _ =
    run_select ~plan:(Em.Fault.crash_at [ 150; 600 ]) data ranks
  in
  match out.Emalg.Restart.result with
  | Error e -> Alcotest.failf "select failed: %s" (Em.Em_error.to_string e)
  | Ok selected -> Tu.check_int_array "identical to Multi_select" direct selected

let test_checkpoint_ios_metered () =
  let data = Tu.random_ints ~seed:24 ~bound:1_000 400 in
  let out, _, _, _, profiler = run_sort ~plan:(Em.Fault.crash_after_ios 60) data in
  (* Checkpoint saves and resume reads run under their own phase labels and
     are charged to the global meters. *)
  let report = Em.Profile.phase_report profiler in
  Tu.check_bool "checkpoint phase metered" true (List.mem_assoc "checkpoint" report);
  Tu.check_bool "resume phase metered" true (List.mem_assoc "resume" report);
  Tu.check_bool "save ios counted" true (out.Emalg.Restart.save_ios > 0);
  Tu.check_bool "load ios counted" true (out.Emalg.Restart.load_ios > 0)

(* Checkpoint I/Os go through the same ledger update as device I/Os, so the
   single-disk identity rounds = ios survives checkpointing. *)
let test_rounds_equal_ios_at_d1 () =
  let rounds_eq_ios what (ctx : int Em.Ctx.t) =
    let st = ctx.Em.Ctx.stats in
    Tu.check_bool (what ^ ": I/Os happened") true (Em.Stats.ios st > 0);
    Tu.check_int (what ^ ": rounds = ios at D = 1") (Em.Stats.ios st) st.Em.Stats.rounds
  in
  let data = Tu.random_perm ~seed:25 4_000 in
  let out, _, _, ctx, _ = run_sort ~disks:1 ~mem:1024 ~block:16 data in
  Tu.check_bool "restartable sort saved checkpoints" true (out.Emalg.Restart.save_ios > 0);
  rounds_eq_ios "restartable sort" ctx;
  let ctx : int Em.Ctx.t = Em.Ctx.create ~disks:1 (Tu.params ~mem:1024 ~block:16 ()) in
  let s = Emalg.Online_select.open_session Tu.icmp ctx (Tu.int_vec ctx data) in
  let store = Emalg.Online_select.enable_checkpoints ~every_splits:2 s in
  List.iter (fun k -> ignore (Emalg.Online_select.select s k)) [ 2_000; 17; 3_990 ];
  Tu.check_bool "session saved checkpoints" true (Em.Checkpoint.save_ios store > 0);
  rounds_eq_ios "checkpointed online session" ctx

let suite =
  [
    Alcotest.test_case "restartable sort, crash-free" `Quick test_sort_crash_free;
    Alcotest.test_case "restartable sort survives crashes" `Quick test_sort_survives_crashes;
    Alcotest.test_case "sort k-crash I/O bound" `Quick test_sort_crash_cost_bound;
    Alcotest.test_case "sort gives up past max_restarts" `Quick
      test_sort_gives_up_past_max_restarts;
    Alcotest.test_case "restartable select, crash-free" `Quick test_select_crash_free;
    Alcotest.test_case "restartable select survives crashes" `Quick
      test_select_survives_crashes;
    Alcotest.test_case "select matches Multi_select exactly" `Quick
      test_select_matches_multi_select;
    Alcotest.test_case "checkpoint/resume I/Os are metered" `Quick
      test_checkpoint_ios_metered;
    Alcotest.test_case "rounds = ios at D = 1 with checkpoints" `Quick
      test_rounds_equal_ios_at_d1;
  ]
