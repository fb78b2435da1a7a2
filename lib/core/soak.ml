(* Chaos soak harness for online multiselection sessions.

   Drives one session through a seeded adversarial query stream — under an
   optional seeded transient-fault plan — with scheduled kills between
   queries: the session object is dropped without being closed (the tree
   skeleton in RAM dies, the device and checkpoint region survive, pool
   pages and the memory ledger are wiped like [Restart.drive]'s recovery),
   then rebuilt with [Online_select.restore].  A crash-free oracle twin runs
   the identical stream under the identical checkpoint policy, so its saves
   mirror the chaos run's and the comparison isolates the crash overhead:
   the chaos run may additionally pay only its resume loads plus, per crash,
   at most one re-checkpoint and one re-sorted memory load (the session
   checkpoints at the end of every refining query, so a kill between queries
   loses no refinement; the allowance is headroom for the policy's
   mid-refinement granularity).

   The stream is select/quantile-only: a range query can finalise several
   leaves between two automatic saves, which would widen the per-crash
   re-sort allowance beyond "one memory load" (ranges are exercised by the
   serve tests instead). *)

module Os = Emalg.Online_select

type config = {
  n : int;
  mem : int;
  block : int;
  disks : int;
  backend : Em.Backend.spec option;
  seed : int;
  queries : int;
  crash_after : int list;
  every_splits : int;
  fault_p : float;
  fault_seed : int;
  fault_kinds : Em.Fault.kind list;
  max_retries : int;
  flight_dir : string option;
}

let default ~n ~queries =
  {
    n;
    mem = 4096;
    block = 64;
    disks = 1;
    backend = None;
    seed = 42;
    queries;
    crash_after = [];
    every_splits = 1;
    fault_p = 0.;
    fault_seed = 1;
    fault_kinds = [ Em.Fault.Transient_read; Em.Fault.Transient_write ];
    max_retries = 3;
    flight_dir = None;
  }

type crash_record = { after_query : int; resume_load_ios : int; leaves_restored : int }

type outcome = {
  flight_dumps : string list;
  answers_match : bool;
  crashes : int;
  oracle_ios : int;
  chaos_ios : int;
  saves : int;
  loads : int;
  save_ios : int;
  load_ios : int;
  resort_allowance : int;
  allowed_ios : int;
  within_bound : bool;
  retries : int;
  mem_ok : bool;
  crash_log : crash_record list;
}

(* The adversarial stream: seeded, independent of the workload permutation
   (distinct generator stream), mixing point selects with quantiles. *)
let gen_queries cfg =
  let rng = Workload.Rng.create ((cfg.seed * 7919) + 17) in
  Array.init cfg.queries (fun _ ->
      let pick = Workload.Rng.int rng 4 in
      if pick = 0 then Os.Quantile (float_of_int (1 + Workload.Rng.int rng 1000) /. 1000.)
      else Os.Select (1 + Workload.Rng.int rng cfg.n))

let query_label = function
  | Os.Select k -> Printf.sprintf "select %d" k
  | Os.Quantile phi -> Printf.sprintf "quantile %g" phi
  | Os.Range (a, b) -> Printf.sprintf "range %d %d" a b

let run_session ?(on_crash = fun _ -> ()) ?flight_dir cfg ~crash_after =
  let ctx =
    Em.Ctx.create ?backend:cfg.backend ~disks:cfg.disks
      (Em.Params.create ~mem:cfg.mem ~block:cfg.block)
  in
  if cfg.fault_p > 0. then begin
    Em.Ctx.arm
      ~policy:{ Em.Device.default_policy with Em.Device.max_retries = cfg.max_retries }
      ctx;
    Em.Ctx.inject ctx
      (Em.Fault.seeded ~seed:cfg.fault_seed ~p:cfg.fault_p cfg.fault_kinds)
  end;
  let v = Workload.vec ctx Workload.Random_perm ~seed:cfg.seed ~n:cfg.n in
  let cmp = Em.Ctx.counted ctx Int.compare in
  let session = ref (Os.open_session cmp ctx v) in
  (* A restored session keeps checkpointing on the same store. *)
  let store = Os.enable_checkpoints ~every_splits:cfg.every_splits !session in
  let stats = ctx.Em.Ctx.stats in
  let queries = gen_queries cfg in
  let answers = Array.make cfg.queries [||] in
  let crash_log = ref [] in
  let recorder = Em.Flight_recorder.create () in
  let dumps = ref [] in
  Array.iteri
    (fun i q ->
      (* The span's record covers every query-level attempt, as in serve. *)
      let seq_lo = Em.Trace.total ctx.Em.Ctx.trace in
      let before = Em.Stats.snapshot stats in
      let splits0 = (Os.summary !session).Os.splits in
      let t0 = Unix.gettimeofday () in
      let r =
        Em.Resilient.with_retries ~max_retries:cfg.max_retries ctx.Em.Ctx.dev (fun () ->
            Os.query !session q)
      in
      answers.(i) <- r.Os.values;
      let d = Em.Stats.delta stats before in
      Em.Flight_recorder.record recorder
        {
          Em.Flight_recorder.id = i + 1;
          kind = Os.query_kind q;
          query = query_label q;
          ios = Em.Stats.delta_ios d;
          rounds = d.Em.Stats.d_rounds;
          splits = (Os.summary !session).Os.splits - splits0;
          wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
          outcome = "ok";
          seq_lo;
          seq_hi = Em.Trace.total ctx.Em.Ctx.trace;
        };
      if List.mem (i + 1) crash_after then begin
        (* Every chaos kill leaves a post-mortem artifact: the journal as it
           stood at the moment of death, before the restore overwrites
           anything. *)
        (match flight_dir with
        | None -> ()
        | Some dir ->
            let path =
              Filename.concat dir (Printf.sprintf "postmortem-kill-after-q%03d.json" (i + 1))
            in
            Em.Flight_recorder.dump_to_file ~trace:ctx.Em.Ctx.trace
              ~reason:(Printf.sprintf "kill_after_q%d" (i + 1))
              recorder ~path;
            dumps := path :: !dumps);
        let loads0 = Em.Checkpoint.load_ios store in
        (* kill -9 between queries: drop the session without closing it —
           process RAM (tree skeleton, buffer-pool pages, memory ledger)
           dies, the device and the checkpoint region survive. *)
        (match Em.Ctx.backend_pool ctx with
        | Some pool -> Em.Backend.Pool.drop_all pool
        | None -> ());
        Em.Stats.wipe_memory stats;
        session := Os.restore ~every_splits:cfg.every_splits cmp ctx v store;
        let rc =
          {
            after_query = i + 1;
            resume_load_ios = Em.Checkpoint.load_ios store - loads0;
            leaves_restored = (Os.summary !session).Os.leaves;
          }
        in
        crash_log := rc :: !crash_log;
        on_crash rc
      end)
    queries;
  let total = Em.Stats.ios stats in
  let mem_ok = stats.Em.Stats.mem_peak <= cfg.mem in
  let retries = stats.Em.Stats.retries in
  (answers, total, store, mem_ok, retries, List.rev !crash_log, List.rev !dumps)

let run ?on_crash cfg =
  let oracle_answers, oracle_ios, _, oracle_mem_ok, _, _, _ =
    run_session cfg ~crash_after:[]
  in
  let answers, chaos_ios, store, chaos_mem_ok, retries, crash_log, flight_dumps =
    run_session ?on_crash ?flight_dir:cfg.flight_dir cfg ~crash_after:cfg.crash_after
  in
  let crashes = List.length crash_log in
  let saves = Em.Checkpoint.saves store in
  let save_ios = Em.Checkpoint.save_ios store in
  let loads = Em.Checkpoint.loads store in
  let load_ios = Em.Checkpoint.load_ios store in
  (* The k-crash bound: chaos <= oracle + its actual resume loads + per
     crash one checkpoint save and one re-sorted memory load (read + write
     back, in blocks) of slack for the policy's save granularity. *)
  let per_save = if saves = 0 then 1 else (save_ios + saves - 1) / saves in
  let resort_allowance =
    let big =
      let ctx =
        Em.Ctx.create ?backend:cfg.backend ~disks:cfg.disks
          (Em.Params.create ~mem:cfg.mem ~block:cfg.block)
      in
      let b = Emalg.Layout.big_load ctx in
      Em.Ctx.close ctx;
      b
    in
    (2 * ((big + cfg.block - 1) / cfg.block)) + 4
  in
  let allowed_ios = oracle_ios + load_ios + (crashes * (per_save + resort_allowance)) in
  let answers_match =
    Array.length answers = Array.length oracle_answers
    && Array.for_all2 (fun a b -> a = b) answers oracle_answers
  in
  {
    flight_dumps;
    answers_match;
    crashes;
    oracle_ios;
    chaos_ios;
    saves;
    loads;
    save_ios;
    load_ios;
    resort_allowance;
    allowed_ios;
    within_bound = chaos_ios <= allowed_ios;
    retries;
    mem_ok = oracle_mem_ok && chaos_mem_ok;
    crash_log;
  }

(* Evenly spread crash points for CLI / bench schedules: k kills after
   queries q, 2q, ... with q = queries / (k + 1) (never after the last
   query — there would be nothing left to observe). *)
let spread_crashes ~queries ~k =
  if k <= 0 || queries < 2 then []
  else
    let step = max 1 (queries / (k + 1)) in
    List.init (min k (queries - 1)) (fun i -> min (queries - 1) ((i + 1) * step))
