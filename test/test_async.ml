(* Async execution: the domain-pool I/O scheduler behind Em.Backend.

   The load-bearing invariant, checked from every angle this suite can
   reach: async execution moves *wall-clock time*, never *work*.  Every
   observable of the EM cost model — algorithm outputs, counted reads and
   writes, comparisons, rounds, memory peaks, and the full trace-event
   stream (sequence numbers, fault decisions, cache verdicts, round ids) —
   is decided on the submitting domain before a request enters the pool,
   so a run with [~async:true] must be bit-identical to the synchronous
   run, not merely equivalent.  The determinism matrix below asserts
   exactly that for each algorithm x backend x disk count x fault plan.

   The second half hammers the pool itself: FIFO ordering and exception
   transport on the workers, backpressure, drain-on-shutdown, and a
   randomized stress property that drives interleaved reader/writer
   pipelines over a private pool with worker-side latency jitter, then
   checks round-trips, quiescence, and that no fd leaks past shutdown. *)

module Io_pool = Em.Io_pool

(* ---- determinism matrix ------------------------------------------- *)

let backends =
  [
    ("sim", Em.Backend.Sim);
    ("file", Em.Backend.File);
    ("cached", Em.Backend.Cached Em.Backend.Sim);
    ("cached:file", Em.Backend.Cached Em.Backend.File);
  ]

(* Plans are stateful, so each run builds a fresh one (see test_parallel). *)
let fault_plans =
  [
    ("clean", None);
    ( "armed seeded mix",
      Some
        (fun () ->
          Em.Fault.seeded ~seed:42 ~p:0.05
            [ Em.Fault.Transient_read; Em.Fault.Transient_write ]) );
  ]

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

let run_case ~backend ~async ~disks ~plan ~seed ~n algo =
  let trace = Em.Trace.create () in
  let sink, events = Em.Trace.collector () in
  Em.Trace.add_sink trace sink;
  let ctx : int Em.Ctx.t =
    Em.Ctx.create ~trace ~backend ~async ~disks (Tu.params ())
  in
  (match plan with
  | Some mk ->
      Em.Ctx.inject ctx (mk ());
      Em.Ctx.arm ctx
  | None -> ());
  let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed ~n in
  let cmp = Em.Ctx.counted ctx Tu.icmp in
  let out, d = Em.Ctx.measured ctx (fun () -> algo cmp v) in
  let evs = events () in
  let peak = ctx.Em.Ctx.stats.Em.Stats.mem_peak in
  Em.Ctx.close ctx;
  (out, d, evs, peak)

let check_identical label (o1, d1, e1, p1) (o2, d2, e2, p2) =
  Tu.check_bool (label ^ ": outputs") true (o1 = o2);
  Tu.check_int (label ^ ": reads") d1.Em.Stats.d_reads d2.Em.Stats.d_reads;
  Tu.check_int (label ^ ": writes") d1.Em.Stats.d_writes d2.Em.Stats.d_writes;
  Tu.check_int (label ^ ": comparisons") d1.Em.Stats.d_comparisons
    d2.Em.Stats.d_comparisons;
  Tu.check_int (label ^ ": rounds") d1.Em.Stats.d_rounds d2.Em.Stats.d_rounds;
  Tu.check_int (label ^ ": mem peak") p1 p2;
  Tu.check_int (label ^ ": trace length") (List.length e1) (List.length e2);
  Tu.check_bool (label ^ ": trace events bit-identical") true (e1 = e2)

(* One alcotest case per (algorithm, backend): inside, the full
   D x fault-plan sub-matrix compares a synchronous run against the
   asynchronous one on the same seed and workload. *)
let test_matrix_case algo_name backend_name backend () =
  let n = 600 and seed = 7 in
  let algo = List.assoc algo_name (algos n) in
  List.iter
    (fun disks ->
      List.iter
        (fun (plan_name, plan) ->
          let label =
            Printf.sprintf "%s/%s D=%d %s" algo_name backend_name disks plan_name
          in
          let sync = run_case ~backend ~async:false ~disks ~plan ~seed ~n algo in
          let asyn = run_case ~backend ~async:true ~disks ~plan ~seed ~n algo in
          check_identical label sync asyn)
        fault_plans)
    [ 1; 4 ]

(* ---- online sessions: reply streams are async-invariant ---- *)

module Os = Emalg.Online_select

let online_stream n =
  [
    Os.Select (n / 2);
    Os.Select 1;
    Os.Range (max 1 ((n / 4) - 8), min n ((n / 4) + 8));
    Os.Quantile 0.9;
    Os.Select (n / 2);
  ]

let run_online ~backend ~async ~disks ~seed ~n =
  let ctx : int Em.Ctx.t = Em.Ctx.create ~backend ~async ~disks (Tu.params ()) in
  let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed ~n in
  let cmp = Em.Ctx.counted ctx Tu.icmp in
  let s = Os.open_session cmp ctx v in
  let replies = List.map (Os.query s) (online_stream n) in
  Os.close s;
  let peak = ctx.Em.Ctx.stats.Em.Stats.mem_peak in
  Em.Ctx.close ctx;
  (replies, peak)

let test_online_case backend_name backend () =
  let n = 800 and seed = 13 in
  List.iter
    (fun disks ->
      let r_sync, p_sync = run_online ~backend ~async:false ~disks ~seed ~n in
      let r_async, p_async = run_online ~backend ~async:true ~disks ~seed ~n in
      let label = Printf.sprintf "online/%s D=%d" backend_name disks in
      Tu.check_int (label ^ ": mem peak") p_sync p_async;
      List.iter2
        (fun (a : int Os.reply) (b : int Os.reply) ->
          Tu.check_bool (label ^ ": values") true (a.Os.values = b.Os.values);
          Tu.check_bool (label ^ ": splits") true (a.Os.splits = b.Os.splits);
          Tu.check_int (label ^ ": reads") a.Os.cost.Em.Stats.d_reads
            b.Os.cost.Em.Stats.d_reads;
          Tu.check_int (label ^ ": writes") a.Os.cost.Em.Stats.d_writes
            b.Os.cost.Em.Stats.d_writes;
          Tu.check_int (label ^ ": comparisons") a.Os.cost.Em.Stats.d_comparisons
            b.Os.cost.Em.Stats.d_comparisons;
          Tu.check_int (label ^ ": rounds") a.Os.cost.Em.Stats.d_rounds
            b.Os.cost.Em.Stats.d_rounds)
        r_sync r_async)
    [ 1; 4 ]

(* ---- Io_pool unit behaviour --------------------------------------- *)

(* Same key => same worker => strict submission-order execution. *)
let test_pool_fifo_order () =
  let pool = Io_pool.create ~workers:3 () in
  let m = Mutex.create () in
  let order = ref [] in
  let tickets =
    List.init 32 (fun i ->
        Io_pool.submit pool ~key:5 (fun () ->
            Mutex.lock m;
            order := i :: !order;
            Mutex.unlock m))
  in
  List.iter Io_pool.await tickets;
  Tu.check_bool "FIFO per key" true (List.rev !order = List.init 32 Fun.id);
  Tu.check_int "quiescent after awaits" 0 (Io_pool.in_flight pool);
  Io_pool.shutdown pool

let test_pool_exception_transport () =
  let pool = Io_pool.create ~workers:1 () in
  let tk = Io_pool.submit pool ~key:0 (fun () -> failwith "boom on the worker") in
  (match Io_pool.await tk with
  | _ -> Alcotest.fail "expected the worker's exception"
  | exception Failure msg -> Tu.check_bool "message carried" true (msg = "boom on the worker"));
  (* The pool survives a failing job. *)
  Tu.check_int "next job still runs" 42 (Io_pool.await (Io_pool.submit pool ~key:0 (fun () -> 42)));
  Io_pool.shutdown pool

(* A full queue blocks the submitter (backpressure) without deadlock or
   reordering: every job still executes, in submission order. *)
let test_pool_backpressure () =
  let pool = Io_pool.create ~workers:1 ~capacity:2 () in
  let m = Mutex.create () in
  let order = ref [] in
  let jobs = 8 in
  let tickets =
    List.init jobs (fun i ->
        Io_pool.submit pool ~key:0 (fun () ->
            if i = 0 then Unix.sleepf 0.02;
            Mutex.lock m;
            order := i :: !order;
            Mutex.unlock m))
  in
  List.iter Io_pool.await tickets;
  Tu.check_bool "all executed in order despite blocking submits" true
    (List.rev !order = List.init jobs Fun.id);
  Io_pool.shutdown pool

let test_pool_shutdown_drains () =
  let pool = Io_pool.create ~workers:2 () in
  let done_count = Atomic.make 0 in
  let tickets =
    List.init 20 (fun i ->
        Io_pool.submit pool ~key:i (fun () ->
            Unix.sleepf 0.001;
            Atomic.incr done_count))
  in
  (* Shut down immediately: queued jobs must run, not be dropped. *)
  Io_pool.shutdown pool;
  Tu.check_int "every queued job executed" 20 (Atomic.get done_count);
  Tu.check_int "nothing left in flight" 0 (Io_pool.in_flight pool);
  Tu.check_bool "closed" true (Io_pool.closed pool);
  List.iter Io_pool.await tickets;
  (* Idempotent; submitting afterwards is a programming error. *)
  Io_pool.shutdown pool;
  (match Io_pool.submit pool ~key:0 (fun () -> ()) with
  | _ -> Alcotest.fail "submit after shutdown must raise"
  | exception Invalid_argument _ -> ())

let test_pool_quiesce_and_global () =
  let pool = Io_pool.create ~workers:2 () in
  let slow = Io_pool.submit pool ~key:0 (fun () -> Unix.sleepf 0.01; "done") in
  Io_pool.quiesce pool;
  Tu.check_int "quiesce waited everything out" 0 (Io_pool.in_flight pool);
  Tu.check_bool "result still collectable after quiesce" true
    (Io_pool.await slow = "done");
  Io_pool.shutdown pool;
  Tu.check_bool "global pool is a live singleton" true
    (Io_pool.global () == Io_pool.global () && not (Io_pool.closed (Io_pool.global ())))

(* ---- stress: interleaved pipelines over a private pool ------------- *)

let stress_iters =
  match Sys.getenv_opt "EM_ASYNC_STRESS_ITERS" with
  | None | Some "" -> 10
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> invalid_arg "EM_ASYNC_STRESS_ITERS must be a positive integer")

let count_fds () =
  if Sys.file_exists "/proc/self/fd" then
    Some (Array.length (Sys.readdir "/proc/self/fd"))
  else None

(* Worker-side latency jitter: called concurrently from several domains,
   so the state is one atomic counter feeding a hash.  0-200us per access
   randomizes completion interleavings without slowing the suite down. *)
let jitter_delay seed =
  let c = Atomic.make seed in
  fun () ->
    let x = Atomic.fetch_and_add c 0x9E3779B9 in
    let h = (x * 0x2545F491) lxor (x lsr 13) in
    Unix.sleepf (float_of_int (abs h mod 200) *. 1e-6)

let prop_stress =
  Tu.qcheck_case ~count:stress_iters
    "stress: interleaved reader/writer pipelines round-trip over a private \
     pool with latency jitter; shutdown quiesces, no fd leaks"
    QCheck2.Gen.(
      quad (int_range 0 2) (int_range 1 4) (int_range 2 400) (int_range 0 9999))
    (fun (bexp, disks, n, seed) ->
      let block = 4 lsl bexp in
      let mem = block * (4 + (seed mod 5)) in
      let fds_before = count_fds () in
      let pool = Io_pool.create ~workers:(1 + (seed mod 4)) () in
      let ok =
        let ctx : int Em.Ctx.t =
          Em.Ctx.create ~backend:Em.Backend.File ~io_pool:pool
            ~file_delay:(jitter_delay seed) ~disks
            (Em.Params.create ~mem ~block)
        in
        let data1 = Tu.random_ints ~seed ~bound:1_000_000 n in
        let data2 = Tu.random_ints ~seed:(seed + 1) ~bound:1_000_000 (n / 2) in
        (* Two write-behind pipelines interleaved element by element, then
           two prefetching readers interleaved chunk by chunk: the pool sees
           reads and writes for both vectors' slots at once. *)
        let w1 = Em.Writer.create ~write_behind:(disks - 1) ctx in
        let w2 = Em.Writer.create ~write_behind:(disks - 1) ctx in
        Array.iteri
          (fun i x ->
            Em.Writer.push w1 x;
            if i < Array.length data2 then Em.Writer.push w2 data2.(i))
          data1;
        let v1 = Em.Writer.finish w1 in
        let v2 = Em.Writer.finish w2 in
        let r1 = Em.Reader.open_vec ~prefetch:(disks - 1) v1 in
        let r2 = Em.Reader.open_vec ~prefetch:(disks - 1) v2 in
        let rng = Tu.rng (seed + 2) in
        let acc1 = ref [] and acc2 = ref [] in
        while Em.Reader.has_next r1 || Em.Reader.has_next r2 do
          let k = 1 + Tu.next_int rng (2 * block) in
          if Em.Reader.has_next r1 then acc1 := Em.Reader.take r1 k :: !acc1;
          if Em.Reader.has_next r2 then acc2 := Em.Reader.take r2 k :: !acc2
        done;
        let got1 = Array.concat (List.rev !acc1) in
        let got2 = Array.concat (List.rev !acc2) in
        Em.Reader.close r1;
        Em.Reader.close r2;
        let round_trip = got1 = data1 && got2 = data2 in
        let async_on = Em.Ctx.async ctx in
        Em.Ctx.close ctx;
        round_trip && async_on
      in
      Io_pool.quiesce pool;
      let quiet = Io_pool.in_flight pool = 0 in
      Io_pool.shutdown pool;
      let fds_ok =
        match (fds_before, count_fds ()) with
        | Some before, Some after -> after <= before
        | _ -> true
      in
      ok && quiet && fds_ok)

(* ---- env plumbing -------------------------------------------------- *)

let test_env_parsing () =
  Tu.check_bool "EM_ASYNC name" true (Em.Params.async_env_var = "EM_ASYNC");
  Tu.check_bool "worker env name" true (Io_pool.workers_env_var = "EM_ASYNC_WORKERS");
  Tu.check_bool "latency env name" true (Em.Backend.latency_env_var = "EM_FILE_LATENCY_US");
  (* A pure sim machine never runs async, whatever was requested. *)
  let ctx : int Em.Ctx.t =
    Em.Ctx.create ~backend:Em.Backend.Sim ~async:true (Tu.params ())
  in
  Tu.check_bool "sim family ignores async" false (Em.Ctx.async ctx);
  Em.Ctx.close ctx;
  (* Any File layer in the family turns it on. *)
  let ctx : int Em.Ctx.t =
    Em.Ctx.create ~backend:(Em.Backend.Cached Em.Backend.File) ~async:true (Tu.params ())
  in
  Tu.check_bool "cached:file family honours async" true (Em.Ctx.async ctx);
  Em.Ctx.close ctx

let suite =
  List.concat_map
    (fun (bname, backend) ->
      List.map
        (fun (aname, _) ->
          Alcotest.test_case
            (Printf.sprintf "determinism: %s on %s (D x faults)" aname bname)
            `Quick
            (test_matrix_case aname bname backend))
        (algos 0))
    backends
  @ List.map
      (fun (bname, backend) ->
        Alcotest.test_case
          (Printf.sprintf "determinism: online session on %s" bname)
          `Quick (test_online_case bname backend))
      backends
  @ [
      Alcotest.test_case "pool: per-key FIFO order" `Quick test_pool_fifo_order;
      Alcotest.test_case "pool: exception transport" `Quick test_pool_exception_transport;
      Alcotest.test_case "pool: backpressure" `Quick test_pool_backpressure;
      Alcotest.test_case "pool: shutdown drains the queues" `Quick
        test_pool_shutdown_drains;
      Alcotest.test_case "pool: quiesce + global singleton" `Quick
        test_pool_quiesce_and_global;
      prop_stress;
      Alcotest.test_case "env plumbing and family gating" `Quick test_env_parsing;
    ]
