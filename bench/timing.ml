(* Wall-clock timing: the one number async execution is allowed to
   change.  [async_file_speedup] is the ratio of async to sync wall time
   for an external sort on a D=4 file backend with a modeled per-I/O device
   latency (the same latency armed on both sides).  The ratio is gated in
   test/golden/ratios.expected — if overlapping I/O across the worker
   domains ever stops paying, the bench fails.

   Per-layer wall-clock costs (kernels, metering, each backend, the buffer
   pool, the async hand-off) live in the bench/perf ladder, which reports
   them with quartiles.

   The input size is computed inside [all] so it respects [Exp.scaled]
   (run modes are parsed after module initialisation). *)

module J = Em.Json

let icmp = Exp.icmp
let machine = Exp.default_machine
let seed = 5

(* ---- the async speedup gate ----

   Sync and async runs are armed with the *same* modeled device latency
   (every raw slot access sleeps [gate_latency_us]); the sync assembly pays
   it inline on the caller's domain while the async one overlaps it across
   D=4 worker domains (staged prefetch reads, write-behind stores).  The
   clock stops only after [Ctx.flush] — write-behind must retire, async
   gets no credit for unfinished work.  Wall time is the best of
   [gate_runs] so a CI scheduling hiccup cannot flip the gate. *)

let gate_latency_us = 150.
let gate_disks = 4
let gate_runs = 3

let sort_wall ~n ~async =
  let delay () = Unix.sleepf (gate_latency_us *. 1e-6) in
  let best = ref infinity in
  for _ = 1 to gate_runs do
    let ctx : int Em.Ctx.t =
      Em.Ctx.create ~backend:Em.Backend.File ~disks:gate_disks ~async
        ~file_delay:delay (Exp.params machine)
    in
    Fun.protect
      ~finally:(fun () -> Em.Ctx.close ctx)
      (fun () ->
        let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed ~n in
        let t0 = Unix.gettimeofday () in
        let sorted = Emalg.External_sort.sort icmp v in
        Em.Ctx.flush ctx;
        let t = Unix.gettimeofday () -. t0 in
        Em.Vec.free sorted;
        if t < !best then best := t)
  done;
  !best

let async_speedup ~n =
  let sync = sort_wall ~n ~async:false in
  let asyn = sort_wall ~n ~async:true in
  (sync, asyn, asyn /. sync)

let all () =
  let n = Exp.scaled (1 lsl 14) in
  let wall_sync, wall_async, ratio = async_speedup ~n in
  Exp.section
    (Printf.sprintf
       "Async speedup gate — external-sort on file, N=%d, %s, D=%d, %.0fus/I-O modeled \
        latency"
       n (Exp.machine_name machine) gate_disks gate_latency_us);
  Exp.table
    ~header:[ "metric"; "sync (ms)"; "async (ms)"; "async/sync" ]
    [
      [
        "external-sort wall";
        Printf.sprintf "%.1f" (wall_sync *. 1e3);
        Printf.sprintf "%.1f" (wall_async *. 1e3);
        Printf.sprintf "%.3f" ratio;
      ];
    ];
  (* The row records the speedup measurement that ratios.expected bounds;
     no simulated I/O is measured here, so no table1 cost field appears. *)
  Exp.write_artifact ~bench:"timing"
    [
      J.Obj
        [
          ("row", J.Str "timing");
          ("label", J.Str "async-file-speedup (external-sort)");
          ( "geometry",
            J.Obj
              [
                ("n", J.Int n);
                ("mem", J.Int machine.Exp.mem);
                ("block", J.Int machine.Exp.block);
                ("disks", J.Int gate_disks);
                ("latency_us", J.Float gate_latency_us);
              ] );
          ("wall_ns_file", J.Int (int_of_float (wall_sync *. 1e9)));
          ("wall_ns_file_async", J.Int (int_of_float (wall_async *. 1e9)));
          ("ratio", J.Float ratio);
        ];
    ];
  [ ("async_file_speedup", ratio) ]
