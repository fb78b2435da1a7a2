(* Wall-clock micro-benchmarks (Bechamel): one Test per core algorithm,
   run once per storage backend (sim / file / file-async / cached).  The
   primary metric of the reproduction is the simulated I/O count (see
   Table1 / Figures); this section reports host CPU time per run as a
   sanity check that the simulator itself is fast, and as the only place
   where the backends actually differ — counted I/Os are identical on all
   of them, but a file-backed run pays real seeks and marshalling, and the
   async assembly may only move wall time.

   The section also measures the one number async execution is allowed to
   change: [async_file_speedup], the ratio of async to sync wall time for
   an external sort on a D=4 file backend with a modeled per-I/O device
   latency (the same latency armed on both sides).  The ratio is gated in
   test/golden/ratios.expected — if overlapping I/O across the worker
   domains ever stops paying, the bench fails.

   Tests are built inside [all] so the input size respects [Exp.scaled]
   (run modes are parsed after module initialisation). *)

open Bechamel
open Toolkit

module J = Em.Json

let icmp = Exp.icmp
let machine = Exp.default_machine
let seed = 5

let backend_specs =
  [
    ("sim", Em.Backend.Sim, false);
    ("file", Em.Backend.File, false);
    ("file-async", Em.Backend.File, true);
    ("cached", Em.Backend.Cached Em.Backend.Sim, false);
  ]

let make_tests ~n ~backend ~async =
  (* Every run drives a fresh machine and closes it before returning:
     file-backed runs hold an open fd each, and Bechamel does far more runs
     between GC cycles than the fd ulimit allows.  (Async machines share
     the global worker pool; closing the ctx awaits its in-flight I/O.) *)
  let with_ctx f =
    let ctx : int Em.Ctx.t = Em.Ctx.create ~backend ~async (Exp.params machine) in
    Fun.protect
      ~finally:(fun () -> Em.Ctx.close ctx)
      (fun () -> f (Core.Workload.vec ctx Core.Workload.Random_perm ~seed ~n))
  in
  let spec = { Core.Problem.n; k = 16; a = n / 64; b = n / 4 } in
  [
    Test.make ~name:"external-sort"
      (Staged.stage (fun () ->
           with_ctx (fun v -> Em.Vec.free (Emalg.External_sort.sort icmp v))));
    Test.make ~name:"em-select (median)"
      (Staged.stage (fun () ->
           with_ctx (fun v -> ignore (Emalg.Em_select.select icmp v ~rank:(n / 2)))));
    Test.make ~name:"memory-splitters"
      (Staged.stage (fun () ->
           with_ctx (fun v -> ignore (Quantile.Mem_splitters.memory_splitters icmp v))));
    (let ranks = Array.init 8 (fun i -> (i + 1) * (n / 8)) in
     Test.make ~name:"multi-select (K=8)"
       (Staged.stage (fun () ->
            with_ctx (fun v -> ignore (Core.Multi_select.select icmp v ~ranks)))));
    (let sizes = Array.make 16 (n / 16) in
     Test.make ~name:"multi-partition (K=16)"
       (Staged.stage (fun () ->
            with_ctx (fun v ->
                Array.iter Em.Vec.free (Core.Multi_partition.partition_sizes icmp v ~sizes)))));
    Test.make ~name:"two-sided splitters"
      (Staged.stage (fun () ->
           with_ctx (fun v -> Em.Vec.free (Core.Splitters.solve icmp v spec))));
    Test.make ~name:"two-sided partitioning"
      (Staged.stage (fun () ->
           with_ctx (fun v -> Array.iter Em.Vec.free (Core.Partitioning.solve icmp v spec))));
  ]

(* One full Bechamel pass over the suite on [backend]; returns
   [(test name, ns/run)] sorted by name. *)
let estimate_backend ~n (backend, async) =
  let tests = Test.make_grouped ~name:"repro" (make_tests ~n ~backend ~async) in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let time_ns =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> t
        | Some [] | None -> nan
      in
      (name, time_ns) :: acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

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
  Exp.section
    (Printf.sprintf
       "Timing — host wall-clock per run by backend (Bechamel, simulated N=%d, %s)" n
       (Exp.machine_name machine));
  let per_backend =
    List.map
      (fun (bname, spec, async) -> (bname, estimate_backend ~n (spec, async)))
      backend_specs
  in
  let sim = List.assoc "sim" per_backend in
  let time_of bname name =
    match List.assoc_opt name (List.assoc bname per_backend) with
    | Some t -> t
    | None -> nan
  in
  Exp.table
    ~header:("benchmark" :: List.map (fun (b, _, _) -> b ^ " (ms/run)") backend_specs)
    (List.map
       (fun (name, _) ->
         name
         :: List.map
              (fun (b, _, _) -> Printf.sprintf "%.3f" (time_of b name /. 1e6))
              backend_specs)
       sim);
  let wall_sync, wall_async, ratio = async_speedup ~n in
  Exp.section
    (Printf.sprintf
       "Async speedup gate — external-sort on file, D=%d, %.0fus/I-O modeled latency"
       gate_disks gate_latency_us);
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
  (* Timing rows carry wall-clock estimates only — no simulated I/O is
     measured here, so none of the table1 cost fields appear.  [wall_ns]
     stays the sim figure (the historical column); the per-backend columns
     ride alongside.  The gate row records the speedup measurement that
     ratios.expected bounds. *)
  let geometry =
    J.Obj
      [
        ("n", J.Int n);
        ("mem", J.Int machine.Exp.mem);
        ("block", J.Int machine.Exp.block);
      ]
  in
  Exp.write_artifact ~bench:"timing"
    (List.map
       (fun (name, t_sim) ->
         J.Obj
           [
             ("row", J.Str "timing");
             ("label", J.Str name);
             ("geometry", geometry);
             ("wall_ns", J.Int (int_of_float t_sim));
             ("wall_ns_sim", J.Int (int_of_float t_sim));
             ("wall_ns_file", J.Int (int_of_float (time_of "file" name)));
             ("wall_ns_file_async", J.Int (int_of_float (time_of "file-async" name)));
             ("wall_ns_cached", J.Int (int_of_float (time_of "cached" name)));
           ])
       sim
    @ [
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
      ]);
  [ ("async_file_speedup", ratio) ]
