(* Wall-clock timing gates, each a ratio of two runs on the same host.
   [async_file_speedup] is the ratio of async to sync wall time for an
   external sort on a D=4 file backend with a modeled per-I/O device
   latency (the same latency armed on both sides).  [int_kernel_speedup] is
   the wall time of an external sort on sim with the machine's counted
   [Int.compare] over the same sort with an equal comparator the sort does
   not recognise, so it runs the int kernels against the generic path.
   [file_vs_sim] is the wall time of an external sort on the sync file
   backend over the same sort on sim, so it prices the file layer alone.
   All three are gated in test/golden/ratios.expected: if overlapping I/O
   stops paying, the int kernels are ever silently unwired, or the file
   layer's per-block cost grows, the bench fails.

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

(* ---- the int kernel gate ----

   The same Pi_hard sort on sim, once with [Ctx.counted ctx Int.compare]
   (the int kernels) and once with an equal comparator [Ctx.counted] does
   not recognise (the generic path).  The two alternate, after one untimed
   pair that warms the heap, and each side keeps its best of [kernel_runs],
   so a burst of load on a shared host hits both sides alike.  Both sides
   must return the same output and count the same comparisons; if they do
   not, the ratio is infinite and the gate fails. *)

let kernel_runs = 15

let kernel_sort ~n ~recognised =
  let ctx : int Em.Ctx.t = Em.Ctx.create ~backend:Em.Backend.Sim (Exp.params machine) in
  let cmp =
    if recognised then Em.Ctx.counted ctx Int.compare
    else Em.Ctx.counted ctx (fun x y -> Int.compare x y)
  in
  let v = Core.Workload.vec ctx Core.Workload.Pi_hard ~seed ~n in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let sorted = Emalg.External_sort.sort cmp v in
  let t = Unix.gettimeofday () -. t0 in
  let result = (Em.Vec.Oracle.to_array sorted, ctx.Em.Ctx.stats.Em.Stats.comparisons) in
  Em.Ctx.close ctx;
  (t, result)

let int_kernel_speedup ~n =
  let generic = ref infinity and kernel = ref infinity and agree = ref true in
  let comparisons = ref 0 in
  for run = 0 to kernel_runs do
    let tg, generic_result = kernel_sort ~n ~recognised:false in
    let tk, kernel_result = kernel_sort ~n ~recognised:true in
    agree := !agree && kernel_result = generic_result;
    comparisons := snd kernel_result;
    if run > 0 then begin
      generic := Float.min !generic tg;
      kernel := Float.min !kernel tk
    end
  done;
  let ratio = if !agree then !kernel /. !generic else infinity in
  (!generic, !kernel, !comparisons, ratio)

(* ---- the file backend gate ----

   One Pi_hard sort with the machine's counted [Int.compare] at D=2, on
   sim, on the sync file backend and on the async one, all at zero modeled
   latency.  The three rotate, after one untimed round that warms the heap
   and the page cache, and each keeps its best of [file_runs].  The file
   sides must return sim's output and counts (reads, writes, rounds,
   comparisons), else their ratio is infinite.  The clock stops after
   [Ctx.flush], so write-behind retires inside it.  Only file/sim is gated;
   async/sync at zero latency is printed beside it, because the async
   hand-off's cost is what decides whether reads stay asynchronous. *)

let file_runs = 9
let file_disks = 2

let backend_sort ~n ~backend ~async =
  let ctx : int Em.Ctx.t =
    Em.Ctx.create ~backend ~disks:file_disks ~async ~file_delay:ignore (Exp.params machine)
  in
  Fun.protect
    ~finally:(fun () -> Em.Ctx.close ctx)
    (fun () ->
      let cmp = Em.Ctx.counted ctx Int.compare in
      let v = Core.Workload.vec ctx Core.Workload.Pi_hard ~seed ~n in
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      let (sorted, t), d =
        Em.Ctx.measured ctx (fun () ->
            let sorted = Emalg.External_sort.sort cmp v in
            Em.Ctx.flush ctx;
            (sorted, Unix.gettimeofday () -. t0))
      in
      let counts = Em.Stats.(d.d_reads, d.d_writes, d.d_rounds, d.d_comparisons) in
      (t, (Em.Vec.Oracle.to_array sorted, counts)))

let file_vs_sim ~n =
  let sides =
    [| (Em.Backend.Sim, false); (Em.Backend.File, false); (Em.Backend.File, true) |]
  in
  let best = Array.make 3 infinity and agree = Array.make 3 true in
  for run = 0 to file_runs do
    let results =
      Array.map (fun (backend, async) -> backend_sort ~n ~backend ~async) sides
    in
    Array.iteri
      (fun i (t, result) ->
        agree.(i) <- agree.(i) && result = snd results.(0);
        if run > 0 then best.(i) <- Float.min best.(i) t)
      results
  done;
  let ratio i j = if agree.(i) && agree.(j) then best.(i) /. best.(j) else infinity in
  (best.(0), best.(1), best.(2), ratio 1 0, ratio 2 1)

let all () =
  let n = Exp.scaled (1 lsl 14) in
  let wall_sync, wall_async, ratio = async_speedup ~n in
  let kernel_n = Exp.scaled (1 lsl 20) in
  let wall_generic, wall_kernel, comparisons, kernel_ratio = int_kernel_speedup ~n:kernel_n in
  let file_n = Exp.scaled (1 lsl 21) in
  let wall_sim, wall_file, wall_file_async, file_ratio, zero_latency_ratio =
    file_vs_sim ~n:file_n
  in
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
  Exp.section
    (Printf.sprintf
       "Int kernel gate — external-sort on sim, N=%d Pi_hard, %s, best of %d" kernel_n
       (Exp.machine_name machine) kernel_runs);
  Exp.table
    ~header:[ "metric"; "generic (ms)"; "int kernels (ms)"; "kernels/generic"; "comparisons" ]
    [
      [
        "external-sort wall";
        Printf.sprintf "%.1f" (wall_generic *. 1e3);
        Printf.sprintf "%.1f" (wall_kernel *. 1e3);
        Printf.sprintf "%.3f" kernel_ratio;
        string_of_int comparisons;
      ];
    ];
  Exp.section
    (Printf.sprintf
       "File backend gate — external-sort, N=%d Pi_hard, %s, D=%d, zero latency, best of %d"
       file_n (Exp.machine_name machine) file_disks file_runs);
  Exp.table
    ~header:
      [ "metric"; "sim (ms)"; "file (ms)"; "file async (ms)"; "file/sim"; "async/sync" ]
    [
      [
        "external-sort wall";
        Printf.sprintf "%.1f" (wall_sim *. 1e3);
        Printf.sprintf "%.1f" (wall_file *. 1e3);
        Printf.sprintf "%.1f" (wall_file_async *. 1e3);
        Printf.sprintf "%.3f" file_ratio;
        Printf.sprintf "%.3f" zero_latency_ratio;
      ];
    ];
  (* The rows record the speedup measurements that ratios.expected bounds;
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
      J.Obj
        [
          ("row", J.Str "timing");
          ("label", J.Str "int-kernel-speedup (external-sort)");
          ( "geometry",
            J.Obj
              [
                ("n", J.Int kernel_n);
                ("mem", J.Int machine.Exp.mem);
                ("block", J.Int machine.Exp.block);
              ] );
          ("wall_ns_generic", J.Int (int_of_float (wall_generic *. 1e9)));
          ("wall_ns_int_kernels", J.Int (int_of_float (wall_kernel *. 1e9)));
          ("comparisons", J.Int comparisons);
          ("ratio", J.Float kernel_ratio);
        ];
      J.Obj
        [
          ("row", J.Str "timing");
          ("label", J.Str "file-vs-sim (external-sort)");
          ( "geometry",
            J.Obj
              [
                ("n", J.Int file_n);
                ("mem", J.Int machine.Exp.mem);
                ("block", J.Int machine.Exp.block);
                ("disks", J.Int file_disks);
              ] );
          ("wall_ns_sim", J.Int (int_of_float (wall_sim *. 1e9)));
          ("wall_ns_file", J.Int (int_of_float (wall_file *. 1e9)));
          ("wall_ns_file_async", J.Int (int_of_float (wall_file_async *. 1e9)));
          ("ratio", J.Float file_ratio);
          ("async_zero_latency_ratio", J.Float zero_latency_ratio);
        ];
    ];
  [
    ("async_file_speedup", ratio);
    ("int_kernel_speedup", kernel_ratio);
    ("file_vs_sim", file_ratio);
  ]
