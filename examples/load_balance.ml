(* Range-partitioned load balancing — the paper's first motivating
   application: distribute a dataset onto K machines so that machine i gets
   a contiguous key range and a load between a and b, cheaper than a
   perfectly even split.

   Run with:  dune exec examples/load_balance.exe

   We compare three strategies for K = 12 workers:
     1. perfectly balanced   (a = b = N/K        — costs a multi-partition)
     2. approximately balanced (load within ±50%  — the paper's two-sided)
     3. sort-then-cut baseline
   and print the load vector and the exact I/O price of each. *)

let icmp = Int.compare

let run label solve =
  let params = Em.Params.create ~mem:4096 ~block:64 in
  let ctx : int Em.Ctx.t = Em.Ctx.create params in
  let n = 240_000 in
  let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed:3 ~n in
  let (parts : int Em.Vec.t array), cost = Em.Ctx.measured ctx (fun () -> solve ctx v n) in
  let ios = Em.Stats.delta_ios cost in
  let loads = Array.map Em.Vec.length parts in
  Printf.printf "%-28s %7d I/Os   loads: %s\n" label ios
    (String.concat " " (Array.to_list (Array.map string_of_int loads)));
  (* Workers must cover disjoint, ordered key ranges: verify. *)
  let spec = { Core.Problem.n; k = Array.length parts; a = 0; b = n } in
  match
    Core.Verify.partitioning icmp ~input:(Em.Vec.Oracle.to_array v) spec
      (Array.map Em.Vec.Oracle.to_array parts)
  with
  | Ok () -> ()
  | Error msg ->
      Printf.printf "  ORDERING VIOLATION: %s\n" msg;
      exit 2

let () =
  let k = 12 in
  Printf.printf "distributing 240000 records onto %d workers (M=4096, B=64)\n\n" k;
  run "exact balance (a=b=N/K)" (fun _ctx v n ->
      Core.Partitioning.solve icmp v (Core.Problem.even_spec ~n ~k));
  run "within +/-50% of even" (fun _ctx v n ->
      let even = n / k in
      Core.Partitioning.solve icmp v
        { Core.Problem.n; k; a = even / 2; b = (3 * even / 2) + 1 });
  run "loose: [1000, N]" (fun _ctx v n ->
      Core.Partitioning.solve icmp v { Core.Problem.n; k; a = 1_000; b = n });
  run "sort-then-cut baseline" (fun _ctx v n ->
      Core.Baseline.partitioning icmp v (Core.Problem.even_spec ~n ~k));
  Printf.printf
    "\nlooser balance guarantees -> fewer I/Os, with every worker still owning\n\
     a contiguous key range (all outputs verified).\n"
