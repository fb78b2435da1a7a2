(* Quickstart: the 60-second tour of the library.

   Run with:  dune exec examples/quickstart.exe

   We simulate an external-memory machine, put a dataset on its disk, and
   solve one instance of each problem from the paper, printing the exact
   I/O price of every step. *)

let icmp = Int.compare

let step ctx label f =
  let result, cost = Em.Ctx.measured ctx f in
  Printf.printf "  %-46s %6d I/Os\n" label (Em.Stats.delta_ios cost);
  result

let () =
  (* A machine with M = 4096 words of memory and B = 64-word blocks. *)
  let params = Em.Params.create ~mem:4096 ~block:64 in
  let ctx : int Em.Ctx.t = Em.Ctx.create params in

  (* 2^18 elements in the paper's adversarial Π_hard block layout; putting
     the input on disk is free (it is where the problem starts). *)
  let n = 1 lsl 18 in
  let v = Core.Workload.vec ctx Core.Workload.Pi_hard ~seed:1 ~n in
  Printf.printf "machine M=4096 B=64; input N=%d (%d blocks); one scan = %d I/Os\n\n"
    n (Em.Vec.num_blocks v) (n / 64);

  (* 1. Multi-selection (Theorem 4): the 1st, 2nd and 3rd quartiles. *)
  let ranks = [| n / 4; n / 2; (3 * n) / 4 |] in
  let quartiles =
    step ctx "multi-select quartiles" (fun () -> Core.Multi_select.select icmp v ~ranks)
  in
  Printf.printf "    quartiles: %d, %d, %d\n" quartiles.(0) quartiles.(1) quartiles.(2);

  (* 2. Approximate K-splitters, two-sided: 16 buckets, each within a
     factor 4 of the even size. *)
  let even = n / 16 in
  let spec = { Core.Problem.n; k = 16; a = even / 4; b = even * 4 } in
  let splitters =
    step ctx "two-sided 16-splitters" (fun () -> Core.Splitters.solve icmp v spec)
  in
  Printf.printf "    %d splitters returned\n" (Em.Vec.length splitters);

  (* 3. Approximate K-partitioning, right-grounded: carve off 15 chunks of
     exactly 1000 small elements, leave the rest as one big partition —
     without sorting. *)
  let rg = { Core.Problem.n; k = 16; a = 1_000; b = n } in
  let parts =
    step ctx "right-grounded 16-partitioning" (fun () -> Core.Partitioning.solve icmp v rg)
  in
  Printf.printf "    partition sizes: %s\n"
    (String.concat ", "
       (Array.to_list (Array.map (fun p -> string_of_int (Em.Vec.length p)) parts)));

  (* 4. The baseline everything is measured against. *)
  let sorted = step ctx "full external sort (baseline)" (fun () -> Emalg.External_sort.sort icmp v) in
  ignore sorted;

  (* Everything above was checked by construction; verify one of them
     explicitly against the in-memory oracle. *)
  let input = Em.Vec.Oracle.to_array v in
  (match Core.Verify.splitters icmp ~input spec (Em.Vec.Oracle.to_array splitters) with
  | Ok () -> Printf.printf "\nsplitters verified against the oracle: OK\n"
  | Error msg ->
      Printf.printf "\nsplitters verification FAILED: %s\n" msg;
      exit 2);
  Printf.printf "peak memory in use: %d / %d words\n"
    ctx.Em.Ctx.stats.Em.Stats.mem_peak 4096
