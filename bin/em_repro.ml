(* Command-line driver: run any algorithm of the library on a synthetic
   workload, on a simulated EM machine of chosen geometry, and report exact
   I/O statistics plus oracle verification.

     em_repro splitters -n 262144 -k 16 -a 128 -b 262144
     em_repro partition -n 100000 -k 10 -a 0 -b 20000 --workload sorted
     em_repro multiselect -n 65536 --ranks 1,1000,32768
     em_repro bounds -n 1048576 -k 64 -a 256 -b 65536
     em_repro serve -n 65536 < queries.txt

   The machine/backend/workload flags shared by every subcommand live in
   {!Cli_args} (one [common_t] term); only subcommand-specific flags are
   declared here. *)

open Cmdliner
open Cli_args

let icmp = Int.compare

(* ---- subcommand-specific options ---- *)

let n_t = Arg.(required & opt (some int) None & info [ "n" ] ~docv:"N" ~doc:"Input size.")
let k_t = Arg.(required & opt (some int) None & info [ "k" ] ~docv:"K" ~doc:"Partition count.")
let a_t = Arg.(value & opt int 0 & info [ "a" ] ~docv:"A" ~doc:"Lower partition-size bound.")

let b_opt_t =
  Arg.(value & opt (some int) None & info [ "b" ] ~docv:"B" ~doc:"Upper partition-size bound (default: n).")

let baseline_t =
  Arg.(value & flag & info [ "baseline" ] ~doc:"Run the sort-based baseline instead.")

let k_opt_t =
  Arg.(value & opt int 16 & info [ "k" ] ~docv:"K" ~doc:"Partition / quantile count.")

let ranks_opt_t =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "ranks" ] ~docv:"R1,R2,..."
        ~doc:"Ranks for multiselect (default: the K quantile ranks).")

(* The "problem:" line of a K-splitters / K-partitioning spec. *)
let spec_problem what spec =
  Printf.sprintf "%s %s, %s"
    (Core.Problem.variant_name (Core.Problem.classify spec))
    what
    (Format.asprintf "%a" Core.Problem.pp_spec spec)

(* ---- splitters ---- *)

let run_splitters c n k a b baseline =
  setup_logs c;
  let spec = spec_of ~n ~k ~a ~b in
  let ctx = make_ctx c in
  let v = workload_vec c ctx ~n in
  describe c ctx;
  Printf.printf "problem:      %s\n" (spec_problem "K-splitters" spec);
  let cmp = Em.Ctx.counted ctx icmp in
  let out, cost =
    Em.Ctx.measured ctx (fun () ->
        if baseline then Core.Baseline.splitters cmp v spec
        else Core.Splitters.solve cmp v spec)
  in
  report_cost ctx cost;
  Printf.printf "bound:        lower %.1f, upper %.1f I/Os (Table 1, no constants)\n"
    (Core.Bounds.splitters_lower ctx.Em.Ctx.params spec)
    (Core.Bounds.splitters_upper ctx.Em.Ctx.params spec);
  print_verified
    (Core.Verify.splitters icmp ~input:(Em.Vec.Oracle.to_array v) spec (Em.Vec.Oracle.to_array out))

let splitters_cmd =
  let doc = "Solve the approximate K-splitters problem." in
  Cmd.v
    (Cmd.info "splitters" ~doc)
    Term.(const run_splitters $ common_t $ n_t $ k_t $ a_t $ b_opt_t $ baseline_t)

(* ---- partitioning ---- *)

let run_partition c n k a b baseline =
  setup_logs c;
  let spec = spec_of ~n ~k ~a ~b in
  let ctx = make_ctx c in
  let v = workload_vec c ctx ~n in
  describe c ctx;
  Printf.printf "problem:      %s\n" (spec_problem "K-partitioning" spec);
  let cmp = Em.Ctx.counted ctx icmp in
  let parts, cost =
    Em.Ctx.measured ctx (fun () ->
        if baseline then Core.Baseline.partitioning cmp v spec
        else Core.Partitioning.solve cmp v spec)
  in
  report_cost ctx cost;
  Printf.printf "bound:        lower %.1f, upper %.1f I/Os (Table 1, no constants)\n"
    (Core.Bounds.partitioning_lower ctx.Em.Ctx.params spec)
    (Core.Bounds.partitioning_upper ctx.Em.Ctx.params spec);
  Printf.printf "partitions:   %s\n"
    (String.concat ", "
       (Array.to_list (Array.map (fun p -> string_of_int (Em.Vec.length p)) parts)));
  print_verified
    (Core.Verify.partitioning icmp ~input:(Em.Vec.Oracle.to_array v) spec
       (Array.map Em.Vec.Oracle.to_array parts))

let partition_cmd =
  let doc = "Solve the approximate K-partitioning problem." in
  Cmd.v
    (Cmd.info "partition" ~doc)
    Term.(const run_partition $ common_t $ n_t $ k_t $ a_t $ b_opt_t $ baseline_t)

(* ---- multi-selection ---- *)

let ranks_t =
  Arg.(
    required
    & opt (some (list int)) None
    & info [ "ranks" ] ~docv:"R1,R2,..." ~doc:"Strictly increasing 1-based ranks.")

let run_multiselect c n ranks baseline =
  setup_logs c;
  let ranks = Array.of_list ranks in
  let ctx = make_ctx c in
  let v = workload_vec c ctx ~n in
  describe c ctx;
  Printf.printf "problem:      multi-selection of %d ranks from %d elements\n"
    (Array.length ranks) n;
  let cmp = Em.Ctx.counted ctx icmp in
  let results, cost =
    Em.Ctx.measured ctx (fun () ->
        if baseline then Core.Baseline.multi_select cmp v ~ranks
        else Core.Multi_select.select cmp v ~ranks)
  in
  report_cost ctx cost;
  Printf.printf "bound:        %.1f I/Os (Theorem 4, no constants)\n"
    (Core.Bounds.multi_select ctx.Em.Ctx.params ~n ~k:(Array.length ranks));
  Array.iteri (fun i r -> Printf.printf "rank %-8d -> %d\n" ranks.(i) r) results;
  print_verified (Core.Verify.multi_select icmp ~input:(Em.Vec.Oracle.to_array v) ~ranks results)

let multiselect_cmd =
  let doc = "Report the elements of the given ranks (Theorem 4)." in
  Cmd.v
    (Cmd.info "multiselect" ~doc)
    Term.(const run_multiselect $ common_t $ n_t $ ranks_t $ baseline_t)

(* ---- multi-partition ---- *)

let sizes_t =
  Arg.(
    required
    & opt (some (list int)) None
    & info [ "sizes" ] ~docv:"S1,S2,..." ~doc:"Positive partition sizes summing to n.")

let run_multipartition c n sizes baseline =
  setup_logs c;
  let sizes = Array.of_list sizes in
  let ctx = make_ctx c in
  let v = workload_vec c ctx ~n in
  describe c ctx;
  Printf.printf "problem:      multi-partition into %d prescribed sizes\n" (Array.length sizes);
  let cmp = Em.Ctx.counted ctx icmp in
  let parts, cost =
    Em.Ctx.measured ctx (fun () ->
        if baseline then Core.Baseline.multi_partition cmp v ~sizes
        else Core.Multi_partition.partition_sizes cmp v ~sizes)
  in
  report_cost ctx cost;
  Printf.printf "bound:        %.1f I/Os (Aggarwal-Vitter, no constants)\n"
    (Core.Bounds.multi_partition ctx.Em.Ctx.params ~n ~k:(Array.length sizes));
  print_verified
    (Core.Verify.multi_partition icmp ~input:(Em.Vec.Oracle.to_array v) ~sizes
       (Array.map Em.Vec.Oracle.to_array parts))

let multipartition_cmd =
  let doc = "Physically partition into prescribed sizes." in
  Cmd.v
    (Cmd.info "multipartition" ~doc)
    Term.(const run_multipartition $ common_t $ n_t $ sizes_t $ baseline_t)

(* ---- quantiles ---- *)

let run_quantiles c n k =
  setup_logs c;
  let ctx = make_ctx c in
  let v = workload_vec c ctx ~n in
  describe c ctx;
  Printf.printf "problem:      exact (1/%d)-quantiles of %d elements\n" k n;
  let cmp = Em.Ctx.counted ctx icmp in
  let out, cost = Em.Ctx.measured ctx (fun () -> Core.Splitters.exact_quantiles cmp v ~k) in
  report_cost ctx cost;
  let values = Em.Vec.Oracle.to_array out in
  Array.iteri (fun i q -> Printf.printf "q%-3d -> %d\n" (i + 1) q) values;
  let ranks = Core.Splitters.quantile_ranks ~n ~k in
  print_verified (Core.Verify.multi_select icmp ~input:(Em.Vec.Oracle.to_array v) ~ranks values)

let quantiles_cmd =
  let doc = "Report the exact (1/K)-quantile elements (equi-depth boundaries)." in
  Cmd.v (Cmd.info "quantiles" ~doc) Term.(const run_quantiles $ common_t $ n_t $ k_t)

(* ---- cluster (sharded drivers) ---- *)

type cluster_algo = Csort | Cpartition | Cmultiselect | Csplitters

let cluster_algo_t =
  let algos =
    [
      ("sort", Csort); ("partition", Cpartition); ("multiselect", Cmultiselect);
      ("splitters", Csplitters);
    ]
  in
  Arg.(
    required
    & pos 0 (some (enum algos)) None
    & info [] ~docv:"ALGO" ~doc:"Sharded driver: sort, partition, multiselect or splitters.")

let eps_t =
  Arg.(
    value
    & opt float 0.
    & info [ "eps" ] ~docv:"EPS"
        ~doc:
          "Balance slack of the splitter agreement: cut ranks may land within eps*N/(2K) of \
           the exact quantile targets (0 = exact).")

(* The exchange is exactly one superstep, so the agreement's own round count
   is the ledger total minus it (clamped: a perfectly pre-placed input posts
   no transfers and its superstep is free). *)
let cluster_report t ~algo_name ~boundaries (ag : int Core.Cluster.agreement option) =
  let reads, writes, comparisons = Core.Cluster.totals t in
  Printf.printf "work:         %d I/Os (reads %d, writes %d), %d comparisons\n" (reads + writes)
    reads writes comparisons;
  let s = Core.Cluster.comm t in
  Printf.printf "comm:         %d rounds, %d words\n" s.Em.Stats.comm_rounds s.Em.Stats.comm_words;
  let recv = Em.Stats.recv_report s in
  List.iter
    (fun (i, sent) ->
      let got = Option.value (List.assoc_opt i recv) ~default:0 in
      Printf.printf "shard %-7d sent %d, recv %d words\n" i sent got)
    (Em.Stats.sent_report s);
  match ag with
  | None -> Printf.printf "agreement:    none (single shard)\n"
  | Some ag ->
      let exchange_rounds =
        match algo_name with "sort" | "partition" -> 1 | _ -> 0
      in
      let agree_rounds = max 0 (s.Em.Stats.comm_rounds - exchange_rounds) in
      let round_ratio, sample_ratio =
        Core.Bound_track.publish_cluster (Em.Metrics.create ()) ~shards:(Core.Cluster.size t)
          ~algo:algo_name ~boundaries ~rounds_budget:ag.Core.Cluster.rounds_budget
          ~per_round:ag.Core.Cluster.per_round ~iterations:ag.Core.Cluster.iterations
          ~samples:ag.Core.Cluster.samples ~comm_rounds:agree_rounds
      in
      Printf.printf "agreement:    %d boundaries in %d iterations (budget %d, m=%d per round)\n"
        (Array.length ag.Core.Cluster.values)
        ag.Core.Cluster.iterations ag.Core.Cluster.rounds_budget ag.Core.Cluster.per_round;
      Printf.printf "agree rounds: %d vs 2r+2 budget (ratio %.2f)\n" agree_rounds round_ratio;
      Printf.printf "samples:      %d vs rTPm budget (ratio %.2f)\n" ag.Core.Cluster.samples
        sample_ratio;
      Printf.printf "gather:       %d words finished exactly\n" ag.Core.Cluster.gathered

let run_cluster c algo n k ranks eps shards fault_seed fault_p fault_kinds max_retries =
  setup_logs c;
  let trace = make_trace c in
  let t : int Core.Cluster.t =
    Core.Cluster.create ~trace ?backend:c.backend ?disks:c.disks ?shards
      (Em.Params.create ~mem:c.mem ~block:c.block)
  in
  let p = Core.Cluster.size t in
  for i = 0 to p - 1 do
    arm_faults (Core.Cluster.ctx t i) ~max_retries ~fault_p ~fault_seed:(fault_seed + i)
      ~fault_kinds
  done;
  describe c (Core.Cluster.ctx t 0);
  Printf.printf "cluster:      P=%d shards\n" p;
  let a = Core.Workload.generate c.workload ~seed:c.seed ~n ~block:c.block in
  let parts = Core.Cluster.place t a in
  let expect () =
    let e = Array.copy a in
    Array.sort icmp e;
    e
  in
  (match algo with
  | Csort ->
      Printf.printf "problem:      sharded sort of %d elements (eps=%.2f)\n" n eps;
      let out, ag = Core.Cluster.sort ~eps icmp t parts in
      Array.iteri
        (fun i v -> Printf.printf "shard %-7d holds %d sorted elements\n" i (Em.Vec.length v))
        out;
      let merged = Array.concat (Array.to_list (Array.map Em.Vec.Oracle.to_array out)) in
      Array.iter Em.Vec.free out;
      cluster_report t ~algo_name:"sort" ~boundaries:(p - 1) ag;
      print_verified
        (if merged = expect () then Ok () else Error "merged shards <> sorted input")
  | Cpartition ->
      Printf.printf "problem:      sharded partition of %d elements into %d parts (eps=%.2f)\n" n
        k eps;
      let out, ag = Core.Cluster.partition ~eps icmp t parts ~k in
      Array.iteri
        (fun g v ->
          Printf.printf "part %-8d %d elements on shard %d\n" g (Em.Vec.length v)
            (Core.Cluster.owner ~p ~k g))
        out;
      let merged = Array.concat (Array.to_list (Array.map Em.Vec.Oracle.to_array out)) in
      Array.iter Em.Vec.free out;
      cluster_report t ~algo_name:"partition" ~boundaries:(k - 1) ag;
      print_verified
        (if merged = expect () then Ok () else Error "concatenated parts <> sorted input")
  | Cmultiselect ->
      let ranks =
        match ranks with
        | Some rs -> Array.of_list rs
        | None -> Array.of_list (List.sort_uniq compare [ max 1 (n / 4); max 1 (n / 2); max 1 (3 * n / 4) ])
      in
      Printf.printf "problem:      sharded multi-selection of %d ranks from %d elements\n"
        (Array.length ranks) n;
      let values, ag = Core.Cluster.multiselect icmp t parts ~ranks in
      Array.iteri (fun j _ -> Printf.printf "rank %-8d -> %d\n" ranks.(j) values.(j)) ranks;
      cluster_report t ~algo_name:"multiselect" ~boundaries:(Array.length ranks) (Some ag);
      print_verified (Core.Verify.multi_select icmp ~input:a ~ranks values)
  | Csplitters ->
      Printf.printf "problem:      sharded (1+eps)-splitters of %d elements, K=%d (eps=%.2f)\n" n
        k eps;
      let ag = Core.Cluster.splitters ~eps icmp t parts ~k in
      Array.iteri
        (fun j v ->
          Printf.printf "splitter %-4d -> %d (rank %d, target %d)\n" (j + 1) v
            ag.Core.Cluster.ranks.(j) ag.Core.Cluster.targets.(j))
        ag.Core.Cluster.values;
      cluster_report t ~algo_name:"splitters" ~boundaries:(k - 1) (Some ag);
      let e = expect () in
      let rank_le x =
        (* first index with e.(i) > x, i.e. |{ y <= x }| *)
        let lo = ref 0 and hi = ref (Array.length e) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if e.(mid) <= x then lo := mid + 1 else hi := mid
        done;
        !lo
      in
      let err = ref None in
      Array.iteri
        (fun j v ->
          let r = rank_le v in
          if r <> ag.Core.Cluster.ranks.(j) then
            err := Some (Printf.sprintf "splitter %d: claimed rank %d, oracle %d" (j + 1)
                           ag.Core.Cluster.ranks.(j) r)
          else if abs (r - ag.Core.Cluster.targets.(j)) > ag.Core.Cluster.tol then
            err := Some (Printf.sprintf "splitter %d: rank %d off target %d by more than tol %d"
                           (j + 1) r ag.Core.Cluster.targets.(j) ag.Core.Cluster.tol))
        ag.Core.Cluster.values;
      print_verified (match !err with None -> Ok () | Some m -> Error m));
  Array.iter Em.Vec.free parts;
  Core.Cluster.close t

let cluster_cmd =
  let doc =
    "Run a sharded driver on a P-shard cluster (EM machines joined by a metered BSP \
     interconnect).  Outputs are identical at every P; only the communication ledger varies."
  in
  Cmd.v (Cmd.info "cluster" ~doc)
    Term.(
      const run_cluster $ common_t $ cluster_algo_t $ n_t $ k_opt_t $ ranks_opt_t $ eps_t
      $ shards_t $ fault_seed_t
      $ fault_p_t ~default:0. ()
      $ fault_kinds_t $ max_retries_t)

(* ---- reduce (Section 3) ---- *)

let chunk_t =
  Arg.(
    required
    & opt (some int) None
    & info [ "chunk" ] ~docv:"SIZE" ~doc:"Exact partition size for the precise reduction.")

let run_reduce c n chunk =
  setup_logs c;
  let ctx = make_ctx c in
  let v = workload_vec c ctx ~n in
  describe c ctx;
  Printf.printf "problem:      precise partitioning into chunks of %d (Section 3 reduction)\n"
    chunk;
  let cmp = Em.Ctx.counted ctx icmp in
  let parts, cost =
    Em.Ctx.measured ctx (fun () -> Core.Reduction.precise_by_approximate cmp v ~chunk)
  in
  report_cost ctx cost;
  Printf.printf "partitions:   %s\n"
    (String.concat ", "
       (Array.to_list (Array.map (fun p -> string_of_int (Em.Vec.length p)) parts)));
  let sizes = Array.map Em.Vec.length parts in
  print_verified
    (Core.Verify.multi_partition icmp ~input:(Em.Vec.Oracle.to_array v) ~sizes
       (Array.map Em.Vec.Oracle.to_array parts))

let reduce_cmd =
  let doc = "Precise partitioning via the Section 3 reduction." in
  Cmd.v (Cmd.info "reduce" ~doc) Term.(const run_reduce $ common_t $ n_t $ chunk_t)

(* ---- one algorithm dispatch for profile ---- *)

let observed_algo_t =
  Arg.(
    required
    & pos 0
        (some
           (enum
              [
                ("splitters", `Splitters);
                ("partition", `Partition);
                ("multiselect", `Multiselect);
                ("quantiles", `Quantiles);
                ("sort", `Sort);
              ]))
        None
    & info [] ~docv:"ALGO"
        ~doc:"Algorithm to run: splitters, partition, multiselect, quantiles or sort.")

type job = {
  name : string;
  problem : string;  (** the report's "problem:" line *)
  row : (Core.Bound_track.row * Core.Problem.spec) option;
      (** the Table 1 row and spec, when the algorithm has one *)
  run : unit -> unit;  (** the measured computation; frees its output *)
}

let job_of ctx v ~algo ~n ~k ~a ~b ~ranks =
  let cmp = Em.Ctx.counted ctx icmp in
  let table1_row ~right ~left ~two_sided spec =
    match Core.Problem.classify spec with
    | Core.Problem.Right_grounded -> Some (right, spec)
    | Core.Problem.Left_grounded -> Some (left, spec)
    | Core.Problem.Two_sided | Core.Problem.Unconstrained -> Some (two_sided, spec)
  in
  match algo with
  | `Splitters ->
      let spec = spec_of ~n ~k ~a ~b in
      let row =
        table1_row ~right:Core.Bound_track.Splitters_right ~left:Core.Bound_track.Splitters_left
          ~two_sided:Core.Bound_track.Splitters_two_sided spec
      in
      { name = "splitters"; problem = spec_problem "K-splitters" spec; row;
        run = (fun () -> Em.Vec.free (Core.Splitters.solve cmp v spec)) }
  | `Partition ->
      let spec = spec_of ~n ~k ~a ~b in
      let row =
        table1_row ~right:Core.Bound_track.Partition_right ~left:Core.Bound_track.Partition_left
          ~two_sided:Core.Bound_track.Partition_two_sided spec
      in
      { name = "partition"; problem = spec_problem "K-partitioning" spec; row;
        run = (fun () -> Array.iter Em.Vec.free (Core.Partitioning.solve cmp v spec)) }
  | `Multiselect ->
      let ranks =
        match ranks with
        | Some rs -> Array.of_list rs
        | None -> Core.Splitters.quantile_ranks ~n ~k
      in
      let problem =
        Printf.sprintf "multi-selection of %d ranks from %d elements" (Array.length ranks) n
      in
      { name = "multiselect"; problem; row = None;
        run = (fun () -> ignore (Core.Multi_select.select cmp v ~ranks)) }
  | `Quantiles ->
      { name = "quantiles"; problem = Printf.sprintf "exact (1/%d)-quantiles of %d elements" k n;
        row = None; run = (fun () -> Em.Vec.free (Core.Splitters.exact_quantiles cmp v ~k)) }
  | `Sort ->
      { name = "sort"; problem = Printf.sprintf "external sort of %d elements" n; row = None;
        run = (fun () -> Em.Vec.free (Emalg.External_sort.sort cmp v)) }

(* ---- faults ---- *)

let fault_algo_t =
  Arg.(
    required
    & pos 0 (some (enum [ ("sort", `Sort); ("multiselect", `Multiselect); ("splitters", `Splitters) ])) None
    & info [] ~docv:"ALGO" ~doc:"Algorithm to run under faults: sort, multiselect or splitters.")

let crash_every_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "crash-every" ] ~docv:"IOS"
        ~doc:"Additionally crash every IOS I/Os (use with --restartable).")

let verify_writes_t =
  Arg.(
    value & flag
    & info [ "verify-writes" ]
        ~doc:"Read back and checksum every write (catches silent write corruption at write time).")

let restartable_t =
  Arg.(
    value & flag
    & info [ "restartable" ]
        ~doc:"Use the checkpointed restartable drivers (sort and multiselect) so crashes are survived.")

let print_fault_report ctx =
  match Em.Ctx.fault_report ctx with
  | None -> ()
  | Some r ->
      let c = r.Em.Device.counters in
      Printf.printf "recovery:     %d recovered, %d checksum failures, %d quarantined, %d remapped\n"
        c.Em.Device.recovered c.Em.Device.checksum_failures c.Em.Device.quarantined
        c.Em.Device.remapped;
      Printf.printf "fault I/Os:   %d faulted attempts, %d retries\n"
        ctx.Em.Ctx.stats.Em.Stats.faults ctx.Em.Ctx.stats.Em.Stats.retries

let print_restarts (o : _ Emalg.Restart.outcome) =
  Printf.printf "restarts:     %d survived (checkpoint: %d saves / %d I/Os, %d resumes / %d I/Os)\n"
    o.Emalg.Restart.restarts o.Emalg.Restart.saves o.Emalg.Restart.save_ios
    o.Emalg.Restart.loads o.Emalg.Restart.load_ios

let run_faults c algo n k ranks fault_seed p kinds crash_every max_retries verify_writes
    restartable =
  setup_logs c;
  let ctx = make_ctx c in
  let profiler = Em.Profile.create () in
  Em.Profile.attach profiler ctx.Em.Ctx.stats;
  Em.Ctx.arm ~policy:{ Em.Device.default_policy with Em.Device.max_retries; verify_writes } ctx;
  let v = workload_vec c ctx ~n in
  let input = Em.Vec.Oracle.to_array v in
  describe c ctx;
  let plan = Em.Fault.seeded ~seed:fault_seed ~p kinds in
  let plan =
    match crash_every with
    | Some cr -> Em.Fault.any [ Em.Fault.every_nth ~n:cr Em.Fault.Crash; plan ]
    | None -> plan
  in
  Printf.printf "faults:       seeded p=%g seed=%d kinds=%s%s\n" p fault_seed
    (String.concat "," (List.map Em.Fault.kind_name kinds))
    (match crash_every with Some cr -> Printf.sprintf " + crash every %d I/Os" cr | None -> "");
  Em.Ctx.inject ctx plan;
  let cmp = Em.Ctx.counted ctx icmp in
  let restartable_result o =
    print_restarts o;
    match o.Emalg.Restart.result with Ok r -> r | Error e -> Em.Em_error.raise_error e
  in
  let verified, cost =
    Em.Ctx.measured ctx (fun () ->
        Em.Em_error.protect (fun () ->
            match algo with
            | `Sort ->
                let sv =
                  if restartable then restartable_result (Emalg.Restart.sort cmp v)
                  else Emalg.External_sort.sort cmp v
                in
                let out = Em.Vec.Oracle.to_array sv in
                let expect = Array.copy input in
                Array.sort icmp expect;
                if out = expect then Ok () else Error "output is not the sorted input"
            | `Multiselect ->
                let ranks =
                  match ranks with
                  | Some rs -> Array.of_list rs
                  | None -> Core.Splitters.quantile_ranks ~n ~k
                in
                let out =
                  if restartable then restartable_result (Core.Restartable.select cmp v ~ranks)
                  else Core.Multi_select.select cmp v ~ranks
                in
                Core.Verify.multi_select icmp ~input ~ranks out
            | `Splitters ->
                let spec = spec_of ~n ~k ~a:0 ~b:None in
                let out = Core.Splitters.solve cmp v spec in
                Core.Verify.splitters icmp ~input spec (Em.Vec.Oracle.to_array out)))
  in
  report_cost ctx cost;
  print_fault_report ctx;
  Printf.printf "\nspan tree (fault overhead in brackets):\n";
  Format.printf "%a@." Em.Profile.pp profiler;
  match verified with
  | Ok verification -> print_verified verification
  | Error e ->
      Printf.printf "outcome:      typed failure: %s\n" (Em.Em_error.to_string e);
      exit 3

let faults_cmd =
  let doc =
    "Run an algorithm on a fault-injected device with retry/checksum recovery \
     and report the fault overhead (Ok runs are oracle-verified; failures are \
     typed and exit with code 3)."
  in
  Cmd.v
    (Cmd.info "faults" ~doc)
    Term.(
      const run_faults $ common_t $ fault_algo_t $ n_t $ k_opt_t $ ranks_opt_t $ fault_seed_t
      $ fault_p_t () $ fault_kinds_t $ crash_every_t $ max_retries_t $ verify_writes_t
      $ restartable_t)

(* ---- soak ---- *)

let queries_t =
  Arg.(
    value & opt int 48
    & info [ "queries" ] ~docv:"Q" ~doc:"Length of the seeded adversarial query stream.")

let kills_t =
  Arg.(
    value & opt int 2
    & info [ "kills" ] ~docv:"K"
        ~doc:
          "Kill/restore cycles, spread evenly through the stream.  Each kill \
           drops the session without closing it (process RAM dies, the device \
           and checkpoint region survive) and restores from the last \
           checkpoint.")

let checkpoint_every_t =
  Arg.(
    value & opt int 1
    & info [ "checkpoint-every" ] ~docv:"SPLITS"
        ~doc:"Automatic checkpoint policy for both the oracle and chaos runs.")

let soak_flight_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dir" ] ~docv:"DIR"
        ~doc:
          "Dump a flight-recorder post-mortem (recent query records joined with their trace \
           events) into DIR at every chaos kill.  Notices go to stderr so the stdout \
           transcript stays golden-comparable.")

let run_soak c n queries kills checkpoint_every fault_seed fault_p fault_kinds max_retries
    flight_dir =
  setup_logs c;
  let crash_after = Core.Soak.spread_crashes ~queries ~k:kills in
  let cfg =
    {
      Core.Soak.n;
      mem = c.mem;
      block = c.block;
      disks = Option.value c.disks ~default:1;
      backend = c.backend;
      seed = c.seed;
      queries;
      crash_after;
      every_splits = checkpoint_every;
      fault_p;
      fault_seed;
      fault_kinds;
      max_retries;
      flight_dir;
    }
  in
  describe_machine ~disks:cfg.Core.Soak.disks ~mem:c.mem ~block:c.block ();
  Printf.printf "backend:      %s\n"
    (match c.backend with Some s -> Em.Backend.spec_name s | None -> "sim");
  Printf.printf "soak:         n=%d queries=%d kills=%d checkpoint-every=%d fault-p=%g seed=%d\n"
    n queries (List.length crash_after) checkpoint_every fault_p c.seed;
  let o =
    Core.Soak.run
      ~on_crash:(fun r ->
        Printf.printf "crash:        after query %d: restored %d leaves in %d resume I/Os\n"
          r.Core.Soak.after_query r.Core.Soak.leaves_restored r.Core.Soak.resume_load_ios)
      cfg
  in
  List.iter
    (fun path -> Printf.eprintf "flight:       post-mortem written to %s\n%!" path)
    o.Core.Soak.flight_dumps;
  Printf.printf "oracle:       %d I/Os (uninterrupted twin)\n" o.Core.Soak.oracle_ios;
  Printf.printf "chaos:        %d I/Os (%d saves / %d I/Os, %d loads / %d I/Os, %d retries)\n"
    o.Core.Soak.chaos_ios o.Core.Soak.saves o.Core.Soak.save_ios o.Core.Soak.loads
    o.Core.Soak.load_ios o.Core.Soak.retries;
  Printf.printf
    "bound:        allowed %d = oracle + resume loads + %d x (save + re-sort %d)\n"
    o.Core.Soak.allowed_ios o.Core.Soak.crashes o.Core.Soak.resort_allowance;
  Printf.printf "answers:      %s\n"
    (if o.Core.Soak.answers_match then "restored session matches the oracle"
     else "MISMATCH against the oracle");
  Printf.printf "memory:       %s\n"
    (if o.Core.Soak.mem_ok then "peak within M through every recovery" else "LEDGER BREACH");
  if not o.Core.Soak.answers_match then begin
    Printf.printf "verdict:      FAILED (answers diverged)\n";
    exit 2
  end;
  if not (o.Core.Soak.within_bound && o.Core.Soak.mem_ok) then begin
    Printf.printf "verdict:      FAILED (crash overhead out of bound)\n";
    exit 3
  end;
  Printf.printf "verdict:      survived %d kills within the k-crash bound (%.3fx of allowed)\n"
    o.Core.Soak.crashes
    (float_of_int o.Core.Soak.chaos_ios /. float_of_int o.Core.Soak.allowed_ios)

let soak_cmd =
  let doc =
    "Chaos-soak an online multiselection session: a seeded adversarial query \
     stream under scheduled kill/restore cycles (and an optional seeded \
     fault plan), verified against the crash-free oracle twin — answers must \
     match and total I/Os must stay within the k-crash overhead bound (exit \
     2 on divergence, 3 on an overhead breach)."
  in
  Cmd.v
    (Cmd.info "soak" ~doc)
    Term.(
      const run_soak $ common_t $ n_t $ queries_t $ kills_t $ checkpoint_every_t
      $ fault_seed_t
      $ fault_p_t ~default:0. ()
      $ fault_kinds_t $ max_retries_t $ soak_flight_dir_t)

(* ---- profile: the one observed run ---- *)

let format_t =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("prom", `Prom); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Report format: text (costs, span tree, disk balance and block-reuse summary), prom \
           (the metrics registry in Prometheus text exposition) or json (the same registry, \
           canonical JSON).")

let jsonl_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "jsonl" ] ~docv:"FILE" ~doc:"Also stream every I/O event to FILE as JSON lines.")

(* Machine counters, seeks, every span, the per-phase rows and — where the
   problem maps to a Table 1 row — measured vs predicted bound gauges. *)
let print_registry ctx profiler cost job format =
  let reg = Em.Metrics.create () in
  Em.Metrics.publish_stats reg ctx.Em.Ctx.stats;
  Em.Metrics.set
    (Em.Metrics.gauge reg ~help:"I/Os the tracer classified as random" "seeks_total")
    (float_of_int (Em.Trace.seeks ctx.Em.Ctx.trace));
  Em.Profile.publish reg profiler;
  Em.Profile.publish_phase_ios reg profiler;
  (match job.row with
  | Some (row, spec) ->
      ignore
        (Core.Bound_track.publish_values reg ctx.Em.Ctx.params row spec
           ~measured_rounds:cost.Em.Stats.d_rounds
           ~measured_ios:(Em.Stats.delta_ios cost))
  | None -> ());
  match format with
  | `Prom -> print_string (Em.Metrics.to_prometheus reg)
  | `Json -> print_endline (Em.Json.to_string (Em.Metrics.to_json reg))

let print_text c ctx profiler cost job reuse =
  describe c ctx;
  Printf.printf "problem:      %s\n" job.problem;
  report_cost ctx cost;
  Printf.printf "random seeks: %d\n" (Em.Trace.seeks ctx.Em.Ctx.trace);
  (match job.row with
  | Some (row, spec) ->
      let pred = Core.Bound_track.predicted row ctx.Em.Ctx.params spec in
      let measured = Em.Stats.delta_ios cost in
      Printf.printf "Table 1 row:  %s — measured %d / predicted %.1f = ratio %.2f\n"
        (Core.Bound_track.name row) measured pred (float_of_int measured /. pred)
  | None -> ());
  Printf.printf
    "\nspan tree (%s), children sorted by inclusive I/O; wall ms inclusive, then self:\n"
    job.name;
  Format.printf "%a" Em.Profile.pp profiler;
  Printf.printf "\nheaviest spans:\n";
  List.iteri
    (fun i s ->
      if i < 10 then
        Printf.printf "  %8d I/O  %9d cmp  x%-4d %s\n" (Em.Profile.span_ios s)
          s.Em.Profile.cost.Em.Stats.d_comparisons s.Em.Profile.calls
          (Em.Profile.path_name s.Em.Profile.path))
    (Em.Profile.spans profiler);
  print_newline ();
  (* Per-disk balance only on multi-disk machines. *)
  (match Em.Stats.disk_report ctx.Em.Ctx.stats with
  | ([] | [ _ ]) -> ()
  | per_disk ->
      let counts = List.map snd per_disk in
      Printf.printf "disk balance:     %s (max/min = %d/%d)\n"
        (String.concat ", " (List.map (fun (d, n) -> Printf.sprintf "d%d:%d" d n) per_disk))
        (List.fold_left max 0 counts) (List.fold_left min max_int counts));
  Format.printf "%a" Em.Trace_report.pp_summary (reuse ())

let run_profile c algo n k a b ranks format jsonl =
  setup_logs c;
  let trace = make_trace c in
  let reuse_sink, reuse = Em.Trace_report.sink () in
  Em.Trace.add_sink trace reuse_sink;
  let ctx = make_ctx ~trace c in
  let profiler = Em.Profile.create () in
  Em.Profile.attach profiler ctx.Em.Ctx.stats;
  let v = workload_vec c ctx ~n in
  let job = job_of ctx v ~algo ~n ~k ~a ~b ~ranks in
  let run () = Em.Ctx.measured ctx job.run in
  let (), cost =
    match jsonl with
    | None -> run ()
    | Some path ->
        let oc = open_out path in
        Em.Trace.add_sink trace (Em.Trace.jsonl_sink oc);
        Fun.protect ~finally:(fun () -> close_out oc) run
  in
  match format with
  | (`Prom | `Json) as format -> print_registry ctx profiler cost job format
  | `Text ->
      print_text c ctx profiler cost job reuse;
      Option.iter
        (fun path ->
          Printf.printf "events:       %d written to %s\n" (Em.Trace.total trace) path)
        jsonl

let profile_cmd =
  let doc =
    "Run an algorithm under the span profiler and the I/O tracer.  The text report gives \
     its costs, the phase-path span tree (I/Os, comparisons, wall-clock per span), the \
     heaviest spans, disk balance and block reuse; $(b,--format) prom or json dumps the \
     full metrics registry instead."
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      const run_profile $ common_t $ observed_algo_t $ n_t $ k_opt_t $ a_t $ b_opt_t
      $ ranks_opt_t $ format_t $ jsonl_t)

(* ---- bounds ---- *)

(* [bounds] is pure bound arithmetic — no device is ever created — but it
   accepts the common flag set like every other subcommand so sweep scripts
   can pass a uniform flag set. *)
let run_bounds c n k a b =
  let spec = spec_of ~n ~k ~a ~b in
  let p = Em.Params.create ~mem:c.mem ~block:c.block in
  let p = match c.disks with Some d -> Em.Params.with_disks p d | None -> p in
  describe_machine ~disks:p.Em.Params.disks ~mem:c.mem ~block:c.block ();
  Printf.printf "spec:         %s (%s)\n"
    (Format.asprintf "%a" Core.Problem.pp_spec spec)
    (Core.Problem.variant_name (Core.Problem.classify spec));
  Printf.printf "Table 1 predictions (I/Os, constants omitted):\n";
  Printf.printf "  splitters:     lower %.1f   upper %.1f\n"
    (Core.Bounds.splitters_lower p spec)
    (Core.Bounds.splitters_upper p spec);
  Printf.printf "  partitioning:  lower %.1f   upper %.1f\n"
    (Core.Bounds.partitioning_lower p spec)
    (Core.Bounds.partitioning_upper p spec);
  Printf.printf "  one scan:      %.1f\n" (Core.Bounds.scan p ~n);
  Printf.printf "  full sort:     %.1f\n" (Core.Bounds.sort p ~n);
  Printf.printf "  multi-select (K ranks):    %.1f\n" (Core.Bounds.multi_select p ~n ~k);
  Printf.printf "  multi-partition (K parts): %.1f\n" (Core.Bounds.multi_partition p ~n ~k);
  if p.Em.Params.disks > 1 then begin
    Printf.printf "D-disk round forms (I/Os / D):\n";
    Printf.printf "  one scan:      %.1f rounds\n" (Core.Bounds.scan_rounds p ~n);
    Printf.printf "  full sort:     %.1f rounds\n" (Core.Bounds.sort_rounds p ~n)
  end

let bounds_cmd =
  let doc = "Evaluate the paper's Table 1 bound formulas for a spec." in
  Cmd.v (Cmd.info "bounds" ~doc) Term.(const run_bounds $ common_t $ n_t $ k_t $ a_t $ b_opt_t)

(* ---- info ---- *)

let run_info c =
  let ctx = make_ctx c in
  describe c ctx;
  Printf.printf "merge fanout:            %d runs\n" (Emalg.Merge.max_fanout ctx);
  Printf.printf "distribution fanout:     %d buckets\n" (Emalg.Distribute.max_fanout ctx);
  Printf.printf "half-load (base cases):  %d words\n" (Emalg.Layout.half_load ctx);
  Printf.printf "sample-splitter max k:   %d\n" (Emalg.Sample_splitters.max_k ctx);
  Printf.printf "intermixed max groups:   %d\n" (Core.Intermixed.max_groups ctx);
  Printf.printf "multi-select batch m:    %d\n" (Core.Multi_select.batch_size ctx)

let info_cmd =
  let doc = "Print the derived parameters of a machine geometry." in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run_info $ common_t)

let () =
  let doc =
    "I/O-optimal approximate partitions and splitters in external memory \
     (reproduction of Hu, Tao, Yang, Zhou; SPAA 2014)"
  in
  let main = Cmd.group (Cmd.info "em_repro" ~doc)
      [
        splitters_cmd;
        partition_cmd;
        multiselect_cmd;
        multipartition_cmd;
        quantiles_cmd;
        cluster_cmd;
        reduce_cmd;
        profile_cmd;
        faults_cmd;
        soak_cmd;
        bounds_cmd;
        info_cmd;
        Serve.cmd;
        Top.cmd;
      ]
  in
  exit (Cmd.eval main)
