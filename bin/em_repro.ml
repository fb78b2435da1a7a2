(* Command-line driver: run any algorithm of the library on a synthetic
   workload, on a simulated EM machine of chosen geometry, and report exact
   I/O statistics plus oracle verification.

     em_repro splitters -n 262144 -k 16 -a 128 -b 262144
     em_repro partition -n 100000 -k 10 -a 0 -b 20000 --workload sorted
     em_repro multiselect -n 65536 --ranks 1,1000,32768
     em_repro profile sort -n 65536 --disks 2
     em_repro faults sort -n 20000 --restartable --crash-every 800
     em_repro bounds -n 1048576 -k 64 -a 256 -b 65536
     em_repro serve -n 65536 < queries.txt

   The algorithms form one table ([table]).  An entry declares its own flags
   once and builds a [job] from them; three reports run jobs: the plain
   report (one top-level subcommand per entry), [profile] and [faults] (one
   sub-command per entry each).  So every algorithm has all three reports,
   and a flag the algorithm does not read is a usage error.  The
   machine/backend/workload flags shared by every subcommand live in
   {!Cli_args} (one [common_t] term). *)

open Cmdliner
open Cli_args

let icmp = Int.compare

(* ---- algorithm flags ---- *)

let k_t = Arg.(value & opt int 16 & info [ "k" ] ~docv:"K" ~doc:"Partition / quantile count.")
let a_t = Arg.(value & opt int 0 & info [ "a" ] ~docv:"A" ~doc:"Lower partition-size bound.")

let b_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "b" ] ~docv:"B" ~doc:"Upper partition-size bound (default: n).")

let baseline_t =
  Arg.(value & flag & info [ "baseline" ] ~doc:"Run the sort-based baseline instead.")

let ranks_t =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "ranks" ] ~docv:"R1,R2,..."
        ~doc:
          "Strictly increasing 1-based ranks (default: the K quantile ranks; $(b,cluster \
           multiselect) takes the quartiles).")

let sizes_t =
  Arg.(
    required
    & opt (some (list int)) None
    & info [ "sizes" ] ~docv:"S1,S2,..." ~doc:"Positive partition sizes summing to n.")

let chunk_t =
  Arg.(
    required
    & opt (some int) None
    & info [ "chunk" ] ~docv:"SIZE" ~doc:"Exact partition size for the precise reduction.")

(* ---- the algorithm table ---- *)

(* A finished run, as its reports see it. *)
type outcome = {
  show : unit -> unit;  (** the plain report's result lines *)
  verify : int array -> (unit, string) result;  (** oracle check against the input *)
  free : unit -> unit;
}

type job = {
  problem : string;  (** the "problem:" line *)
  row : (Core.Bound_track.row * Core.Problem.spec) option;
      (** the Table 1 row and spec, when the problem has one *)
  bound : (Em.Params.t -> string) option;  (** the plain report's "bound:" line *)
  run : unit -> outcome;  (** the measured computation *)
}

(* One algorithm: its flags, parsed once into ['a], and the job they build
   over a counted comparator and the input.  [restart] is the checkpointed
   driver, on the entries that have one; [faults] runs it under
   --restartable. *)
type entry =
  | Entry : {
      name : string;
      doc : string;
      flags : 'a Term.t;
      job : 'a -> (int -> int -> int) -> int Em.Vec.t -> job;
      restart :
        ('a -> (int -> int -> int) -> int Em.Vec.t -> outcome Emalg.Restart.outcome) option;
    }
      -> entry

let entry ?restart name doc flags job = Entry { name; doc; flags; job; restart }
let pair x y = (x, y)
let with_baseline t = Term.(const pair $ t $ baseline_t)
let spec_t = Term.(const (fun k a b -> (k, a, b)) $ k_t $ a_t $ b_t)

(* A K-splitters / K-partitioning job: its "problem:" line, Table 1 row and
   bound all follow from the spec. *)
let table1_job what (right, left, two_sided) (lower, upper) v (k, a, b) run =
  let spec = spec_of ~n:(Em.Vec.length v) ~k ~a ~b in
  let variant = Core.Problem.classify spec in
  let row =
    match variant with
    | Core.Problem.Right_grounded -> right
    | Core.Problem.Left_grounded -> left
    | Core.Problem.Two_sided | Core.Problem.Unconstrained -> two_sided
  in
  {
    problem =
      Printf.sprintf "%s %s, %s" (Core.Problem.variant_name variant) what
        (Format.asprintf "%a" Core.Problem.pp_spec spec);
    row = Some (row, spec);
    bound =
      Some
        (fun p ->
          Printf.sprintf "lower %.1f, upper %.1f I/Os (Table 1, no constants)" (lower p spec)
            (upper p spec));
    run = (fun () -> run spec);
  }

let job ?bound problem run = { problem; row = None; bound; run }

let bound source f p = Printf.sprintf "%.1f I/Os (%s, no constants)" (f p) source

(* The output's contents are read back once, after the measured run. *)
let vec_outcome ?(show = ignore) out verify =
  let got = lazy (Em.Vec.Oracle.to_array out) in
  {
    show = (fun () -> show (Lazy.force got));
    verify = (fun input -> verify input (Lazy.force got));
    free = (fun () -> Em.Vec.free out);
  }

let parts_outcome ?(show = false) parts verify =
  {
    show =
      (fun () ->
        if show then
          Printf.printf "partitions:   %s\n"
            (String.concat ", "
               (Array.to_list (Array.map (fun p -> string_of_int (Em.Vec.length p)) parts))));
    verify = (fun input -> verify input (Array.map Em.Vec.Oracle.to_array parts));
    free = (fun () -> Array.iter Em.Vec.free parts);
  }

let ranks_of v (k, ranks) =
  match ranks with
  | Some rs -> Array.of_list rs
  | None -> Core.Splitters.quantile_ranks ~n:(Em.Vec.length v) ~k

let selected ranks results =
  {
    show =
      (fun () -> Array.iteri (fun i r -> Printf.printf "rank %-8d -> %d\n" ranks.(i) r) results);
    verify = (fun input -> Core.Verify.multi_select icmp ~input ~ranks results);
    free = ignore;
  }

let sorted out =
  vec_outcome out (fun input got ->
      let expect = Array.copy input in
      Array.sort icmp expect;
      if got = expect then Ok () else Error "output is not the sorted input")

let restarted f (o : _ Emalg.Restart.outcome) =
  { o with Emalg.Restart.result = Result.map f o.Emalg.Restart.result }

let table =
  [
    entry "splitters" "Solve the approximate K-splitters problem." (with_baseline spec_t)
      (fun (s, baseline) cmp v ->
        let solve = if baseline then Core.Baseline.splitters else Core.Splitters.solve in
        table1_job "K-splitters"
          Core.Bound_track.(Splitters_right, Splitters_left, Splitters_two_sided)
          Core.Bounds.(splitters_lower, splitters_upper) v s (fun spec ->
            vec_outcome (solve cmp v spec) (fun input -> Core.Verify.splitters icmp ~input spec)));
    entry "partition" "Solve the approximate K-partitioning problem." (with_baseline spec_t)
      (fun (s, baseline) cmp v ->
        let solve = if baseline then Core.Baseline.partitioning else Core.Partitioning.solve in
        table1_job "K-partitioning"
          Core.Bound_track.(Partition_right, Partition_left, Partition_two_sided)
          Core.Bounds.(partitioning_lower, partitioning_upper) v s (fun spec ->
            parts_outcome ~show:true (solve cmp v spec) (fun input ->
                Core.Verify.partitioning icmp ~input spec)));
    entry "multiselect" "Report the elements of the given ranks (Theorem 4)."
      (with_baseline Term.(const pair $ k_t $ ranks_t))
      ~restart:(fun (kr, _) cmp v ->
        let ranks = ranks_of v kr in
        restarted (selected ranks) (Core.Restartable.select cmp v ~ranks))
      (fun (kr, baseline) cmp v ->
        let ranks = ranks_of v kr and n = Em.Vec.length v in
        let k = Array.length ranks in
        let select = if baseline then Core.Baseline.multi_select else Core.Multi_select.select in
        job
          (Printf.sprintf "multi-selection of %d ranks from %d elements" k n)
          ~bound:(bound "Theorem 4" (fun p -> Core.Bounds.multi_select p ~n ~k))
          (fun () -> selected ranks (select cmp v ~ranks)));
    entry "multipartition" "Physically partition into prescribed sizes." (with_baseline sizes_t)
      (fun (sizes, baseline) cmp v ->
        let sizes = Array.of_list sizes and n = Em.Vec.length v in
        let k = Array.length sizes in
        let partition =
          if baseline then Core.Baseline.multi_partition else Core.Multi_partition.partition_sizes
        in
        job
          (Printf.sprintf "multi-partition into %d prescribed sizes" k)
          ~bound:(bound "Aggarwal-Vitter" (fun p -> Core.Bounds.multi_partition p ~n ~k))
          (fun () ->
            parts_outcome (partition cmp v ~sizes) (fun input ->
                Core.Verify.multi_partition icmp ~input ~sizes)));
    entry "quantiles" "Report the exact (1/K)-quantile elements (equi-depth boundaries)." k_t
      (fun k cmp v ->
        let n = Em.Vec.length v in
        job (Printf.sprintf "exact (1/%d)-quantiles of %d elements" k n) (fun () ->
            vec_outcome
              (Core.Splitters.exact_quantiles cmp v ~k)
              ~show:(Array.iteri (fun i q -> Printf.printf "q%-3d -> %d\n" (i + 1) q))
              (fun input ->
                let ranks = Core.Splitters.quantile_ranks ~n ~k in
                Core.Verify.multi_select icmp ~input ~ranks)));
    entry "reduce" "Precise partitioning via the Section 3 reduction." chunk_t (fun chunk cmp v ->
        job
          (Printf.sprintf "precise partitioning into chunks of %d (Section 3 reduction)" chunk)
          (fun () ->
            let parts = Core.Reduction.precise_by_approximate cmp v ~chunk in
            parts_outcome ~show:true parts (fun input ->
                Core.Verify.multi_partition icmp ~input ~sizes:(Array.map Em.Vec.length parts))));
    entry "sort" "Sort externally (multiway merge sort)." (Term.const ())
      ~restart:(fun () cmp v -> restarted sorted (Emalg.Restart.sort cmp v))
      (fun () cmp v ->
        let n = Em.Vec.length v in
        job
          (Printf.sprintf "external sort of %d elements" n)
          ~bound:(bound "Aggarwal-Vitter" (fun p -> Core.Bounds.sort p ~n))
          (fun () -> sorted (Emalg.External_sort.sort cmp v)));
  ]

(* ---- the plain report ---- *)

let run_plain c n build =
  setup_logs c;
  let ctx = make_ctx c in
  let v = workload_vec c ctx ~n in
  let job = build (Em.Ctx.counted ctx icmp) v in
  describe c ctx;
  Printf.printf "problem:      %s\n" job.problem;
  let out, cost = Em.Ctx.measured ctx job.run in
  report_cost ctx cost;
  Option.iter
    (fun bound -> Printf.printf "bound:        %s\n" (bound ctx.Em.Ctx.params))
    job.bound;
  out.show ();
  let verified = out.verify (Em.Vec.Oracle.to_array v) in
  out.free ();
  print_verified verified

let plain_cmd (Entry e) =
  Cmd.v (Cmd.info e.name ~doc:e.doc)
    Term.(const (fun c n flags -> run_plain c n (e.job flags)) $ common_t $ n_t $ e.flags)

(* ---- profile: the observed run ---- *)

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

let print_text c ctx profiler cost ~name job reuse =
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
    "\nspan tree (%s), children sorted by inclusive I/O; wall ms inclusive, then self:\n" name;
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

let run_profile c n ~name build format jsonl =
  setup_logs c;
  let trace = Em.Trace.create () in
  let reuse_sink, reuse = Em.Trace_report.sink () in
  Em.Trace.add_sink trace reuse_sink;
  let ctx = make_ctx ~trace c in
  let profiler = Em.Profile.create () in
  Em.Profile.attach profiler ctx.Em.Ctx.stats;
  let v = workload_vec c ctx ~n in
  let job = build (Em.Ctx.counted ctx icmp) v in
  let run () = Em.Ctx.measured ctx (fun () -> (job.run ()).free ()) in
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
      print_text c ctx profiler cost ~name job reuse;
      Option.iter
        (fun path ->
          Printf.printf "events:       %d written to %s\n" (Em.Trace.total trace) path)
        jsonl

let profile_cmd (Entry e) =
  Cmd.v (Cmd.info e.name ~doc:e.doc)
    Term.(
      const (fun c n flags -> run_profile c n ~name:e.name (e.job flags))
      $ common_t $ n_t $ e.flags $ format_t $ jsonl_t)

(* ---- faults ---- *)

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
        ~doc:"Use the checkpointed restartable driver, so crashes are survived.")

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

let run_faults c n build restart fault_seed p kinds crash_every max_retries verify_writes =
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
  let job = build cmp v in
  let run () =
    match restart with
    | None -> job.run ()
    | Some restart -> (
        let o = restart cmp v in
        print_restarts o;
        match o.Emalg.Restart.result with Ok r -> r | Error e -> Em.Em_error.raise_error e)
  in
  let verified, cost =
    Em.Ctx.measured ctx (fun () ->
        Em.Em_error.protect (fun () ->
            let out = run () in
            let verified = out.verify input in
            out.free ();
            verified))
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

(* --restartable exists only on the entries with a checkpointed driver. *)
let faults_cmd (Entry e) =
  let restart_t =
    match e.restart with
    | None -> Term.const (fun _ -> None)
    | Some restart ->
        Term.(const (fun on flags -> if on then Some (restart flags) else None) $ restartable_t)
  in
  Cmd.v (Cmd.info e.name ~doc:e.doc)
    Term.(
      const (fun c n flags restart -> run_faults c n (e.job flags) (restart flags))
      $ common_t $ n_t $ e.flags $ restart_t $ fault_seed_t $ fault_p_t () $ fault_kinds_t
      $ crash_every_t $ max_retries_t $ verify_writes_t)

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
  let trace = Em.Trace.create () in
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
      const run_cluster $ common_t $ cluster_algo_t $ n_t $ k_t $ ranks_t $ eps_t
      $ shards_t $ fault_seed_t
      $ fault_p_t ~default:0. ()
      $ fault_kinds_t $ max_retries_t)

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
  Cmd.v (Cmd.info "bounds" ~doc) Term.(const run_bounds $ common_t $ n_t $ k_t $ a_t $ b_t)

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
  let profile =
    let doc =
      "Run an algorithm under the span profiler and the I/O tracer.  The text report gives \
       its costs, the phase-path span tree (I/Os, comparisons, wall-clock per span), the \
       heaviest spans, disk balance and block reuse; $(b,--format) prom or json dumps the \
       full metrics registry instead."
    in
    Cmd.group (Cmd.info "profile" ~doc) (List.map profile_cmd table)
  in
  let faults =
    let doc =
      "Run an algorithm on a fault-injected device with retry/checksum recovery \
       and report the fault overhead (Ok runs are oracle-verified; failures are \
       typed and exit with code 3)."
    in
    Cmd.group (Cmd.info "faults" ~doc) (List.map faults_cmd table)
  in
  let main =
    Cmd.group (Cmd.info "em_repro" ~doc)
      (List.map plain_cmd table
      @ [ cluster_cmd; profile; faults; soak_cmd; bounds_cmd; info_cmd; Serve.cmd; Top.cmd ])
  in
  exit (Cmd.eval main)
