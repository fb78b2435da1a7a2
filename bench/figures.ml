(* Derived figures: the behaviours the paper's theory implies but never plots
   (it has no empirical section).  Each figure prints a series and a
   one-line interpretation, and contributes its measured points to the
   BENCH_figures.json artifact. *)

let icmp = Exp.icmp
let seed = 23

(* Points without a matching Table 1 formula publish predicted = null. *)
let point ~fig ~label ~machine ~n ?extra_geometry ?predicted m =
  Exp.artifact_row ~row:fig ~label ~machine ~n ?extra_geometry ?predicted m

(* F-SUB — the headline observation after Theorem 1: right-grounded
   splitters cost o(N/B) when aK is small: the algorithm does not even read
   most of the input. *)
let sublinear () =
  let n = Exp.scaled (1 lsl 20) and k = 16 in
  let machine = Exp.default_machine in
  let p = Exp.params machine in
  Exp.section
    (Printf.sprintf
       "Figure SUB — sublinear right-grounded splitters   [N=%d, K=%d, %s]" n k
       (Exp.machine_name machine));
  let one_scan = n / machine.Exp.block in
  let artifacts = ref [] in
  let rows =
    List.filter_map
      (fun a ->
        let spec = { Core.Problem.n; k; a; b = n } in
        if Result.is_error (Core.Problem.validate spec) then None
        else begin
          let m =
            Exp.measure ~machine ~seed ~n (fun _ctx v ->
                let out = Core.Splitters.right_grounded icmp v spec in
                let input = Em.Vec.Oracle.to_array v in
                Exp.expect_ok "splitters"
                  (Core.Verify.splitters icmp ~input spec (Em.Vec.Oracle.to_array out)))
          in
          artifacts :=
            point ~fig:"sublinear" ~label:(Printf.sprintf "a=%d" a) ~machine ~n
              ~extra_geometry:[ ("k", k); ("a", a); ("b", n) ]
              ~predicted:(Core.Bounds.splitters_right_upper p spec)
              m
            :: !artifacts;
          Some
            [
              Printf.sprintf "a=%d" a;
              string_of_int m.Exp.ios;
              Printf.sprintf "%.4f" (float_of_int m.Exp.ios /. float_of_int one_scan);
            ]
        end)
      [ 2; 8; 64; 512; 4_096; 16_384; n / k ]
  in
  Exp.table ~header:[ "a"; "measured I/O"; "fraction of one scan" ] rows;
  Printf.printf
    "  => one full scan of the input is %d I/Os; small a stays far below it.\n"
    one_scan;
  List.rev !artifacts

(* F-SEP — Section 1.3: multi-selection (Theorem 4) is never more expensive
   than multi-partition at the same K, and the bounds separate at small K
   (lg(K/B) vs lg(K)). *)
let separation () =
  let n = Exp.scaled (1 lsl 18) in
  let machine = Exp.default_machine in
  let p = Exp.params machine in
  Exp.section
    (Printf.sprintf
       "Figure SEP — multi-selection vs multi-partition   [N=%d, %s]" n
       (Exp.machine_name machine));
  let artifacts = ref [] in
  let rows =
    List.filter_map
      (fun k ->
        if k > n then None
        else begin
          let ranks = Array.init k (fun i -> (i + 1) * (n / k)) in
          let ms =
            Exp.measure ~machine ~seed ~n (fun _ctx v ->
                let results = Core.Multi_select.select icmp v ~ranks in
                let input = Em.Vec.Oracle.to_array v in
                Exp.expect_ok "multi-select"
                  (Core.Verify.multi_select icmp ~input ~ranks results))
          in
          let mp =
            Exp.measure ~machine ~seed ~n (fun _ctx v ->
                let sizes = Array.make k (n / k) in
                let parts = Core.Multi_partition.partition_sizes icmp v ~sizes in
                Array.iter Em.Vec.free parts)
          in
          artifacts :=
            point ~fig:"separation_multi_partition" ~label:(Printf.sprintf "K=%d" k)
              ~machine ~n ~extra_geometry:[ ("k", k) ]
              ~predicted:(Core.Bounds.multi_partition p ~n ~k)
              mp
            :: point ~fig:"separation_multi_select" ~label:(Printf.sprintf "K=%d" k)
                 ~machine ~n ~extra_geometry:[ ("k", k) ]
                 ~predicted:(Core.Bounds.multi_select p ~n ~k)
                 ms
            :: !artifacts;
          Some
            [
              string_of_int k;
              string_of_int ms.Exp.ios;
              Exp.fmt_f (Core.Bounds.multi_select p ~n ~k);
              string_of_int mp.Exp.ios;
              Exp.fmt_f (Core.Bounds.multi_partition p ~n ~k);
            ]
        end)
      [ 4; 16; 64; 256; 1_024; 4_096 ]
  in
  Exp.table
    ~header:
      [ "K"; "multi-select I/O"; "MS bound"; "multi-partition I/O"; "MP bound" ]
    rows;
  Printf.printf
    "  => the bound columns separate at small K (lg K/B vs lg K) and meet at large K.\n";
  Printf.printf
    "     Measured: multi-selection never costs more than multi-partition: one base case\n";
  Printf.printf
    "     for K <= m; above m a one-merge sort up to about M^2/B elements, above that one\n";
  Printf.printf "     counting scan, then only the buckets holding a rank move.\n";
  List.rev !artifacts

(* F-APPROX — the introduction's motivation: accepting slack [a, b] around
   the perfectly balanced N/K makes both problems cheaper. *)
let slack () =
  let n = Exp.scaled (1 lsl 18) and k = 64 in
  let machine = Exp.default_machine in
  Exp.section
    (Printf.sprintf
       "Figure APPROX — price of balance: slack sweep   [N=%d, K=%d, %s]" n k
       (Exp.machine_name machine));
  let even = n / k in
  let artifacts = ref [] in
  let rows =
    List.map
      (fun s ->
        let a = max 1 (even / s) and b = min n (even * s) in
        let spec = { Core.Problem.n; k; a; b } in
        let spl =
          Exp.measure ~machine ~seed ~n (fun _ctx v ->
              let out = Core.Splitters.solve icmp v spec in
              let input = Em.Vec.Oracle.to_array v in
              Exp.expect_ok "splitters"
                (Core.Verify.splitters icmp ~input spec (Em.Vec.Oracle.to_array out)))
        in
        let par =
          Exp.measure ~machine ~seed ~n (fun _ctx v ->
              let parts = Core.Partitioning.solve icmp v spec in
              let input = Em.Vec.Oracle.to_array v in
              Exp.expect_ok "partitioning"
                (Core.Verify.partitioning icmp ~input spec (Array.map Em.Vec.Oracle.to_array parts)))
        in
        let geom = [ ("k", k); ("a", a); ("b", b) ] in
        artifacts :=
          point ~fig:"slack_partitioning" ~label:(Printf.sprintf "%dx" s) ~machine ~n
            ~extra_geometry:geom par
          :: point ~fig:"slack_splitters" ~label:(Printf.sprintf "%dx" s) ~machine ~n
               ~extra_geometry:geom spl
          :: !artifacts;
        [
          Printf.sprintf "%dx" s;
          Printf.sprintf "[%d, %d]" a b;
          string_of_int spl.Exp.ios;
          string_of_int par.Exp.ios;
        ])
      [ 1; 2; 4; 16; 64 ]
  in
  Exp.table ~header:[ "slack"; "[a, b]"; "splitters I/O"; "partitioning I/O" ] rows;
  Printf.printf
    "  => large slack collapses the cost (the paper's motivation); moderate slack\n";
  Printf.printf
    "     keeps the even-quantile shortcut, so the curve is a step, not a slope.\n";
  List.rev !artifacts

(* F-SCALE — cost per scan across input sizes: the optimal algorithms stay
   (near-)flat while the sort baseline grows with lg_{M/B}(N/B). *)
let scaling () =
  let machine = Exp.default_machine in
  Exp.section
    (Printf.sprintf "Figure SCALE — scans used vs input size   [%s]"
       (Exp.machine_name machine));
  let per_scan n ios = float_of_int ios /. (float_of_int n /. float_of_int machine.Exp.block) in
  let artifacts = ref [] in
  let rows =
    List.map
      (fun n ->
        let k = 8 in
        let ranks = Array.init k (fun i -> (i + 1) * (n / k)) in
        let ms =
          Exp.measure ~machine ~seed ~n (fun _ctx v ->
              ignore (Core.Multi_select.select icmp v ~ranks))
        in
        let left_spec = { Core.Problem.n; k = 16; a = 0; b = n / 4 } in
        let ls =
          Exp.measure ~machine ~seed ~n (fun _ctx v ->
              Em.Vec.free (Core.Splitters.left_grounded icmp v left_spec))
        in
        let sort =
          Exp.measure ~machine ~seed ~n (fun _ctx v ->
              Em.Vec.free (Emalg.External_sort.sort icmp v))
        in
        let lbl = Printf.sprintf "N=%d" n in
        artifacts :=
          point ~fig:"scaling_sort" ~label:lbl ~machine ~n sort
          :: point ~fig:"scaling_left_splitters" ~label:lbl ~machine ~n
               ~extra_geometry:[ ("k", 16); ("a", 0); ("b", n / 4) ]
               ls
          :: point ~fig:"scaling_multi_select" ~label:lbl ~machine ~n
               ~extra_geometry:[ ("k", k) ]
               ms
          :: !artifacts;
        [
          string_of_int n;
          Exp.fmt_ratio (per_scan n ms.Exp.ios);
          Exp.fmt_ratio (per_scan n ls.Exp.ios);
          Exp.fmt_ratio (per_scan n sort.Exp.ios);
        ])
      (Exp.scale_sizes ())
  in
  Exp.table
    ~header:
      [ "N"; "multi-select (K=8) scans"; "left splitters (b=N/4) scans"; "sort scans" ]
    rows;
  Printf.printf
    "  => columns are I/Os divided by N/B.  The sort column steps up with each extra\n";
  Printf.printf
    "     merge pass (lg_{M/B}(N/B)); the multi-select and left-splitter columns stay\n";
  Printf.printf
    "     flat: the base case is sample splitters plus one counting scan, O(N/B) at\n";
  Printf.printf "     every N (DESIGN.md section 2).\n";
  List.rev !artifacts

(* F-INTER — Lemma 6: intermixed selection is linear in |D|, independent of
   the number of groups L. *)
let intermixed () =
  let machine = Exp.default_machine in
  let total = Exp.scaled (1 lsl 17) in
  Exp.section
    (Printf.sprintf "Figure INTER — intermixed selection: L independence   [|D|=%d, %s]"
       total (Exp.machine_name machine));
  let ctx_probe : int Em.Ctx.t = Em.Ctx.create (Exp.params machine) in
  let lmax = Core.Intermixed.max_groups ctx_probe in
  let rng = Core.Workload.Rng.create 99 in
  let artifacts = ref [] in
  let rows =
    List.filter_map
      (fun l ->
        if l > lmax then None
        else begin
          let pairs =
            Array.init total (fun i ->
                let g = if i < l then i else Core.Workload.Rng.int rng l in
                (Core.Workload.Rng.int rng 1_000_000, g))
          in
          let counts = Array.make l 0 in
          Array.iter (fun (_, g) -> counts.(g) <- counts.(g) + 1) pairs;
          let targets = Array.map (fun c -> (c + 1) / 2) counts in
          let trace = Em.Trace.create () in
          let ctx : int Em.Ctx.t = Em.Ctx.create ~trace (Exp.params machine) in
          let pctx : (int * int) Em.Ctx.t = Em.Ctx.linked ctx in
          let d = Em.Vec.of_array pctx pairs in
          let t0 = Unix.gettimeofday () in
          let (), cost =
            Em.Ctx.measured ctx (fun () -> ignore (Core.Intermixed.select icmp d ~targets))
          in
          let wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
          let ios = Em.Stats.delta_ios cost in
          let m =
            {
              Exp.ios;
              reads = cost.Em.Stats.d_reads;
              writes = cost.Em.Stats.d_writes;
              rounds = cost.Em.Stats.d_rounds;
              comparisons = cost.Em.Stats.d_comparisons;
              peak_mem = ctx.Em.Ctx.stats.Em.Stats.mem_peak;
              random_ios = Em.Trace.seeks trace;
              wall_ns;
            }
          in
          artifacts :=
            point ~fig:"intermixed" ~label:(Printf.sprintf "L=%d" l) ~machine ~n:total
              ~extra_geometry:[ ("groups", l) ]
              m
            :: !artifacts;
          Some
            [
              string_of_int l;
              string_of_int ios;
              Exp.fmt_ratio
                (float_of_int ios
                /. (float_of_int total /. float_of_int machine.Exp.block));
            ]
        end)
      [ 1; 2; 4; 8; 16; lmax ]
  in
  Exp.table ~header:[ "L (groups)"; "measured I/O"; "scans of D" ] rows;
  Printf.printf "  => cost is O(|D|/B) regardless of how many selection threads run.\n";
  List.rev !artifacts

(* F-MP-GAP — Section 1.2: before Theorem 4, the best multi-selection upper
   bound went through multi-partition; the new algorithm closes the gap. *)
let old_vs_new () =
  let n = Exp.scaled (1 lsl 18) in
  let machine = Exp.default_machine in
  let p = Exp.params machine in
  Exp.section
    (Printf.sprintf
       "Figure GAP — multi-selection: Theorem 4 vs the old multi-partition route   [N=%d, %s]"
       n (Exp.machine_name machine));
  let artifacts = ref [] in
  let rows =
    List.map
      (fun k ->
        let ranks = Array.init k (fun i -> (i + 1) * (n / k)) in
        let new_way =
          Exp.measure ~machine ~seed ~n (fun _ctx v ->
              ignore (Core.Multi_select.select icmp v ~ranks))
        in
        let old_way =
          Exp.measure ~machine ~seed ~n (fun _ctx v -> Exp.multi_partition_route icmp v ~ranks)
        in
        artifacts :=
          point ~fig:"gap_via_multi_partition" ~label:(Printf.sprintf "K=%d" k)
            ~machine ~n ~extra_geometry:[ ("k", k) ]
            old_way
          :: point ~fig:"gap_theorem4" ~label:(Printf.sprintf "K=%d" k) ~machine ~n
               ~extra_geometry:[ ("k", k) ]
               ~predicted:(Core.Bounds.multi_select p ~n ~k)
               new_way
          :: !artifacts;
        [
          string_of_int k;
          string_of_int new_way.Exp.ios;
          string_of_int old_way.Exp.ios;
          Exp.fmt_ratio (float_of_int old_way.Exp.ios /. float_of_int new_way.Exp.ios);
        ])
      [ 4; 16; 64; 256; 1_024; 4_096 ]
  in
  Exp.table
    ~header:[ "K"; "Theorem 4 I/O"; "via multi-partition I/O"; "old / new" ]
    rows;
  Printf.printf
    "  => Theorem 4 wins at every K: one base case for K <= m; above m its general case\n";
  Printf.printf
    "     sorts with one merge pass up to about M^2/B elements (three scans, the --small\n";
  Printf.printf
    "     sweep) and above that counts the buckets and moves only those holding a rank, so\n";
  Printf.printf
    "     its cost follows the gaps between ranks and nears the old route only once the\n";
  Printf.printf "     ranks touch every bucket.\n";
  List.rev !artifacts

(* F-FLOOR — the lower-bound proofs, executed: the unconditional counting
   floors of Sections 2/3 sit below the measured cost of our algorithms,
   which sit below a constant times the Table 1 upper-bound formulas. *)
let floors () =
  let n = Exp.scaled (1 lsl 18) in
  let machine = Exp.default_machine in
  let p = Exp.params machine in
  Exp.section
    (Printf.sprintf
       "Figure FLOOR — counting floors vs measured vs bound formulas   [N=%d, %s]" n
       (Exp.machine_name machine));
  let artifacts = ref [] in
  let rows =
    List.filter_map
      (fun (label, spec, solve) ->
        if Result.is_error (Core.Problem.validate spec) then None
        else begin
          let m =
            Exp.measure ~machine ~seed ~n (fun _ctx v -> (solve v spec : unit))
          in
          let floor, lb, ub =
            match Core.Problem.classify spec with
            | Core.Problem.Right_grounded ->
                ( Core.Counting.splitters_right_floor p spec,
                  Core.Bounds.splitters_right_lower p spec,
                  Core.Bounds.splitters_right_upper p spec )
            | Core.Problem.Left_grounded | Core.Problem.Two_sided
            | Core.Problem.Unconstrained ->
                ( Core.Counting.splitters_left_floor p spec,
                  Core.Bounds.splitters_left_lower p spec,
                  Core.Bounds.splitters_left_upper p spec )
          in
          artifacts :=
            point ~fig:"floors" ~label ~machine ~n
              ~extra_geometry:
                [
                  ("k", spec.Core.Problem.k);
                  ("a", spec.Core.Problem.a);
                  ("b", spec.Core.Problem.b);
                ]
              ~predicted:ub m
            :: !artifacts;
          Some
            [
              label;
              Exp.fmt_f floor;
              Exp.fmt_f lb;
              string_of_int m.Exp.ios;
              Exp.fmt_f ub;
            ]
        end)
      [
        ( "right a=64 K=256",
          { Core.Problem.n; k = 256; a = 64; b = n },
          fun v spec -> Em.Vec.free (Core.Splitters.right_grounded icmp v spec) );
        ( "right a=512 K=64",
          { Core.Problem.n; k = 64; a = 512; b = n },
          fun v spec -> Em.Vec.free (Core.Splitters.right_grounded icmp v spec) );
        ( "left b=N/16 K=64",
          { Core.Problem.n; k = 64; a = 0; b = n / 16 },
          fun v spec -> Em.Vec.free (Core.Splitters.left_grounded icmp v spec) );
        ( "left b=N/4 K=16",
          { Core.Problem.n; k = 16; a = 0; b = n / 4 },
          fun v spec -> Em.Vec.free (Core.Splitters.left_grounded icmp v spec) );
      ]
  in
  Exp.table
    ~header:[ "instance"; "counting floor"; "Table 1 LB"; "measured"; "Table 1 UB" ]
    rows;
  let k = 1_024 in
  let mp =
    Exp.measure ~machine ~seed ~n (fun _ctx v ->
        Array.iter Em.Vec.free
          (Core.Multi_partition.partition_sizes icmp v ~sizes:(Array.make k (n / k))))
  in
  Printf.printf
    "  precise %d-partitioning: counting floor %.1f <= measured %d <= 20 * formula %.1f\n"
    k
    (Core.Counting.precise_partition_floor p ~n ~k)
    mp.Exp.ios
    (Core.Bounds.multi_partition p ~n ~k);
  Printf.printf
    "  => every measured cost sits above the unconditional floor and below a\n";
  Printf.printf "     constant times the bound formula: the sandwich of Table 1, executed.\n";
  List.rev
    (point ~fig:"floors_precise_partition" ~label:(Printf.sprintf "K=%d" k) ~machine ~n
       ~extra_geometry:[ ("k", k) ]
       ~predicted:(Core.Bounds.multi_partition p ~n ~k)
       mp
    :: !artifacts)

(* F-RED — the Section 3 reduction measured in the harness: precise
   partitioning = approximate partitioning + O(N/B), the identity behind
   Theorem 3's lower-bound transfer. *)
let reduction () =
  let n = Exp.scaled (1 lsl 18) in
  let machine = Exp.default_machine in
  Exp.section
    (Printf.sprintf
       "Figure RED — Section 3 reduction: precise = approximate + O(N/B)   [N=%d, %s]" n
       (Exp.machine_name machine));
  let artifacts = ref [] in
  let rows =
    List.map
      (fun chunk ->
        let reduction =
          Exp.measure ~machine ~seed ~n (fun _ctx v ->
              Array.iter Em.Vec.free
                (Core.Reduction.precise_by_approximate icmp v ~chunk))
        in
        let approx =
          Exp.measure ~machine ~seed ~n (fun _ctx v ->
              let k = (n + chunk - 1) / chunk in
              Array.iter Em.Vec.free
                (Core.Partitioning.left_grounded icmp v
                   { Core.Problem.n; k; a = 0; b = chunk }))
        in
        let post = reduction.Exp.ios - approx.Exp.ios in
        artifacts :=
          point ~fig:"reduction_approximate" ~label:(Printf.sprintf "chunk=%d" chunk)
            ~machine ~n ~extra_geometry:[ ("chunk", chunk) ]
            approx
          :: point ~fig:"reduction_precise" ~label:(Printf.sprintf "chunk=%d" chunk)
               ~machine ~n ~extra_geometry:[ ("chunk", chunk) ]
               reduction
          :: !artifacts;
        [
          string_of_int chunk;
          string_of_int approx.Exp.ios;
          string_of_int reduction.Exp.ios;
          string_of_int post;
          Exp.fmt_ratio (float_of_int post /. (float_of_int n /. float_of_int machine.Exp.block));
        ])
      [ n / 4; n / 16; n / 64 ]
  in
  Exp.table
    ~header:
      [ "chunk"; "approximate I/O"; "reduction total"; "post-pass"; "post-pass scans" ]
    rows;
  Printf.printf
    "  => the post-pass stays a bounded number of scans regardless of chunk size,\n";
  Printf.printf
    "     so any approximate-partitioning speedup would transfer to the precise\n";
  Printf.printf "     problem — which is how Theorem 3 rules such a speedup out.\n";
  List.rev !artifacts

(* F-DISKS — the Vitter-Shriver view of the same algorithms: block
   transfers are D-invariant (striping never changes which blocks move),
   so adding disks only compresses the schedule.  Rounds should track
   ios/D while the ios column stays constant down the sweep. *)
let disks_sweep () =
  let n = Exp.scaled (1 lsl 18) and k = 64 in
  let machine = Exp.default_machine in
  Exp.section
    (Printf.sprintf
       "Figure DISKS — parallel-disk rounds: D-invariant I/Os, rounds -> I/Os / D   [N=%d, %s]"
       n (Exp.machine_name machine));
  let spec = { Core.Problem.n; k; a = 0; b = n / 8 } in
  let artifacts = ref [] in
  let rows =
    List.map
      (fun d ->
        let sort =
          Exp.measure ~machine ~seed ~n ~disks:d (fun _ctx v ->
              Em.Vec.free (Emalg.External_sort.sort icmp v))
        in
        let spl =
          Exp.measure ~machine ~seed ~n ~disks:d (fun _ctx v ->
              Em.Vec.free (Core.Splitters.left_grounded icmp v spec))
        in
        let geom = [ ("disks", d) ] in
        artifacts :=
          point ~fig:"disks_splitters" ~label:(Printf.sprintf "D=%d" d) ~machine ~n
            ~extra_geometry:(geom @ [ ("k", k); ("a", 0); ("b", n / 8) ])
            spl
          :: point ~fig:"disks_sort" ~label:(Printf.sprintf "D=%d" d) ~machine ~n
               ~extra_geometry:geom sort
          :: !artifacts;
        [
          string_of_int d;
          string_of_int sort.Exp.ios;
          string_of_int sort.Exp.rounds;
          Exp.fmt_ratio
            (float_of_int sort.Exp.rounds *. float_of_int d /. float_of_int sort.Exp.ios);
          string_of_int spl.Exp.ios;
          string_of_int spl.Exp.rounds;
        ])
      [ 1; 2; 4; 8 ]
  in
  Exp.table
    ~header:
      [ "D"; "sort I/O"; "sort rounds"; "rounds x D / I/O"; "splitters I/O"; "splitters rounds" ]
    rows;
  Printf.printf
    "  => the I/O columns are constant in D (striping is transfer-preserving);\n";
  Printf.printf
    "     rounds shrink toward I/Os / D, and \"rounds x D / I/O\" near 1.00 means the\n";
  Printf.printf "     prefetch/write-behind pipelines keep all D disks busy.\n";
  List.rev !artifacts

let all () =
  (* Explicit lets keep the figures printing in order (list elements
     evaluate right-to-left). *)
  let f1 = sublinear () in
  let f2 = separation () in
  let f3 = slack () in
  let f4 = scaling () in
  let f5 = intermixed () in
  let f6 = old_vs_new () in
  let f7 = floors () in
  let f8 = reduction () in
  let f9 = disks_sweep () in
  Exp.write_artifact ~bench:"figures"
    (List.concat [ f1; f2; f3; f4; f5; f6; f7; f8; f9 ])
