(* Table 1 of the paper, row by row: measured I/Os of each algorithm against
   the matching bound formula, across a parameter sweep, with the sort-based
   baseline alongside.  Every sweep point's ratio to the
   [Core.Bound_track.predicted] bound is collected into the
   BENCH_table1.json artifact; [all] returns the per-row worst ratio so the
   driver can gate on blessed ceilings. *)

let icmp = Exp.icmp

let n_default = 1 lsl 18
let seed = 2014

let run_splitters spec ~machine ~kind =
  Exp.measure ~machine ~kind ~seed ~n:spec.Core.Problem.n (fun _ctx v ->
      let out = Core.Splitters.solve icmp v spec in
      let input = Em.Vec.Oracle.to_array v in
      Exp.expect_ok "splitters"
        (Core.Verify.splitters icmp ~input spec (Em.Vec.Oracle.to_array out)))

let run_partitioning spec ~machine ~kind =
  Exp.measure ~machine ~kind ~seed ~n:spec.Core.Problem.n (fun _ctx v ->
      let parts = Core.Partitioning.solve icmp v spec in
      let input = Em.Vec.Oracle.to_array v in
      Exp.expect_ok "partitioning"
        (Core.Verify.partitioning icmp ~input spec (Array.map Em.Vec.Oracle.to_array parts)))

let run_baseline_splitters spec ~machine ~kind =
  Exp.measure ~machine ~kind ~seed ~n:spec.Core.Problem.n (fun _ctx v ->
      ignore (Core.Baseline.splitters icmp v spec))

let run_baseline_partitioning spec ~machine ~kind =
  Exp.measure ~machine ~kind ~seed ~n:spec.Core.Problem.n (fun _ctx v ->
      ignore (Core.Baseline.partitioning icmp v spec))

(* Drop sweep points whose spec is invalid at the current (possibly
   [--small]-scaled) input size instead of crashing the whole sweep. *)
let valid_specs specs =
  List.filter (fun (_, spec) -> Result.is_ok (Core.Problem.validate spec)) specs

(* Generic sweep runner: one printed row and one artifact row per spec.
   Returns the artifact rows and the worst measured/bound ratio. *)
let sweep ~row ~what ~solve ~baseline ~machine ~kind specs =
  let p = Exp.params machine in
  let row_name = Core.Bound_track.name row in
  let ratios = ref [] in
  let artifacts = ref [] in
  let rows =
    List.map
      (fun (label, spec) ->
        let ours = (solve spec ~machine ~kind : Exp.measurement) in
        let base = (baseline spec ~machine ~kind : Exp.measurement) in
        let b = Core.Bound_track.predicted row p spec in
        let ratio = float_of_int ours.Exp.ios /. b in
        ratios := ratio :: !ratios;
        artifacts :=
          Exp.artifact_row ~row:row_name ~label ~machine ~n:spec.Core.Problem.n
            ~extra_geometry:
              [
                ("k", spec.Core.Problem.k);
                ("a", spec.Core.Problem.a);
                ("b", spec.Core.Problem.b);
              ]
            ~predicted:b ours
          :: !artifacts;
        [
          label;
          string_of_int ours.Exp.ios;
          string_of_int ours.Exp.random_ios;
          Exp.fmt_f b;
          Exp.fmt_ratio ratio;
          string_of_int base.Exp.ios;
        ])
      specs
  in
  Exp.table
    ~header:[ what; "measured I/O"; "rand seeks"; "bound"; "ratio"; "sort baseline" ]
    rows;
  Exp.verdict ~what ~spread:(Exp.ratio_spread !ratios) ~limit:6.;
  let worst = List.fold_left Float.max neg_infinity !ratios in
  (List.rev !artifacts, (row_name, worst))

let row_splitters_right ~machine ~kind =
  let n = Exp.scaled n_default and k = 16 in
  Exp.section
    (Printf.sprintf
       "Table 1 / row 1 — right-grounded K-splitters: Θ((1 + aK/B) lg_{M/B}(K/B))   [N=%d, K=%d, %s, %s]"
       n k (Exp.machine_name machine) (Core.Workload.kind_name kind));
  let specs =
    valid_specs
      (List.map
         (fun a -> (Printf.sprintf "a=%d" a, { Core.Problem.n; k; a; b = n }))
         (List.sort_uniq Int.compare [ 2; 16; 128; 1_024; 8_192; n / k ]))
  in
  sweep ~row:Core.Bound_track.Splitters_right ~what:"a" ~solve:run_splitters
    ~baseline:run_baseline_splitters ~machine ~kind specs

let row_splitters_left ~machine ~kind =
  let n = Exp.scaled n_default and k = 64 in
  Exp.section
    (Printf.sprintf
       "Table 1 / row 2 — left-grounded K-splitters: Θ((N/B) lg_{M/B}(N/(bB)))   [N=%d, K=%d, %s, %s]"
       n k (Exp.machine_name machine) (Core.Workload.kind_name kind));
  let specs =
    valid_specs
      (List.map
         (fun b -> (Printf.sprintf "b=%d" b, { Core.Problem.n; k; a = 0; b }))
         [ n / k; n / 16; n / 8; n / 4; n / 2 ])
  in
  sweep ~row:Core.Bound_track.Splitters_left ~what:"b" ~solve:run_splitters
    ~baseline:run_baseline_splitters ~machine ~kind specs

let row_splitters_two_sided ~machine ~kind =
  let n = Exp.scaled n_default and k = 64 in
  Exp.section
    (Printf.sprintf
       "Table 1 / row 3 — two-sided K-splitters: O((aK/B) lg_{M/B}(K/B) + (N/B) lg_{M/B}(N/(bB)))   [N=%d, K=%d, %s, %s]"
       n k (Exp.machine_name machine) (Core.Workload.kind_name kind));
  let specs =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            let spec = { Core.Problem.n; k; a; b } in
            match Core.Problem.validate spec with
            | Ok () -> Some (Printf.sprintf "a=%d b=%d" a b, spec)
            | Error _ -> None)
          [ n / 32; n / 8; n / 2 ])
      [ 2; 256; 4_096 ]
  in
  sweep ~row:Core.Bound_track.Splitters_two_sided ~what:"(a, b)" ~solve:run_splitters
    ~baseline:run_baseline_splitters ~machine ~kind specs

let row_partition_right ~machine ~kind =
  let n = Exp.scaled n_default and k = 16 in
  Exp.section
    (Printf.sprintf
       "Table 1 / row 4 — right-grounded K-partitioning: O(N/B + (aK/B) lg_{M/B} min(K, aK/B))   [N=%d, K=%d, %s, %s]"
       n k (Exp.machine_name machine) (Core.Workload.kind_name kind));
  let specs =
    valid_specs
      (List.map
         (fun a -> (Printf.sprintf "a=%d" a, { Core.Problem.n; k; a; b = n }))
         (List.sort_uniq Int.compare [ 2; 16; 128; 1_024; 8_192; n / k ]))
  in
  sweep ~row:Core.Bound_track.Partition_right ~what:"a" ~solve:run_partitioning
    ~baseline:run_baseline_partitioning ~machine ~kind specs

let row_partition_left ~machine ~kind =
  let n = Exp.scaled n_default and k = 64 in
  Exp.section
    (Printf.sprintf
       "Table 1 / row 5 — left-grounded K-partitioning: Θ((N/B) lg_{M/B} min(N/b, N/B))   [N=%d, K=%d, %s, %s]"
       n k (Exp.machine_name machine) (Core.Workload.kind_name kind));
  let specs =
    valid_specs
      (List.map
         (fun b -> (Printf.sprintf "b=%d" b, { Core.Problem.n; k; a = 0; b }))
         [ n / k; n / 16; n / 8; n / 4; n / 2 ])
  in
  sweep ~row:Core.Bound_track.Partition_left ~what:"b" ~solve:run_partitioning
    ~baseline:run_baseline_partitioning ~machine ~kind specs

let row_partition_two_sided ~machine ~kind =
  let n = Exp.scaled n_default and k = 64 in
  Exp.section
    (Printf.sprintf
       "Table 1 / row 6 — two-sided K-partitioning: O((aK/B) lg_{M/B} min(K, aK/B) + (N/B) lg_{M/B} min(N/b, N/B))   [N=%d, K=%d, %s, %s]"
       n k (Exp.machine_name machine) (Core.Workload.kind_name kind));
  let specs =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            let spec = { Core.Problem.n; k; a; b } in
            match Core.Problem.validate spec with
            | Ok () -> Some (Printf.sprintf "a=%d b=%d" a b, spec)
            | Error _ -> None)
          [ n / 32; n / 8; n / 2 ])
      [ 2; 256; 4_096 ]
  in
  sweep ~row:Core.Bound_track.Partition_two_sided ~what:"(a, b)" ~solve:run_partitioning
    ~baseline:run_baseline_partitioning ~machine ~kind specs

(* D-disk sweep: external sort and left-grounded partitioning at
   D in {1, 2, 4, 8} on the same machine.  Block transfers are
   D-invariant by construction (striping never changes which blocks
   move), so the interesting measurement is the round count: it should
   compress toward ios/D (the Vitter-Shriver N/(DB) forms).  Three gate
   rows pin this: the D=8 sort/partition compressions against the D=1
   run, and the worst measured-rounds / round-bound ratio. *)
let disks_sweep ~machine ~kind =
  let n = Exp.scaled n_default and k = 64 in
  Exp.section
    (Printf.sprintf
       "Table 1 / D-disk sweep — rounds vs D: N/(DB) lg_{M/B}(N/B)   [N=%d, %s, %s]"
       n (Exp.machine_name machine) (Core.Workload.kind_name kind));
  let spec = { Core.Problem.n; k; a = 0; b = n / 8 } in
  let sort_bound p = Core.Bounds.sort p ~n in
  let runs =
    List.map
      (fun d ->
        let p = Em.Params.with_disks (Exp.params machine) d in
        let sort =
          Exp.measure ~machine ~kind ~seed ~n ~disks:d (fun _ctx v ->
              Em.Vec.free (Emalg.External_sort.sort icmp v))
        in
        let part =
          Exp.measure ~machine ~kind ~seed ~n ~disks:d (fun _ctx v ->
              Array.iter Em.Vec.free (Core.Partitioning.solve icmp v spec))
        in
        (d, p, sort, part))
      [ 1; 2; 4; 8 ]
  in
  let sort_r1, part_r1 =
    match runs with
    | (1, _, sort, part) :: _ -> (float_of_int sort.Exp.rounds, float_of_int part.Exp.rounds)
    | _ -> assert false
  in
  let artifacts = ref [] and bound_ratios = ref [] in
  let rows =
    List.map
      (fun (d, p, sort, part) ->
        let rb = Core.Bounds.rounds_of p (sort_bound p) in
        let bound_ratio = float_of_int sort.Exp.rounds /. rb in
        bound_ratios := bound_ratio :: !bound_ratios;
        artifacts :=
          Exp.artifact_row ~row:"disks_sweep_partition"
            ~label:(Printf.sprintf "D=%d" d) ~machine ~n
            ~extra_geometry:
              [ ("disks", d); ("k", k); ("a", 0); ("b", n / 8) ]
            ~predicted:(Core.Bound_track.predicted Core.Bound_track.Partition_left p spec)
            part
          :: Exp.artifact_row ~row:"disks_sweep_sort" ~label:(Printf.sprintf "D=%d" d)
               ~machine ~n
               ~extra_geometry:[ ("disks", d) ]
               ~predicted:(sort_bound p) sort
          :: !artifacts;
        [
          string_of_int d;
          string_of_int sort.Exp.ios;
          string_of_int sort.Exp.rounds;
          Exp.fmt_ratio (float_of_int sort.Exp.rounds /. sort_r1);
          Exp.fmt_f rb;
          Exp.fmt_ratio bound_ratio;
          string_of_int part.Exp.rounds;
          Exp.fmt_ratio (float_of_int part.Exp.rounds /. part_r1);
        ])
      runs
  in
  Exp.table
    ~header:
      [
        "D";
        "sort I/O";
        "sort rounds";
        "vs D=1";
        "round bound";
        "rounds/bound";
        "partition rounds";
        "vs D=1";
      ]
    rows;
  let rounds_at sel d' =
    match List.find_opt (fun (d, _, _, _) -> d = d') runs with
    | Some (_, _, sort, part) -> float_of_int (sel sort part).Exp.rounds
    | None -> nan
  in
  let sort_d8 = rounds_at (fun s _ -> s) 8 /. sort_r1 in
  let part_d8 = rounds_at (fun _ p -> p) 8 /. part_r1 in
  let worst_bound = List.fold_left Float.max neg_infinity !bound_ratios in
  Printf.printf
    "  => I/Os are D-invariant; D=8 compresses sort rounds to %.2fx and partition\n"
    sort_d8;
  Printf.printf "     rounds to %.2fx of the single-disk run.\n" part_d8;
  ( List.rev !artifacts,
    [
      ("sort_rounds_d8", sort_d8);
      ("partition_rounds_d8", part_d8);
      ("sort_round_bound", worst_bound);
    ] )

(* Theorem 4's headline under a gate: multi-selecting K = 16 evenly spaced
   ranks against one external sort of the same input, over Figure SCALE's
   sweep of N.  The gate row is the worst Theorem-4 / sort I/O ratio. *)
let multiselect_vs_sort ~machine ~kind =
  let k = 16 in
  let p = Exp.params machine in
  Exp.section
    (Printf.sprintf "Theorem 4 vs external sort — K=%d ranks   [%s, %s]" k
       (Exp.machine_name machine) (Core.Workload.kind_name kind));
  let ratios = ref [] and artifacts = ref [] in
  let rows =
    List.map
      (fun n ->
        let ranks = Array.init k (fun i -> (i + 1) * (n / k)) in
        let ms =
          Exp.measure ~machine ~kind ~seed ~n (fun _ctx v ->
              let results = Core.Multi_select.select icmp v ~ranks in
              let input = Em.Vec.Oracle.to_array v in
              Exp.expect_ok "multi-select" (Core.Verify.multi_select icmp ~input ~ranks results))
        in
        let sort =
          Exp.measure ~machine ~kind ~seed ~n (fun _ctx v ->
              Em.Vec.free (Emalg.External_sort.sort icmp v))
        in
        let ratio = float_of_int ms.Exp.ios /. float_of_int sort.Exp.ios in
        ratios := ratio :: !ratios;
        artifacts :=
          Exp.artifact_row ~row:"multiselect_vs_sort" ~label:(Printf.sprintf "N=%d" n) ~machine
            ~n ~extra_geometry:[ ("k", k) ]
            ~predicted:(Core.Bounds.multi_select p ~n ~k)
            ms
          :: !artifacts;
        [ string_of_int n; string_of_int ms.Exp.ios; string_of_int sort.Exp.ios; Exp.fmt_ratio ratio ])
      (Exp.scale_sizes ())
  in
  Exp.table ~header:[ "N"; "Theorem 4 I/O"; "sort I/O"; "ratio" ] rows;
  let worst = List.fold_left Float.max neg_infinity !ratios in
  Printf.printf "  => worst Theorem-4 / sort ratio across the sweep: %.3f\n" worst;
  (List.rev !artifacts, ("multiselect_vs_sort", worst))

(* Theorem 4's general case under a gate: multi-selecting K = 64 and 256
   evenly spaced ranks (both above m) against the multi-partition route it
   replaced, Figure GAP's old route.  The gate row is the worst Theorem-4 /
   route I/O ratio. *)
let multiselect_vs_route ~machine ~kind =
  let n = Exp.scaled n_default in
  let p = Exp.params machine in
  Exp.section
    (Printf.sprintf "Theorem 4 vs the multi-partition route — N=%d   [%s, %s]" n
       (Exp.machine_name machine) (Core.Workload.kind_name kind));
  let ratios = ref [] and artifacts = ref [] in
  let rows =
    List.map
      (fun k ->
        let ranks = Array.init k (fun i -> (i + 1) * (n / k)) in
        let ms =
          Exp.measure ~machine ~kind ~seed ~n (fun _ctx v ->
              let results = Core.Multi_select.select icmp v ~ranks in
              let input = Em.Vec.Oracle.to_array v in
              Exp.expect_ok "multi-select" (Core.Verify.multi_select icmp ~input ~ranks results))
        in
        let route =
          Exp.measure ~machine ~kind ~seed ~n (fun _ctx v -> Exp.multi_partition_route icmp v ~ranks)
        in
        let ratio = float_of_int ms.Exp.ios /. float_of_int route.Exp.ios in
        ratios := ratio :: !ratios;
        artifacts :=
          Exp.artifact_row ~row:"multiselect_vs_route" ~label:(Printf.sprintf "K=%d" k) ~machine
            ~n ~extra_geometry:[ ("k", k) ]
            ~predicted:(Core.Bounds.multi_select p ~n ~k)
            ms
          :: !artifacts;
        [ string_of_int k; string_of_int ms.Exp.ios; string_of_int route.Exp.ios; Exp.fmt_ratio ratio ])
      [ 64; 256 ]
  in
  Exp.table ~header:[ "K"; "Theorem 4 I/O"; "route I/O"; "ratio" ] rows;
  let worst = List.fold_left Float.max neg_infinity !ratios in
  Printf.printf "  => worst Theorem-4 / multi-partition-route ratio: %.3f\n" worst;
  (List.rev !artifacts, ("multiselect_vs_route", worst))

(* Multi-partition against the external sort: K equal parts over a grid of
   machines and N.  The grid's (M, B) = (1024, 32), N = 2^14 cells sort in
   one merge pass, where multi-partition is that sort plus its cuts; they
   are printed but left out of the gate, which holds the counting route.
   The gate row is the worst multi-partition / sort I/O ratio over
   K = 2 and 16 above one merge pass; K = 256 is printed only. *)
let multipartition_vs_sort ~kind =
  let grid =
    [
      ({ Exp.mem = 512; block = 16 }, [ 1 lsl 14; 1 lsl 15 ]);
      ({ mem = 1024; block = 32 }, [ 1 lsl 14; 1 lsl 15 ]);
    ]
    @ if !Exp.small_mode then [] else [ ({ mem = 4096; block = 64 }, [ 1 lsl 18; 1 lsl 19 ]) ]
  in
  Exp.section
    (Printf.sprintf "Multi-partition vs external sort — K equal parts   [%s]"
       (Core.Workload.kind_name kind));
  let ratios = ref [] and artifacts = ref [] in
  let rows =
    List.concat_map
      (fun (machine, ns) ->
        List.concat_map
          (fun n ->
            let sort =
              Exp.measure ~machine ~kind ~seed ~n (fun _ctx v ->
                  Em.Vec.free (Emalg.External_sort.sort icmp v))
            in
            let one_merge =
              Emalg.External_sort.one_merge (Em.Ctx.create (Exp.params machine) : int Em.Ctx.t) n
            in
            List.map
              (fun k ->
                let sizes = Array.init k (fun i -> ((i + 1) * n / k) - (i * n / k)) in
                let mp =
                  Exp.measure ~machine ~kind ~seed ~n (fun _ctx v ->
                      let parts = Core.Multi_partition.partition_sizes icmp v ~sizes in
                      let input = Em.Vec.Oracle.to_array v in
                      Exp.expect_ok "multi-partition"
                        (Core.Verify.multi_partition icmp ~input ~sizes
                           (Array.map Em.Vec.Oracle.to_array parts));
                      Array.iter Em.Vec.free parts)
                in
                let ratio = float_of_int mp.Exp.ios /. float_of_int sort.Exp.ios in
                let gated = k < 256 && not one_merge in
                if gated then ratios := ratio :: !ratios;
                artifacts :=
                  Exp.artifact_row ~row:"multipartition_vs_sort"
                    ~label:(Printf.sprintf "M=%d N=%d K=%d" machine.mem n k)
                    ~machine ~n ~extra_geometry:[ ("k", k) ]
                    ~predicted:(Core.Bounds.multi_partition (Exp.params machine) ~n ~k)
                    mp
                  :: !artifacts;
                [
                  Printf.sprintf "%d, %d" machine.mem machine.block;
                  string_of_int n;
                  string_of_int k;
                  string_of_int mp.Exp.ios;
                  string_of_int sort.Exp.ios;
                  (Exp.fmt_ratio ratio
                  ^ if gated then "" else if one_merge then " (one merge)" else " (not gated)");
                ])
              [ 2; 16; 256 ])
          ns)
      grid
  in
  Exp.table ~header:[ "M, B"; "N"; "K"; "multi-partition I/O"; "sort I/O"; "ratio" ] rows;
  let worst = List.fold_left Float.max neg_infinity !ratios in
  Printf.printf "  => worst multi-partition / sort ratio above one merge, K <= 16: %.3f\n" worst;
  (List.rev !artifacts, ("multipartition_vs_sort", worst))

(* The k-way merge's comparison count under a gate: an external sort of N
   elements at the default machine forms k runs and merges them in one pass,
   and a tournament of losers spends at most ceil(lg k) comparisons per
   element plus k to seed the tree.  N is 2^16 and 2^17 in both modes (the
   sizes are cheap, and --small's would form too few runs to tell).  The
   gate row is the worst measured merge comparisons / (N ceil(lg k) + k). *)
let merge_cmp_bound ~machine ~kind =
  Exp.section
    (Printf.sprintf "K-way merge comparisons vs N ceil(lg k) + k   [%s, %s]"
       (Exp.machine_name machine) (Core.Workload.kind_name kind));
  let rec ceil_log2 k = if k <= 1 then 0 else 1 + ceil_log2 ((k + 1) / 2) in
  let ratios = ref [] in
  let rows =
    List.map
      (fun n ->
        let profiler = Em.Profile.create () in
        let (_ : Exp.measurement) =
          Exp.measure ~machine ~kind ~seed ~n (fun ctx v ->
              Em.Profile.attach profiler ctx.Em.Ctx.stats;
              Em.Vec.free (Emalg.External_sort.sort (Em.Ctx.counted ctx icmp) v);
              Em.Profile.detach ctx.Em.Ctx.stats)
        in
        let span name =
          List.find (fun s -> s.Em.Profile.path = [ name ]) (Em.Profile.spans profiler)
        in
        let merge = span "merge" and k = (span "run-formation").Em.Profile.calls in
        let comps = merge.Em.Profile.cost.Em.Stats.d_comparisons in
        let bound = (n * ceil_log2 k) + k in
        (* One merge pass is what the bound describes; more would not match. *)
        let ratio =
          if merge.Em.Profile.calls = 1 then float_of_int comps /. float_of_int bound else nan
        in
        ratios := ratio :: !ratios;
        [
          string_of_int n;
          string_of_int k;
          string_of_int comps;
          string_of_int bound;
          Exp.fmt_ratio ratio;
        ])
      [ 1 lsl 16; 1 lsl 17 ]
  in
  Exp.table ~header:[ "N"; "runs k"; "merge cmp"; "N ceil(lg k) + k"; "ratio" ] rows;
  let worst = List.fold_left Float.max neg_infinity !ratios in
  Printf.printf "  => worst merge comparisons / (N ceil(lg k) + k): %.3f\n" worst;
  ([], ("merge_cmp_bound", worst))

(* Runs all six rows, the two Theorem-4 sweeps, the multi-partition sweep,
   the merge comparison gate and the D-disk sweep; returns (row_name, worst
   ratio) pairs for the ceiling gate in main.ml. *)
let all ?(machine = Exp.default_machine) ?(kind = Core.Workload.Pi_hard) () =
  (* Explicit lets: list elements would otherwise evaluate right-to-left,
     printing the rows in reverse. *)
  let r1 = row_splitters_right ~machine ~kind in
  let r2 = row_splitters_left ~machine ~kind in
  let r3 = row_splitters_two_sided ~machine ~kind in
  let r4 = row_partition_right ~machine ~kind in
  let r5 = row_partition_left ~machine ~kind in
  let r6 = row_partition_two_sided ~machine ~kind in
  let r7 = multiselect_vs_sort ~machine ~kind in
  let r8 = multiselect_vs_route ~machine ~kind in
  let r9 = multipartition_vs_sort ~kind in
  let r10 = merge_cmp_bound ~machine ~kind in
  let results = [ r1; r2; r3; r4; r5; r6; r7; r8; r9; r10 ] in
  let sweep_artifacts, sweep_ratios = disks_sweep ~machine ~kind in
  Exp.write_artifact ~bench:"table1"
    (List.concat_map fst results @ sweep_artifacts);
  List.map snd results @ sweep_ratios
