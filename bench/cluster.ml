(* Sharded partition P-sweep: the "shards change communication, never work"
   invariant as gated ratios.

   One k-way [Core.Cluster.partition] of the same adversarial input at
   P = 1, 2, 4, 8 shards.  Four ratios come out
   (test/golden/ratios.expected):

   - cluster_rounds: worst agreement comm-rounds / (2r+2) budget over the
     sweep — <= 1 by construction of the deterministic histogram sort with
     sampling, so the ceiling is 1.0 exactly;
   - cluster_samples: worst drawn-candidates / (r*T*P*m) budget — likewise
     <= 1 by construction, ceiling 1.0;
   - cluster_work: worst counted-work blow-up over the P = 1 run
     (max of the I/O and comparison ratios across P) — sharding pays
     per-shard fence indexes and agreement probes, a constant-band
     overhead, never a growth law;
   - cluster_balance: worst max-part-size / (N/K) — exact quantile cuts
     (eps = 0) keep every part within duplicates of perfect balance.

   Every run's concatenated output is byte-compared against the sorted
   oracle, so a sharding bug fails the bench before any ratio is read. *)

module J = Em.Json

let icmp = Exp.icmp
let n_default = 1 lsl 16
let seed = 2014
let k = 16
let shard_counts = [ 1; 2; 4; 8 ]

let all () =
  let machine = Exp.default_machine in
  let n = Exp.scaled n_default in
  Exp.section
    (Printf.sprintf "Sharded partition — P-sweep of the cluster drivers   [N=%d, K=%d, %s]" n k
       (Exp.machine_name machine));
  let a = Core.Workload.generate Core.Workload.Pi_hard ~seed ~n ~block:machine.Exp.block in
  let expect = Array.copy a in
  Array.sort icmp expect;
  let run p =
    let t : int Core.Cluster.t = Core.Cluster.create ~shards:p (Exp.params machine) in
    let parts = Core.Cluster.place t a in
    let out, ag = Core.Cluster.partition icmp t parts ~k in
    let merged = Array.concat (Array.to_list (Array.map Em.Vec.Oracle.to_array out)) in
    let sizes = Array.map Em.Vec.length out in
    Array.iter Em.Vec.free out;
    Array.iter Em.Vec.free parts;
    let reads, writes, comparisons = Core.Cluster.totals t in
    let s = Core.Cluster.comm t in
    let comm_rounds = s.Em.Stats.comm_rounds and comm_words = s.Em.Stats.comm_words in
    Core.Cluster.close t;
    if merged <> expect then
      failwith (Printf.sprintf "cluster bench: P=%d merged output diverges from the oracle" p);
    (p, sizes, reads, writes, comparisons, comm_rounds, comm_words, ag)
  in
  let runs = List.map run shard_counts in
  let ios (_, _, r, w, _, _, _, _) = r + w in
  let base_ios, base_cmp =
    match runs with
    | (_, _, r, w, c, _, _, _) :: _ -> (r + w, c)
    | [] -> (1, 1)
  in
  (* The exchange is exactly one superstep; the agreement's own rounds are
     the ledger total minus it (P = 1 posts no transfers at all). *)
  let ratios_of (p, _, _, _, _, comm_rounds, _, ag) =
    match ag with
    | None -> (0., 0.)
    | Some ag ->
        let agree_rounds = max 0 (comm_rounds - if p > 1 then 1 else 0) in
        Core.Bound_track.cluster_ratios ~shards:p ~boundaries:(k - 1)
          ~rounds_budget:ag.Core.Cluster.rounds_budget ~per_round:ag.Core.Cluster.per_round
          ~samples:ag.Core.Cluster.samples ~comm_rounds:agree_rounds
  in
  let per_run = List.map (fun r -> (r, ratios_of r)) runs in
  Exp.table
    ~header:
      [ "P"; "I/O"; "comparisons"; "comm rounds"; "comm words"; "iters"; "samples"; "rounds/budget"; "samples/budget"; "work/P=1" ]
    (List.map
       (fun (((p, _, _, _, c, rounds, words, ag) as r), (rr, sr)) ->
         let iters, samples =
           match ag with
           | Some ag -> (ag.Core.Cluster.iterations, ag.Core.Cluster.samples)
           | None -> (0, 0)
         in
         [
           string_of_int p;
           string_of_int (ios r);
           string_of_int c;
           string_of_int rounds;
           string_of_int words;
           string_of_int iters;
           string_of_int samples;
           Exp.fmt_ratio rr;
           Exp.fmt_ratio sr;
           Exp.fmt_ratio
             (Float.max
                (float_of_int (ios r) /. float_of_int base_ios)
                (float_of_int c /. float_of_int base_cmp));
         ])
       per_run);
  let worst f = List.fold_left (fun acc x -> Float.max acc (f x)) neg_infinity per_run in
  let rounds_worst = worst (fun (_, (rr, _)) -> rr) in
  let samples_worst = worst (fun (_, (_, sr)) -> sr) in
  let work_worst =
    worst (fun (r, _) ->
        let (_, _, _, _, c, _, _, _) = r in
        Float.max
          (float_of_int (ios r) /. float_of_int base_ios)
          (float_of_int c /. float_of_int base_cmp))
  in
  let balance_worst =
    worst (fun ((_, sizes, _, _, _, _, _, _), _) ->
        float_of_int (Array.fold_left max 0 sizes) /. (float_of_int n /. float_of_int k))
  in
  Printf.printf "  => outputs identical to the sorted oracle at every P\n";
  Printf.printf "  => worst rounds/budget %.3f, samples/budget %.3f (both <= 1 by construction)\n"
    rounds_worst samples_worst;
  Printf.printf "  => worst work blow-up over P=1: %.3fx; worst part balance %.3fx of N/K\n"
    work_worst balance_worst;
  let rows =
    List.map
      (fun (((p, _, reads, writes, c, rounds, words, ag) as r), (rr, sr)) ->
        J.Obj
          [
            ("row", J.Str "cluster_partition");
            ("label", J.Str (Printf.sprintf "P=%d" p));
            ( "geometry",
              J.Obj
                [
                  ("n", J.Int n);
                  ("k", J.Int k);
                  ("shards", J.Int p);
                  ("mem", J.Int machine.Exp.mem);
                  ("block", J.Int machine.Exp.block);
                ] );
            ( "measured",
              J.Obj
                ([
                   ("ios", J.Int (ios r));
                   ("reads", J.Int reads);
                   ("writes", J.Int writes);
                   ("comparisons", J.Int c);
                   ("comm_rounds", J.Int rounds);
                   ("comm_words", J.Int words);
                 ]
                @
                match ag with
                | None -> []
                | Some ag ->
                    [
                      ("agree_iterations", J.Int ag.Core.Cluster.iterations);
                      ("agree_samples", J.Int ag.Core.Cluster.samples);
                      ("agree_gathered", J.Int ag.Core.Cluster.gathered);
                    ]) );
            ("round_ratio", J.Float rr);
            ("sample_ratio", J.Float sr);
            ( "work_ratio",
              J.Float
                (Float.max
                   (float_of_int (ios r) /. float_of_int base_ios)
                   (float_of_int c /. float_of_int base_cmp)) );
          ])
      per_run
  in
  Exp.write_artifact ~bench:"cluster" rows;
  [
    ("cluster_rounds", rounds_worst);
    ("cluster_samples", samples_worst);
    ("cluster_work", work_worst);
    ("cluster_balance", balance_worst);
  ]
