(* Online multiselection sessions: amortized I/Os per query under a random
   select stream, against re-running the batch engine from scratch for the
   same rank sets.

   One persistent [Emalg.Online_select] session answers Q random ranks; the
   cumulative session cost is sampled at power-of-two checkpoints.  Two
   gated ratios come out (test/golden/ratios.expected):

   - online_amortized: the worst adjacent ratio of the amortized
     I/Os-per-query curve — must stay < 1, i.e. the curve is strictly
     decreasing at every doubling (refinement is paid once and reused);
   - online_vs_batch: total session I/Os over the summed cost of re-running
     batch multiselect from scratch at every checkpoint (what a client
     without a persistent session would pay) — must stay well below 1;
   - online_drift: the worst running ratio the [Core.Drift] watchdog sees
     when fed the same stream — calibrates the serve-mode drift ceiling
     against the offline amortized envelope [sort(n) + 2q].

   The stream runs on two machines and each gate takes the worse of the
   two: the paper's default, where the small run's root fits one pass and
   its buckets sort in one load, and M=512, B=16, where the root's buckets
   outnumber one pass's writers and the queried buckets are sorted in one
   merge pass. *)

module J = Em.Json

let icmp = Exp.icmp
let n_default = 1 lsl 18
let seed = 2014
let total_queries = 256

let checkpoints =
  let rec go q acc = if q > total_queries then List.rev acc else go (2 * q) (q :: acc) in
  go 1 []

let small_machine = { Exp.mem = 512; block = 16 }

let run machine =
  let n = Exp.scaled n_default in
  Exp.section
    (Printf.sprintf
       "Online multiselection — amortized I/Os per query vs batch re-runs   [N=%d, Q=%d, %s]"
       n total_queries (Exp.machine_name machine));
  (* The query stream: Q uniform random ranks, fixed seed.  On a random
     permutation of 0..N-1 the rank-k element is k-1, so every reply is
     oracle-checked for free. *)
  let rng = Core.Workload.Rng.create (seed + 1) in
  let ranks = Array.init total_queries (fun _ -> 1 + Core.Workload.Rng.int rng n) in
  (* One persistent session answering the whole stream. *)
  let ctx : int Em.Ctx.t = Em.Ctx.create (Exp.params machine) in
  let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed ~n in
  let s = Emalg.Online_select.open_session (Em.Ctx.counted ctx icmp) ctx v in
  let cum = ref 0 in
  let marks = ref [] in
  (* The serve-mode watchdog fed the same stream: its worst running ratio
     calibrates the blessed drift ceiling. *)
  let drift = Core.Drift.create (Exp.params machine) ~n in
  Array.iteri
    (fun i k ->
      let r = Emalg.Online_select.query s (Emalg.Online_select.Select k) in
      if r.Emalg.Online_select.values.(0) <> k - 1 then
        failwith (Printf.sprintf "online bench: rank %d answered wrongly" k);
      cum := !cum + Em.Stats.delta_ios r.Emalg.Online_select.cost;
      ignore (Core.Drift.observe drift ~queries:(i + 1) ~total_ios:!cum);
      if List.mem (i + 1) checkpoints then
        marks := (i + 1, !cum, Emalg.Online_select.summary s) :: !marks)
    ranks;
  let session_peak = ctx.Em.Ctx.stats.Em.Stats.mem_peak in
  Emalg.Online_select.close s;
  Em.Ctx.close ctx;
  let marks = List.rev !marks in
  (* Batch re-runs: at each checkpoint, what the batch engine pays to answer
     the same rank set from scratch on a fresh machine.  (Duplicate ranks in
     the stream are deduplicated — the batch contract wants a strictly
     increasing rank vector — so the batch runs answer <= q ranks; that bias
     is in the batch side's favour.) *)
  let batch_ios q =
    let rq =
      Array.of_list
        (List.sort_uniq icmp (Array.to_list (Array.sub ranks 0 q)))
    in
    let m =
      Exp.measure ~machine ~kind:Core.Workload.Random_perm ~seed ~n (fun _ctx v ->
          let out = Core.Multi_select.select icmp v ~ranks:rq in
          Array.iteri
            (fun i x ->
              if x <> rq.(i) - 1 then failwith "online bench: batch answered wrongly")
            out)
    in
    m.Exp.ios
  in
  let amortized (q, cum, _) = float_of_int cum /. float_of_int q in
  let rows = ref [] in
  let printed =
    List.map
      (fun ((q, cum, sum) as mark) ->
        let batch = batch_ios q in
        rows :=
          J.Obj
            [
              ("row", J.Str "online_session");
              ("label", J.Str (Printf.sprintf "q=%d" q));
              ( "geometry",
                J.Obj
                  [
                    ("n", J.Int n);
                    ("mem", J.Int machine.Exp.mem);
                    ("block", J.Int machine.Exp.block);
                    ("queries", J.Int q);
                  ] );
              ( "measured",
                J.Obj
                  [
                    ("cum_ios", J.Int cum);
                    ("amortized", J.Float (amortized mark));
                    ("refine_ios", J.Int sum.Emalg.Online_select.refine_ios);
                    ("answer_ios", J.Int sum.Emalg.Online_select.answer_ios);
                    ("splits", J.Int sum.Emalg.Online_select.splits);
                    ("sorted_leaves", J.Int sum.Emalg.Online_select.sorted_leaves);
                    ("leaves", J.Int sum.Emalg.Online_select.leaves);
                    ("mem_peak", J.Int session_peak);
                  ] );
              ("batch_rerun_ios", J.Int batch);
              ("ratio", J.Float (float_of_int cum /. float_of_int batch));
            ]
          :: !rows;
        (mark, batch))
      marks
  in
  Exp.table
    ~header:
      [ "queries"; "cum I/O"; "amortized"; "sorted/leaves"; "batch re-run I/O"; "online/batch" ]
    (List.map
       (fun (((q, cum, sum) as mark), batch) ->
         [
           string_of_int q;
           string_of_int cum;
           Printf.sprintf "%.1f" (amortized mark);
           Printf.sprintf "%d/%d" sum.Emalg.Online_select.sorted_leaves
             sum.Emalg.Online_select.leaves;
           string_of_int batch;
           Exp.fmt_ratio (float_of_int cum /. float_of_int batch);
         ])
       printed);
  (* Gates.  Amortized curve: worst adjacent ratio (must be < 1 — strictly
     decreasing at every checkpoint doubling).  Session vs batch: total
     session cost over the summed batch re-runs. *)
  let rec worst_adjacent acc = function
    | a :: (b :: _ as rest) -> worst_adjacent (Float.max acc (amortized b /. amortized a)) rest
    | _ -> acc
  in
  let amort_worst = worst_adjacent neg_infinity marks in
  let session_total = match List.rev marks with (_, cum, _) :: _ -> cum | [] -> 0 in
  let batch_total = List.fold_left (fun acc (_, b) -> acc + b) 0 printed in
  let vs_batch = float_of_int session_total /. float_of_int batch_total in
  Printf.printf
    "  => amortized curve worst adjacent ratio %.3f (strictly decreasing if < 1)\n"
    amort_worst;
  Printf.printf "  => session total %d I/Os vs %d batch re-run I/Os (%.3fx)\n"
    session_total batch_total vs_batch;
  let drift_worst = Core.Drift.worst drift in
  Printf.printf
    "  => drift watchdog worst running ratio %.3f over envelope sort(n) + 2q (sort(n) = %.0f)\n"
    drift_worst
    (Core.Drift.predicted drift ~queries:0);
  rows :=
    J.Obj
      [
        ("row", J.Str "online_drift");
        ("label", J.Str "serve-mode drift watchdog over the same stream");
        ( "geometry",
          J.Obj [ ("n", J.Int n); ("mem", J.Int machine.Exp.mem); ("block", J.Int machine.Exp.block) ] );
        ( "measured",
          J.Obj
            [
              ("worst_ratio", J.Float drift_worst);
              ("predicted_base", J.Float (Core.Drift.predicted drift ~queries:0));
              ("per_query", J.Float 2.0);
            ] );
      ]
    :: !rows;
  (List.rev !rows, (amort_worst, vs_batch, drift_worst))

let all () =
  let runs = List.map run [ Exp.default_machine; small_machine ] in
  Exp.write_artifact ~bench:"online" (List.concat_map fst runs);
  let worst gate = List.fold_left (fun acc (_, g) -> Float.max acc (gate g)) neg_infinity runs in
  [
    ("online_amortized", worst (fun (a, _, _) -> a));
    ("online_vs_batch", worst (fun (_, b, _) -> b));
    ("online_drift", worst (fun (_, _, d) -> d));
  ]
