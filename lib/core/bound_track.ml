(* Bound-ratio telemetry: Table 1 of the paper as an observable.

   Each row pairs an algorithm with its upper-bound formula from [Bounds];
   [run] measures the algorithm at a concrete (N, M, B, K, a, b) geometry and
   [publish] exports measured_ios / predicted_ios / ratio as gauges, so "the
   measured cost tracks the bound with a bounded constant" stops being a
   Printf anecdote and becomes a diffable, alertable quantity. *)

type row =
  | Splitters_right
  | Splitters_left
  | Splitters_two_sided
  | Partition_right
  | Partition_left
  | Partition_two_sided

let all =
  [
    Splitters_right;
    Splitters_left;
    Splitters_two_sided;
    Partition_right;
    Partition_left;
    Partition_two_sided;
  ]

let name = function
  | Splitters_right -> "splitters_right"
  | Splitters_left -> "splitters_left"
  | Splitters_two_sided -> "splitters_two_sided"
  | Partition_right -> "partition_right"
  | Partition_left -> "partition_left"
  | Partition_two_sided -> "partition_two_sided"

let of_name s = List.find_opt (fun r -> name r = s) all

let predicted row p spec =
  match row with
  | Splitters_right -> Bounds.splitters_right_upper p spec
  | Splitters_left -> Bounds.splitters_left_upper p spec
  | Splitters_two_sided -> Bounds.splitters_two_sided_upper p spec
  | Partition_right -> Bounds.partition_right_upper p spec
  | Partition_left -> Bounds.partition_left_upper p spec
  | Partition_two_sided -> Bounds.partition_two_sided_upper p spec

(* Representative spec shapes per regime: right-grounded keeps b = n,
   left-grounded keeps a = 0, two-sided constrains both.  Scale-free in n so
   the same row is meaningful at any geometry. *)
let default_spec row ~n =
  let k = 16 in
  let a = max 1 (n / 256) and b = max 1 (n / 8) in
  let spec =
    match row with
    | Splitters_right | Partition_right -> { Problem.n; k; a; b = n }
    | Splitters_left | Partition_left -> { Problem.n; k; a = 0; b }
    | Splitters_two_sided | Partition_two_sided -> { Problem.n; k; a; b }
  in
  Problem.validate_exn spec;
  spec

let solve row cmp v spec =
  match row with
  | Splitters_right | Splitters_left | Splitters_two_sided ->
      Em.Vec.free (Splitters.solve cmp v spec)
  | Partition_right | Partition_left | Partition_two_sided ->
      Array.iter Em.Vec.free (Partitioning.solve cmp v spec)

type sample = {
  s_row : row;
  s_spec : Problem.spec;
  s_params : Em.Params.t;
  measured_ios : int;
  measured_rounds : int;
  seeks : int;
  comparisons : int;
  mem_peak : int;
  wall_ns : float;
  predicted_ios : float;
  ratio : float;
}

let run ?(kind = Workload.Pi_hard) ?(seed = 2014) p row spec =
  Problem.validate_exn spec;
  let trace = Em.Trace.create () in
  let ctx : int Em.Ctx.t = Em.Ctx.create ~trace p in
  let v = Workload.vec ctx kind ~seed ~n:spec.Problem.n in
  let cmp = Em.Ctx.counted ctx Int.compare in
  let t0 = Unix.gettimeofday () in
  let (), d = Em.Ctx.measured ctx (fun () -> solve row cmp v spec) in
  let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let predicted_ios = predicted row p spec in
  let measured_ios = Em.Stats.delta_ios d in
  {
    s_row = row;
    s_spec = spec;
    s_params = p;
    measured_ios;
    measured_rounds = d.Em.Stats.d_rounds;
    seeks = Em.Trace.seeks trace;
    comparisons = d.Em.Stats.d_comparisons;
    mem_peak = ctx.Em.Ctx.stats.Em.Stats.mem_peak;
    wall_ns;
    predicted_ios;
    ratio = float_of_int measured_ios /. predicted_ios;
  }

let geometry_labels p (spec : Problem.spec) =
  [
    ("n", string_of_int spec.Problem.n);
    ("k", string_of_int spec.Problem.k);
    ("a", string_of_int spec.Problem.a);
    ("b", string_of_int spec.Problem.b);
    ("mem", string_of_int p.Em.Params.mem);
    ("block", string_of_int p.Em.Params.block);
  ]

let publish_values ?measured_rounds reg p row spec ~measured_ios =
  let pred = predicted row p spec in
  let ratio = float_of_int measured_ios /. pred in
  let labels = ("row", name row) :: geometry_labels p spec in
  let g n h v = Em.Metrics.set (Em.Metrics.gauge reg ~help:h ~labels n) v in
  g "bound_measured_ios" "Measured I/Os of the Table 1 row" (float_of_int measured_ios);
  g "bound_predicted_ios" "Table 1 upper-bound formula at this geometry" pred;
  g "bound_ratio" "measured / predicted (flat iff the bound holds)" ratio;
  (* Round gauges only on multi-disk machines, where rounds diverge from
     I/Os; the single-disk exporter goldens keep their shape. *)
  (match measured_rounds with
  | Some rounds when p.Em.Params.disks > 1 ->
      let pred_rounds = Bounds.rounds_of p pred in
      g "bound_measured_rounds" "Measured parallel I/O rounds of the row"
        (float_of_int rounds);
      g "bound_predicted_rounds" "Upper bound / D: the D-disk round bound" pred_rounds;
      g "bound_round_ratio" "measured rounds / predicted rounds"
        (float_of_int rounds /. pred_rounds)
  | _ -> ());
  ratio

let publish reg s =
  publish_values ~measured_rounds:s.measured_rounds reg s.s_params s.s_row s.s_spec
    ~measured_ios:s.measured_ios

(* Cluster agreement against the deterministic histogram-sort-with-sampling
   budgets of [Bounds]: both ratios must stay <= 1 by construction, and the
   bench gates them like the Table 1 rows. *)
let cluster_ratios ~shards ~boundaries ~rounds_budget ~per_round ~samples ~comm_rounds =
  let boundaries = max 1 boundaries in
  let rounds_upper = Bounds.hss_comm_rounds_upper ~rounds:rounds_budget in
  let samples_upper =
    Float.max 1.
      (Bounds.hss_sample_upper ~shards ~boundaries ~rounds:rounds_budget ~per_round)
  in
  (float_of_int comm_rounds /. rounds_upper, float_of_int samples /. samples_upper)
