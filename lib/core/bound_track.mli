(** Bound-ratio telemetry: Table 1 as gauges.

    Each {!row} pairs one Table 1 algorithm with its upper-bound formula
    from {!Bounds}.  {!run} measures the algorithm at a concrete geometry;
    {!publish} exports [bound_measured_ios], [bound_predicted_ios] and
    [bound_ratio] gauges (labelled with the row name and the full
    (N, K, a, b, M, B) geometry) into an {!Em.Metrics} registry.  If the
    implementation matches the paper, every ratio stays inside a small
    constant band across any sweep — which CI enforces against the blessed
    ceilings in [test/golden/ratios.expected]. *)

type row =
  | Splitters_right
  | Splitters_left
  | Splitters_two_sided
  | Partition_right
  | Partition_left
  | Partition_two_sided

val all : row list

val name : row -> string
(** Stable snake_case identifier, e.g. ["splitters_right"] — the [row] label
    of the exported gauges and the key of [ratios.expected]. *)

val of_name : string -> row option

val predicted : row -> Em.Params.t -> Problem.spec -> float
(** The row's Table 1 {e upper}-bound formula (no hidden constant). *)

val default_spec : row -> n:int -> Problem.spec
(** A representative valid spec of the row's regime at input size [n]
    (K = 16, [a = n/256], [b = n/8] where the regime constrains them). *)

val solve : row -> (int -> int -> int) -> int Em.Vec.t -> Problem.spec -> unit
(** Run the row's algorithm and free its outputs (costs stay metered). *)

type sample = {
  s_row : row;
  s_spec : Problem.spec;
  s_params : Em.Params.t;
  measured_ios : int;
  measured_rounds : int;  (** parallel I/O rounds ([= measured_ios] at D = 1) *)
  seeks : int;  (** I/Os the tracer classified as random *)
  comparisons : int;
  mem_peak : int;
  wall_ns : float;  (** host wall-clock around the measured computation *)
  predicted_ios : float;
  ratio : float;  (** measured_ios / predicted_ios *)
}

val run : ?kind:Workload.kind -> ?seed:int -> Em.Params.t -> row -> Problem.spec -> sample
(** Measure the row on a fresh machine loaded with a workload
    (default: the adversarial [Pi_hard] layout, seed 2014). *)

val publish_values :
  ?measured_rounds:int ->
  Em.Metrics.t -> Em.Params.t -> row -> Problem.spec -> measured_ios:int -> float
(** Publish the three gauges from an externally measured I/O count; returns
    the ratio.  When [measured_rounds] is given and the machine has more
    than one disk, also publishes [bound_measured_rounds],
    [bound_predicted_rounds] (upper bound / D) and [bound_round_ratio]. *)

val publish : Em.Metrics.t -> sample -> float
(** Publish a {!run} result; returns the ratio. *)

val cluster_ratios :
  shards:int ->
  boundaries:int ->
  rounds_budget:int ->
  per_round:int ->
  samples:int ->
  comm_rounds:int ->
  float * float
(** A {!Cluster.agree} run against its deterministic HSS budgets
    ({!Bounds.hss_comm_rounds_upper} and {!Bounds.hss_sample_upper}):
    [(comm_rounds / round budget, samples / sample budget)] — both [<= 1]
    by construction, which the cluster bench gates in CI. *)
