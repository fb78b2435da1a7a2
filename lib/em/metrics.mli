(** Typed metrics registry with Prometheus and canonical-JSON exporters.

    A {!t} holds named metrics of three kinds — monotone {!counter}s,
    {!gauge}s, and log-scaled {!histogram}s — each optionally distinguished
    by a {!labels} set.  Registering the same [(name, labels)] pair twice
    returns the same instance (registering it with a different kind raises
    [Invalid_argument]).  Like {!Trace}, this is observability machinery:
    updating a metric costs no simulated I/O and never changes what an
    algorithm does.

    Exports are canonical: metrics are emitted sorted by name then labels,
    with labels themselves sorted by key, so two registries holding the same
    data export byte-identical text regardless of registration order. *)

type t
(** A registry.  All metric names are prefixed with the registry namespace
    on export ([em] by default). *)

type labels = (string * string) list
(** Label sets distinguish streams of the same metric
    (e.g. [("row", "splitters_right")]).  Keys must be unique. *)

type counter
type gauge
type histogram

val create : ?namespace:string -> unit -> t

val counter : t -> ?help:string -> ?labels:labels -> string -> counter
(** Find-or-register a monotone integer counter.  Metric names are
    [[A-Za-z0-9_]+]; anything else raises [Invalid_argument]. *)

val incr : ?by:int -> counter -> unit
(** Increment ([by] defaults to 1; negative raises [Invalid_argument]). *)

val counter_value : counter -> int

val gauge : t -> ?help:string -> ?labels:labels -> string -> gauge
val set : gauge -> float -> unit
val add : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : t -> ?help:string -> ?base:float -> ?labels:labels -> string -> histogram
(** Find-or-register a log-scaled histogram: bucket [0] covers values
    [<= 1], bucket [i >= 1] covers [(base^(i-1), base^i]] ([base] defaults
    to 2 and must be > 1).  Buckets grow on demand, so any value range is
    covered with logarithmically many buckets. *)

val observe : histogram -> float -> unit
(** Record one sample (NaN raises [Invalid_argument]). *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0 <= q <= 1], otherwise
    [Invalid_argument]) as the upper boundary of the smallest bucket whose
    cumulative count reaches [ceil (q * count)], clamped to the observed
    [min, max] range — so a one-sample histogram reports that sample exactly
    and the estimate of any sample set is off by at most one bucket factor.
    Returns [nan] on an empty histogram. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val hist_buckets : histogram -> (float * int) list
(** [(upper boundary, cumulative count)] per allocated bucket, ascending;
    the implicit [+Inf] bucket equals {!hist_count}. *)

val to_prometheus : t -> string
(** Prometheus text exposition format (one [# TYPE] header per metric name,
    [_bucket]/[_sum]/[_count] series for histograms, with a [+Inf] bucket). *)

val to_json : t -> Json.t
(** Canonical JSON document:
    [{"namespace": ..., "metrics": [{"name", "type", "labels", ...}]}] with
    one object per metric; counters and gauges carry ["value"], histograms
    carry ["count"], ["sum"] and cumulative ["buckets"].  NaN prints as
    [null], infinities as the strings ["+Inf"] and ["-Inf"]. *)

val publish_stats : t -> Stats.t -> unit
(** Publish the machine's native counters ({!Stats.t}) into the registry:
    [reads_total], [writes_total], [ios_total], [comparisons_total],
    [faults_total], [retries_total] and [mem_peak_words].  Per-phase
    [phase_ios{path=...}] gauges come from an attached profiler
    ({!Profile.publish_phase_ios}), not from the machine.  When a cached backend has
    been active (any nonzero cache counter), additionally
    [cache_hits_total], [cache_misses_total] and [cache_evictions_total].
    When the communication ledger is live (a {!Core.Cluster} has been
    metering transfers), additionally [comm_rounds_total],
    [comm_words_total] and per-shard [shard_sent_words{shard=...}] /
    [shard_recv_words{shard=...}] gauges — all simulated costs, like every
    other gauge here. *)
