(** Span-scoped profiling over the {!Phase} label tree — the one per-phase
    cost ledger.

    A profiler attaches to a machine's {!Stats} through the
    {!Stats.span_hooks} observer interface; from then on every
    {!Phase.with_label} (and checkpoint/resume charge) is recorded as a
    {e span} keyed on its full phase path.  Each span accumulates, across
    all its invocations, one {!Stats.delta} cost record (block
    reads/writes, rounds, comparisons, fault and retry overhead, cache
    hits/misses), the peak memory level observed while it was open, and
    host wall-clock time.  Attribution happens once per span boundary, never
    per I/O: the metered I/O path does no per-phase work.  Attaching a
    profiler is free in the simulated cost model — golden I/O costs are
    byte-identical with or without one (property-tested). *)

type span = {
  path : string list;  (** full phase path, outermost label first *)
  mutable calls : int;  (** times the span was entered *)
  mutable cost : Stats.delta;
      (** accumulated cost; [d_rounds = d_reads + d_writes] at D = 1 *)
  mutable wall_ns : float;  (** host wall-clock nanoseconds, inclusive *)
  mutable mem_peak : int;  (** max words in use while the span was open *)
}
(** Costs are {e inclusive}: a span's numbers cover its nested sub-spans.
    A phase label re-entered while already open (direct recursion) bumps
    [calls] only — the outermost open frame already accounts for its cost. *)

type t

val create : unit -> t

val attach : t -> Stats.t -> unit
(** Install the profiler's hooks on the machine (replacing any previously
    attached hooks).  Attach before entering phases: spans already open are
    not back-filled. *)

val detach : Stats.t -> unit
(** Remove whatever hooks are attached to the machine. *)

val reset : t -> unit
(** Drop all recorded spans (detaching is not required). *)

val spans : t -> span list
(** All spans, most I/O first (ties by path). *)

val span_ios : span -> int

val path_name : string list -> string
(** Join a span path with ["/"], the key used by {!phase_report}. *)

val phase_report : t -> (string * int) list
(** Per-phase-path {e exclusive} I/O counts, largest first (ties by path):
    a path's own I/Os are its span's inclusive I/Os minus those of its
    direct children.  I/Os outside every top-level span — unlabeled work,
    work done before {!attach}, and spans still open — appear as
    ["(other)"], computed against the attached machine's {!Stats.ios}.
    Zero rows are omitted, so the rows sum to {!Stats.ios}. *)

val pp : Format.formatter -> t -> unit
(** Span-tree report: one line per span, indented by nesting, children
    sorted by inclusive I/O cost.  Each line gives the span's cost, its
    inclusive wall-clock ms and its self ms (inclusive minus the direct
    children's), and its call count.  A leading ["(other)"] line carries the
    cost outside every top-level span, computed as for {!phase_report}, so
    the top-level lines sum to the machine's totals. *)

val publish_phase_ios : Metrics.t -> t -> unit
(** Publish {!phase_report} as one [phase_ios{path=...}] gauge per row. *)

val publish : Metrics.t -> t -> unit
(** Publish every span into a registry as [span_*{span=path}] gauges
    (ios, reads, writes, comparisons, faults, retries, mem_peak_words,
    wall_ns, calls). *)
