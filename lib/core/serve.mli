(** The serve-session engine behind [em_repro serve].

    One long-lived {!Emalg.Online_select} session answering newline-delimited
    query batches with JSON reply lines (NDJSON).  Lives in the library so
    the hardened paths — typed fault replies, query-level retries, budget
    aborts, batch exception safety, checkpoint/state-file round trips,
    telemetry frames, flight-recorder dumps, the drift watchdog — are
    unit-testable without a process or a socket; [bin/serve.ml] adds flag
    parsing, signal handling and the accept loop.

    {b Protocol} (one input line = one batch, [';']-separated):
    [select K], [quantile PHI], [range A B], [stats], [metrics],
    [intervals], [profile], [checkpoint], [quit].

    {b Request spans.}  Every admitted query gets a monotonically-assigned
    id, echoed as ["id"] in its reply next to a compact ["cost"] object
    (the last query-level attempt's cost).  Whatever the outcome — answer,
    validation failure, typed fault, budget abort, crash or internal error
    — the span closes once, into one {!Em.Flight_recorder.record} whose
    I/Os, rounds and splits cover every query-level retry attempt since
    admission.  The flight-recorder journal keeps that record, and the
    per-session {!Em.Metrics} histograms ([query_ios], [query_rounds], and
    a wall-clock latency histogram kept in a separate registry), the
    {!Drift} watchdog and the optional {!Em.Telemetry} stream read it.  The
    outcome then decides only the reply, whether a post-mortem is written,
    and whether the loop stops.

    {b Error-reply grammar:}
    - [{"error":"<message>"}] — parse failure (no id: the query was never
      admitted);
    - [{"id":N,"error":"<message>"}] — validation failure after admission;
    - [{"id":N,"error":"<code>","detail":"...","retries":R}] — a typed
      {!Em.Em_error} escaped the per-I/O recovery and [R] query-level
      retries; [<code>] is one of [io_fault], [read_failed],
      [write_failed], [corrupt_block], [crashed];
    - [{"id":N,"error":"budget_exceeded","budget":B,"spent":S}] — the
      per-query I/O budget ran out; refinement already paid for is kept.

    {b Determinism contract.}  Every emitted number is a simulated cost,
    except inside ["wall":{...}] sub-objects — the only place
    wall-clock-derived values appear.  Transcripts with the wall objects
    normalised are byte-deterministic for a fixed geometry/workload/seed,
    including error replies under a seeded fault plan. *)

type t
(** A live server: session + profiler + metrics registries + flight
    recorder + drift watchdog + recovery configuration. *)

type meta = {
  m_n : int;
  m_mem : int;
  m_block : int;
  m_disks : int;
  m_workload : string;
  m_seed : int;
}
(** The machine/workload identity a state file is bound to; [--restore]
    refuses a file written for a different one. *)

val create :
  ?checkpoint_every:int ->
  ?io_budget:int ->
  ?max_retries:int ->
  ?state_path:string ->
  ?restore:bool ->
  ?telemetry:Em.Telemetry.t ->
  ?flight_capacity:int ->
  ?flight_dir:string ->
  ?drift_ceiling:float ->
  ?clock:(unit -> float) ->
  meta:meta ->
  int Em.Ctx.t ->
  int Em.Vec.t ->
  t
(** [create ~meta ctx v] wraps [v] in a fresh session.  [checkpoint_every]
    enables the automatic every-k-splits checkpoint policy; [state_path]
    mirrors every checkpoint to a JSON state file (and by itself enables
    explicit-only checkpointing); [restore = true] resumes from the state
    file if it exists (fresh start otherwise), including the admitted
    query-id/by-kind counters; [io_budget] bounds any single query's
    metered I/Os; [max_retries] (default 3) bounds query-level retries on
    typed faults.

    Observability: [telemetry] attaches a frame emitter (ticked after every
    admitted query, fired unconditionally on the first drift alert and by
    {!finalize}); [flight_capacity] sizes the flight-recorder journal
    (default {!Em.Flight_recorder.default_capacity}); [flight_dir] enables
    post-mortem dumps ([postmortem-NNN.json], created on demand) on typed
    error replies, budget aborts, crashes and shutdown; [drift_ceiling]
    overrides {!Drift.default_ceiling}; [clock] (default
    [Unix.gettimeofday]) is the wall clock, injectable for deterministic
    tests.  With none of the optional arguments the server's protocol
    behaviour is unchanged.
    @raise Failure if the state file is not a well-formed format-v3
    document (wrong magic, missing or mistyped field, payload of the wrong
    length, leaves that do not partition the input) or is bound to a
    different machine/workload. *)

val session : t -> int Emalg.Online_select.t
val ctx : t -> int Em.Ctx.t
val input : t -> int Em.Vec.t

val restored : t -> bool
(** Whether {!create} resumed from a state file. *)

val crashed : t -> bool
(** Whether a [crashed] machine fault stopped the query loop; {!shutdown}
    then skips the final checkpoint (a crashed process does not get to
    write). *)

val queries_admitted : t -> int
(** Queries assigned an id so far (successful or not; parse failures are
    not admitted).  Also the id of the most recent admitted query. *)

val drift : t -> Drift.t
(** The session's bound-drift watchdog ([serve --strict-bounds] exits
    nonzero when it {!Drift.tripped}). *)

val flight_recorder : t -> Em.Flight_recorder.t
val flight_dumps : t -> int
(** Post-mortem files written to [flight_dir] so far. *)

val flight_dump : t -> reason:string -> string option
(** Force a post-mortem dump now; returns the artifact path, or [None]
    when no [flight_dir] is configured. *)

(** {2 Protocol} *)

type command =
  | Query of Emalg.Online_select.query
  | Stats
  | Metrics
  | Intervals
  | Profile
  | Checkpoint
  | Quit

val parse_command : string -> (command, string) result
(** Parse one query.  Validation happens here so malformed input never
    reaches the session: [quantile] requires a finite [phi] with
    [0 < phi <= 1] (NaN/infinities rejected), [range a b] requires
    [a <= b]. *)

val run_command : t -> (string -> unit) -> string -> bool
(** [run_command srv emit line] parses and executes one query, calling [emit]
    with exactly one reply line.  Never raises: every failure — parse error,
    [Invalid_argument], typed fault after retries, budget abort, even a
    programming error — becomes an error reply.  Returns [false] when the
    loop should stop ([quit], or a [crashed] machine fault). *)

val run_batch : t -> (string -> unit) -> string -> bool
(** One input line = one batch; multi-query batches share a scheduling
    window ({!Em.Ctx.io_window}).  Exception-safe: a failing query inside
    the window still closes it and the remaining queries of the batch run. *)

val serve_channels : ?should_stop:(unit -> bool) -> t -> in_channel -> out_channel -> bool
(** Serve lines from a channel until EOF (returns [true]: accept another
    client), [quit]/crash (returns [false]), or [should_stop ()] turns true
    (returns [false]; polled between lines and after interrupted reads, the
    signal-handler hook for graceful shutdown). *)

(** {2 JSON views} *)

val greeting_json : t -> Em.Json.t
val summary_json : t -> Em.Json.t

val final_json : ?shutdown:string -> t -> Em.Json.t
(** The closing summary line, including the drift verdict and a
    wall-uptime object.  Pure view — see {!finalize} for the effectful
    end-of-session sequence. *)

val finalize : ?shutdown:string -> t -> Em.Json.t
(** End-of-session telemetry: emit (and close) the final telemetry frame,
    write the shutdown post-mortem (reason ["shutdown"],
    ["shutdown:<reason>"] or ["shutdown:crashed"]), then return
    {!final_json}. *)

val json_escape : string -> string
(** {!Em.Json.escape}, kept under this name for bench/perf. *)

(** {2 Checkpoint state file} *)

val checkpoint_now : t -> unit
(** Save a session checkpoint and mirror it to the state file (if any) —
    the [checkpoint] command, also used by signal-driven shutdown. *)

val shutdown_checkpoint : t -> unit
(** Graceful-shutdown persistence: take a final checkpoint and mirror the
    state file — unless no store is attached (no-op) or the machine crashed
    (a crashed process does not get to write; the pre-crash checkpoint is
    the truth). *)

val close : t -> unit
(** Close the session and drop its cache pages.  The context stays open
    (the caller owns it). *)
