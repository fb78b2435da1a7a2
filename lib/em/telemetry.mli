(** Streaming serve-layer telemetry.

    A telemetry emitter appends canonical one-line JSON frames to a sink —
    a file, a connected Unix-domain socket, an existing channel, or a
    callback — on a cadence of every N queries and/or every T seconds.
    Dashboards tail the stream instead of polling the server.

    Frames have a fixed two-compartment layout:

    {v
    {"frame":"telemetry","seq":S,"queries":Q,"cost":{...},"wall":{...}}
    v}

    where ["frame"] is ["telemetry"], ["alert"] (drift watchdog) or
    ["final"] (shutdown).  The ["cost"] object carries only simulated,
    byte-deterministic quantities; anything derived from the wall clock
    (timestamps, qps, latency quantiles) is confined to ["wall"], so smoke
    tests normalise exactly one sub-object per line and byte-diff the
    rest.  Communication-ledger counters ([comm_rounds], [comm_words] —
    BSP supersteps and inter-shard words, see {!Stats.record_comm}) are
    simulated costs and therefore belong to the ["cost"] compartment;
    emitters include them gated — absent when zero — so single-machine
    frame streams stay byte-identical.  Both payloads are supplied by the
    caller as {!Json.t} thunks, each forced once per frame actually
    emitted and never for a {!tick} that is not due. *)

type t
type sink

val channel_sink : out_channel -> sink
(** Writes frames to an existing channel (flushed per frame); the caller
    keeps ownership and closes it. *)

val file_sink : string -> sink
(** Truncates/creates the file; {!close} closes it. *)

val socket_sink : string -> sink
(** Connects to a Unix-domain stream socket at the given path; {!close}
    closes the connection.
    @raise Failure if the connection cannot be established. *)

val fn_sink : (string -> unit) -> sink
(** Calls the function with each frame line (no trailing newline). *)

val create :
  ?every_queries:int -> ?every_seconds:float -> ?now:(unit -> float) ->
  sink -> t
(** An emitter whose {!tick} fires when at least [every_queries] queries
    or [every_seconds] seconds (measured by [now], default
    [Unix.gettimeofday]) have passed since the last emitted tick frame —
    whichever comes first when both are set.  When neither cadence is
    given, defaults to a frame per query.
    @raise Invalid_argument on a non-positive cadence. *)

val tick :
  t -> queries:int -> cost:(unit -> Json.t) -> wall:(unit -> Json.t) -> unit
(** Emit a ["telemetry"] frame if one is due; otherwise do nothing. *)

val alert :
  t -> queries:int -> cost:(unit -> Json.t) -> wall:(unit -> Json.t) -> unit
(** Emit an ["alert"] frame unconditionally (cadence-exempt). *)

val final :
  t -> queries:int -> cost:(unit -> Json.t) -> wall:(unit -> Json.t) -> unit
(** Emit a ["final"] frame unconditionally. *)

val frames : t -> int
(** Frames emitted so far (= the [seq] of the most recent frame). *)

val close : t -> unit
(** Flush and release the sink.  Idempotent; frames after [close] are
    dropped. *)

val summarize : ?prev:string -> string -> (string, string) result
(** Render one frame line as the multi-line dashboard block `em_repro top`
    prints: qps, p50/p99 latency, I/Os per query, cache hit rate,
    refinement progress, drift ratio.  [prev] is the previous frame line,
    used to compute an interval qps instead of the session average.
    Returns [Error] with a parse diagnostic for non-frame input. *)

module Json = Json
(** The codec, under its old name: bench/perf reads JSON through
    [Em.Telemetry.Json]. *)
