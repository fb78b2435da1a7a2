(** Structured I/O event tracing.

    Every metered {!Device} operation emits one {!event} carrying the
    operation kind, the block id, the phase path that was active (see
    {!Phase}), and a sequential-vs-random classification derived from the
    previously accessed block id.  Events flow into pluggable {!sink}s: by
    default a bounded in-memory ring buffer (cheap enough to leave on), and
    optionally a JSONL file sink for offline analysis or ad-hoc callbacks.

    Tracing is observability machinery: it costs no simulated I/O and never
    changes what an algorithm does. *)

type op = Read | Write

type locality =
  | Sequential  (** same block as the previous I/O, or the next block id *)
  | Random  (** anything else: the disk head had to seek *)

type kind =
  | Io  (** an ordinary first-attempt I/O *)
  | Retry  (** a recovery re-attempt charged by {!Resilient} *)
  | Faulted of Fault.kind  (** an attempt on which a fault was injected *)

type cache =
  | Hit  (** served from a resident buffer-pool page *)
  | Miss  (** had to go to the underlying backend *)

type event = {
  seq : int;  (** 0-based sequence number of the I/O on this tracer *)
  op : op;
  kind : kind;
  block : int;
  phase : string list;  (** phase path, innermost label first *)
  locality : locality;
  backend : string;  (** storage backend that served the I/O; ["sim"] default *)
  cache : cache option;  (** buffer-pool outcome, for cached reads only *)
  disk : int option;
      (** disk the block is striped onto; [None] on a single-disk machine *)
  round : int option;
      (** parallel round id; I/Os batched in one scheduling window share it *)
  shard : int option;
      (** cluster shard that issued the I/O; [None] on a single machine *)
}

type sink
type t

val create : ?ring_capacity:int -> unit -> t
(** A tracer with a single bounded ring-buffer sink of [ring_capacity]
    events (default {!default_ring_capacity}).  The ring retains the most
    recent events and counts how many it evicted. *)

val default_ring_capacity : int

val ring_env_var : string
(** ["EM_TRACE_RING"].  Nothing reads this variable: {!create}'s capacity
    comes only from its argument.  The name is kept for [bench/perf], which
    records it among its pinned environment defaults. *)

val ring_sink : capacity:int -> sink
val jsonl_sink : out_channel -> sink
(** One JSON object per line; the caller owns (and closes) the channel. *)

val custom_sink : ?reset:(unit -> unit) -> (event -> unit) -> sink
(** Ad-hoc callback sink.  [reset] (default: do nothing) is invoked by
    {!reset} so stateful callbacks can drop accumulated state along with the
    rest of the tracer. *)

val collector : unit -> sink * (unit -> event list)
(** An unbounded sink that retains every event, plus a function returning
    them oldest-first.  Use for reports on runs whose length exceeds any
    reasonable ring.  {!reset} clears the retained events. *)

val add_sink : t -> sink -> unit

val emit :
  ?kind:kind -> ?backend:string -> ?cache:cache -> ?disk:int -> ?round:int ->
  ?shard:int -> t -> op -> block:int -> phase:string list -> unit
(** Record one I/O (called by {!Device}; [kind] defaults to {!Io}, [backend]
    to ["sim"], [cache]/[disk]/[round]/[shard] to [None]).  The first event
    on a tracer is classified {!Random} (the head must seek to the first
    block). *)

val events : t -> event list
(** Retained events of the first ring sink, oldest first. *)

val dropped : t -> int
(** Events evicted from the first ring sink since creation/reset. *)

val total : t -> int
(** Total events emitted (independent of ring capacity). *)

val seeks : t -> int
(** Events classified {!Random} since creation/reset: the head seeks. *)

val reset : t -> unit
(** Clear sequence numbering, locality state, the seek count, and the
    contents of {e every} sink that owns state: ring sinks are emptied
    (length, head and dropped count), and custom sinks — including
    {!collector} — have their [reset] hook invoked, so no sink silently
    carries events across runs.  JSONL sinks are the one exception: the
    tracer does not own the channel, so already-written lines stay in the
    file and subsequent events are appended (their [seq] restarts at 0). *)

val op_name : op -> string
val locality_name : locality -> string
val kind_name : kind -> string
val cache_name : cache -> string

val event_to_json : event -> Json.t
(** One JSON object.  The [backend], [cache], [disk]/[round] and [shard]
    fields are omitted when they carry no information (backend ["sim"],
    cache [None], disk [None] — i.e. a single-disk machine — shard [None]
    — i.e. not part of a cluster), so traces from the default simulated
    backend keep their historical shape. *)
