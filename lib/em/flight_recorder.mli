(** Bounded flight recorder: a journal of the last K query records that
    can be joined with the {!Trace} ring and a {!Metrics} registry into a
    self-contained post-mortem JSON document.

    A serving session records one entry per admitted query, whatever its
    outcome; the entry's costs cover every query-level retry attempt.  When something goes wrong — a typed {!Em_error} reply, a
    budget abort, a chaos kill, or shutdown — {!dump} produces a single
    JSON object holding the retained query records, the trace events that
    were emitted while those queries ran, and a registry snapshot.  The
    document follows the serve determinism convention: simulated costs
    live in plain fields, wall-clock values only under ["wall"] keys. *)

type t

type record = {
  id : int;  (** the serve-layer query id *)
  kind : string;  (** ["select"], ["quantile"], ["range"], ... *)
  query : string;  (** the raw command line as received *)
  ios : int;
  rounds : int;  (** effective parallel rounds charged to the query *)
  splits : int;  (** refinement splits performed during the query *)
  wall_ns : int;  (** wall-clock span; excluded from deterministic output *)
  outcome : string;  (** ["ok"] or a typed error code *)
  seq_lo : int;  (** [Trace.total] when the query started *)
  seq_hi : int;  (** [Trace.total] when it finished *)
}

val default_capacity : int
(** 64 — roomy enough to cover any plausible fault window, small enough
    to keep post-mortems readable. *)

val create : ?capacity:int -> unit -> t
(** @raise Invalid_argument if [capacity < 1]. *)

val record : t -> record -> unit
(** Append a record, evicting the oldest when full. *)

val records : t -> record list
(** Retained records, oldest first. *)

val recorded : t -> int
(** Records ever pushed (independent of capacity). *)

val retained : t -> int
val dumps : t -> int
(** Post-mortems produced so far. *)

val dump :
  ?trace:Trace.t -> ?metrics:Metrics.t -> ?now:(unit -> float) ->
  reason:string -> t -> string
(** One-line post-mortem JSON:
    [{"postmortem":{"reason":...,"recorded":N,"retained":K,
    "queries":[...],"trace_events":[...],"trace_dropped":D,
    "metrics":...,"wall":{"ts_ms":...}}}].  Trace events are sliced to
    those emitted at or after the oldest retained record began; [now]
    (default [Unix.gettimeofday]) stamps the ["wall"] object. *)

val dump_to_file :
  ?trace:Trace.t -> ?metrics:Metrics.t -> ?now:(unit -> float) ->
  reason:string -> t -> path:string -> unit
(** {!dump} plus a trailing newline, written to [path] (truncated).
    Missing parent directories of [path] are created first. *)
