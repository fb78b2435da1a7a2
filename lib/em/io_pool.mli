(** A domain-pool asynchronous I/O scheduler.

    Worker domains each own one bounded FIFO request queue (mutex + condvar
    hand-off).  Requests are routed by an integer [key]: the same key always
    lands on the same worker.  The async file backend keys every request by
    (backend, disk), which yields the invariant real async I/O needs:
    {b per-slot ordering} — two requests touching the same slot are
    serialised in submission order by that worker's FIFO, so a read
    submitted after a write observes it.

    Everything the EM cost model observes (counted I/Os, rounds, fault
    decisions, checksums, trace events) is decided on the {e submitting}
    domain before a job is enqueued; jobs are pure byte shuffling.  Async
    execution therefore moves wall-clock time and nothing else — the
    property {!Test_async} locks in.

    Pools are explicit for tests; production machines share {!global} (one
    pool of {!default_workers} domains per process — domains are scarce, the
    runtime caps them at ~128). *)

type t

val default_workers : unit -> int
(** [$EM_ASYNC_WORKERS] when set (a positive integer), else 4.
    @raise Invalid_argument when the variable is set but unparseable. *)

val workers_env_var : string
(** ["EM_ASYNC_WORKERS"] *)

val default_capacity : int
(** Per-worker queue bound (64): {!submit} blocks — backpressure, not
    unbounded buffering — while the target worker's queue is full. *)

val create : ?workers:int -> ?capacity:int -> unit -> t
(** Spawn [workers] worker domains (default {!default_workers} [()]), each
    with a [capacity]-bounded queue. *)

val workers : t -> int
val in_flight : t -> int
(** Requests submitted and not yet completed.  Decremented {e before} the
    request's ticket resolves, so once an {!await} returns, the awaited
    request is no longer counted. *)

val closed : t -> bool

(** {1 Submission} *)

type 'a ticket
(** One request's completion cell; resolves exactly once, to the job's
    result or to the exception it raised. *)

val submit : t -> key:int -> (unit -> 'a) -> 'a ticket
(** Enqueue a job on worker [key mod workers].  Blocks while that worker's
    queue is full.  The job must not touch caller-domain state.
    @raise Invalid_argument if the pool is shut down. *)

val await : 'a ticket -> 'a
(** Block until the job completed and return its result, or re-raise its
    exception (once per awaiter) on the calling domain.  The ticket mutex
    provides the happens-before edge for the result. *)

(** {1 Lifecycle} *)

val quiesce : t -> unit
(** Block until no request is in flight. *)

val shutdown : t -> unit
(** Stop accepting work, let every worker drain its queue (queued requests
    are executed, never dropped), and join the domains.  Idempotent. *)

(** {1 The shared default pool} *)

val global : unit -> t
(** The process-wide pool, spawned on first use and joined [at_exit].
    Asynchronous machines created by {!Ctx.create} share it. *)

val fresh_key_base : unit -> int
(** A fresh routing-key base for one async backend: disk [d] of a backend
    with base [b] submits under key [b + d], pinning each (backend, disk)
    pair to one worker. *)
