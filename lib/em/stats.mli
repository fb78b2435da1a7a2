(** Cost counters of a simulated EM machine.

    The primary metric of the EM model is the number of block reads and
    writes.  We additionally count comparisons (the algorithms are
    comparison-based) and track the peak number of memory words in use, so
    that violating the memory budget is observable.

    The ledger is machine-wide: it keeps no per-phase counters.  Per-phase
    costs come from an attached {!Profile}, which snapshots the ledger at
    span boundaries; every cost bracket is one {!delta} record. *)

type span_hooks = {
  on_push : string list -> unit;
      (** Called after a phase label is pushed, with the new stack
          (innermost label first). *)
  on_pop : string list -> unit;
      (** Called before a phase label is popped, with the stack as it was
          while the phase ran. *)
  on_mem : int -> unit;
      (** Called after the memory ledger grows, with the new [mem_in_use]. *)
}
(** Observer hooks for span-scoped profiling (see {!Profile}).  Hooks are
    observability machinery: they cost no simulated I/O and must not change
    what an algorithm does. *)

type t = {
  mutable reads : int;
  mutable writes : int;
  mutable comparisons : int;
  mutable faults : int;  (** metered attempts on which a fault was injected *)
  mutable retries : int;  (** recovery re-attempts charged by {!Resilient} *)
  mutable cache_hits : int;
      (** metered reads served from a resident buffer-pool page *)
  mutable cache_misses : int;
      (** metered reads that had to go to the underlying backend *)
  mutable cache_evictions : int;
      (** buffer-pool pages evicted (capacity or memory pressure) *)
  mutable allocated_blocks : int;
  mutable freed_blocks : int;
  mutable rounds : int;
      (** parallel I/O rounds: a scheduling window of I/Os spread over D
          disks costs the {e maximum} per-disk count, so rounds compress by
          up to D while [reads]/[writes] stay per block.  At D = 1,
          [rounds = ios] always. *)
  disk_ios : (int, int) Hashtbl.t;  (** metered I/Os per disk id *)
  mutable window_depth : int;  (** open {!begin_window} nesting depth *)
  window_counts : (int, int) Hashtbl.t;
      (** per-disk I/O counts of the currently open outermost window *)
  mutable comm_rounds : int;
      (** communication rounds: outside a superstep every metered transfer
          is its own round; a {!with_comm_round} superstep costs one round
          no matter how many messages it posts.  Zero on a single-shard
          machine — communication is a cluster-level cost. *)
  mutable comm_words : int;  (** total words moved between shards *)
  shard_sent : (int, int) Hashtbl.t;  (** words sent, per source shard *)
  shard_recv : (int, int) Hashtbl.t;  (** words received, per destination shard *)
  mutable comm_depth : int;  (** open {!begin_comm_round} nesting depth *)
  mutable comm_pending : int;
      (** transfers posted in the currently open outermost superstep *)
  mutable mem_in_use : int;  (** words currently charged by algorithms *)
  mutable pool_words : int;
      (** words held by buffer-pool pages (see {!Backend.Pool}); counted
          against the [M] capacity and in [mem_peak], but kept out of
          [mem_in_use] so "ledger drained" means what it says *)
  mutable mem_peak : int;  (** high-water mark of [mem_in_use + pool_words] *)
  mutable phase_stack : string list;  (** innermost phase label first *)
  mutable hooks : span_hooks option;  (** attached profiler, if any *)
  mutable reclaim : (int -> unit) option;
      (** memory-pressure hook: called by {!Mem.charge} with the word
          deficit before raising [Memory_exceeded], so caches can evict
          resident pages and release ledger words (see {!Backend.Pool}) *)
  mutable reclaimers : (int -> int) option ref list;
      (** voluntary-release registry: holders of opportunistic charges
          (write-behind queues) give words back under memory pressure *)
}

val create : unit -> t

val set_hooks : t -> span_hooks option -> unit
(** Attach (or detach, with [None]) span observer hooks. *)

val set_reclaim : t -> (int -> unit) option -> unit
(** Install (or clear) the memory-pressure reclaim hook. *)

val add_reclaimer : t -> (int -> int) -> (int -> int) option ref
(** Register a voluntary-release callback: under memory pressure it is
    called with the outstanding word deficit and returns how many words it
    released.  Returns the deregistration handle for {!remove_reclaimer}. *)

val remove_reclaimer : t -> (int -> int) option ref -> unit
(** Deregister a callback obtained from {!add_reclaimer}.  Idempotent. *)

val run_reclaimers : t -> int -> int
(** Ask registered reclaimers to release up to [deficit] words; returns the
    total released.  Called by {!Mem.charge} before the [reclaim] hook. *)

val push_phase : t -> string -> unit
(** Push a phase label and fire [on_push].  Use {!Phase.with_label} unless
    you need unbalanced control over the stack. *)

val pop_phase : t -> unit
(** Fire [on_pop] and pop the innermost label (no-op on an empty stack). *)

val notify_mem : t -> unit
(** Fire [on_mem] with the current ledger level (called by {!Mem}). *)

val wipe_memory : t -> unit
(** Simulate RAM loss on a crash: zero [mem_in_use] and unwind the phase
    stack (firing [on_pop] per frame so profilers stay balanced), leaving
    I/O counters and [mem_peak] intact.  Called by restart drivers before
    resuming from a checkpoint. *)

val ios : t -> int
(** [ios s] is [s.reads + s.writes], the total I/O cost. *)

val record_io : t -> write:bool -> disk:int -> unit
(** Charge one metered I/O — a write if [write], else a read — landing on
    [disk].  The one ledger update shared by {!Device} and {!Checkpoint}.
    Outside a window the I/O is its own round; inside, it joins the open
    window's per-disk tally.  Invariants per window: [ceil (sum / D) <= cost <= sum],
    with [cost = sum] when all I/Os hit one disk (in particular at D = 1). *)

val begin_window : t -> unit
(** Open a parallel scheduling window.  Nested windows merge into the
    outermost one. *)

val end_window : t -> unit
(** Close one window level.  Closing the outermost level charges
    [max] over the window's per-disk I/O counts to [rounds]. *)

val with_window : t -> (unit -> 'a) -> 'a
(** [with_window s f] brackets [f] with {!begin_window}/{!end_window}
    (exception-safe). *)

val disk_report : t -> (int * int) list
(** Metered I/Os per disk id, sorted by disk.  Empty before any I/O. *)

val record_comm : t -> src:int -> dst:int -> words:int -> unit
(** Attribute a [words]-word transfer from shard [src] to shard [dst]
    (called by {!Core.Cluster}'s collectives).  Self-sends ([src = dst]) and
    empty messages move nothing over the interconnect and are free.  Outside
    a superstep the transfer is its own communication round; inside one it
    joins the open superstep, which costs a single round at its outermost
    close.  Volume counters are window-independent: supersteps change
    rounds, never words. *)

val begin_comm_round : t -> unit
(** Open a BSP superstep.  Nested supersteps merge into the outermost one,
    exactly like {!begin_window} merges scheduling windows. *)

val end_comm_round : t -> unit
(** Close one superstep level.  Closing the outermost level charges one
    communication round iff any transfer was posted inside it. *)

val with_comm_round : t -> (unit -> 'a) -> 'a
(** [with_comm_round s f] brackets [f] with
    {!begin_comm_round}/{!end_comm_round} (exception-safe). *)

val pending_comm_rounds : t -> int
(** The round the currently-open outermost superstep would charge if it
    closed now ([1] iff it has posted a transfer, [0] otherwise), so
    mid-superstep cost bracketing telescopes: see {!effective_comm_rounds}. *)

val effective_comm_rounds : t -> int
(** [comm_rounds + pending_comm_rounds].  {!snapshot} and {!delta} use this,
    mirroring {!effective_rounds} for the I/O ledger. *)

val sent_report : t -> (int * int) list
(** Words sent per source shard, sorted by shard.  Empty before any comm. *)

val recv_report : t -> (int * int) list
(** Words received per destination shard, sorted by shard. *)

val pending_window_rounds : t -> int
(** Rounds the currently-open outermost scheduling window would charge if it
    closed now ([max] over its per-disk counts); [0] when no window is open.
    Makes mid-window cost bracketing well-defined: see {!effective_rounds}. *)

val effective_rounds : t -> int
(** [rounds + pending_window_rounds].  {!snapshot} and {!delta} use this, so
    a measurement opened or closed {e inside} a scheduling window still sees
    the window's accumulated cost — e.g. an online query that triggers
    refinement inside an already-open window at [D > 1] reports a non-zero
    [d_rounds] instead of deferring the whole window to whichever bracket
    straddles the close. *)

type delta = {
  d_reads : int;
  d_writes : int;
  d_comparisons : int;
  d_faults : int;
  d_retries : int;
  d_cache_hits : int;
  d_cache_misses : int;
  d_rounds : int;
  d_comm_rounds : int;
  d_comm_words : int;
}
(** The one cost record: a bracketed computation's cost as reported by
    {!Ctx.measured}, a {!Profile} span's accumulated cost, and — as
    {!snapshot} — the counters since {!create}.  [d_reads]/[d_writes]
    already include retry I/Os; [d_faults]/[d_retries] break out how many of
    the attempts faulted or were re-attempts; [d_cache_hits]/[d_cache_misses]
    how many of the reads were served by a {!Backend.Cached} buffer pool. *)

val snapshot : t -> delta
(** The machine's counters now, as a cost record (rounds via
    {!effective_rounds}).  Pass it to {!delta} to cost a bracket. *)

val delta : t -> delta -> delta
(** [delta s snap] is the cost incurred since [snap] was taken. *)

val zero : delta
val add : delta -> delta -> delta
val delta_ios : delta -> int

val ios_since : t -> delta -> int
(** I/Os performed since the snapshot was taken. *)

val pp : Format.formatter -> t -> unit
