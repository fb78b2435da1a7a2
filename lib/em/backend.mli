(** Physical block storage behind {!Device}.

    {!Device} is a metering / fault-injection / recovery shell; the actual
    byte shuffling happens in a backend — a record of closures over
    {e physical} slot numbers.  Three implementations ship:

    - {!sim}: the historical in-memory option array.  Zero-cost, default,
      and the reference for golden I/O counts.
    - {!file}: fixed-size slots of a memory-mapped Unix file per disk (raw
      int64s for payloads of immediates, [Marshal] for the rest), for
      honest wall-clock numbers.
    - {!cached}: a buffer-pool LRU wrapper over any backend.  Resident pages
      are charged against the {!Mem} ledger (so [mem_peak <= M] still
      holds), and hits/misses/evictions are metered through {!Stats},
      {!Trace} and {!Metrics}.

    Backends are records of closures rather than a functor because a linked
    device family ({!Ctx.linked}) mixes element types yet must share one
    buffer pool: each typed backend keeps the only page table, and the pool
    holds an untyped recency list of the frames those pages carry.

    Whatever the backend, the {e counted} I/O model is unchanged: {!Device}
    charges one I/O per metered block access (a cache hit still costs one
    counted I/O), so golden cost files are identical across backends. *)

type 'a t = {
  name : string;
  alloc : unit -> int;  (** grab a fresh (or recycled) physical slot *)
  load : int -> 'a array option;  (** [None] = never written / freed *)
  store : int -> 'a array -> unit;
      (** owns copying: the caller's array is not retained *)
  free : int -> unit;  (** recycle the slot; subsequent [load] is [None] *)
  probe : int -> Trace.cache option;
      (** residency check {e before} a metered read; [None] = uncached *)
  prefetch : int -> unit;
      (** advisory, unmetered: start fetching the slot's bytes early.  A
          no-op everywhere except the {e asynchronous} file assembly, where
          it stages a read on the slot's worker domain; a later
          {!field-load} of the same slot consumes the staged bytes instead
          of blocking on a fresh seek.  Never changes what a load returns —
          only when the wall-clock wait happens. *)
  flush : unit -> unit;
      (** write back dirty pages and retire write-behind stores; no backend
          syncs to stable storage (its files are unlinked scratch space) *)
  close : unit -> unit;  (** release OS resources; idempotent *)
}

val default_slots : Params.t -> int
(** Initial slot-table size for fresh devices: scaled to the machine's
    [M/B] fanout (never below the historical 64) so large sweeps don't pay
    repeated store regrowth. *)

val sim : ?slots:int -> ?disks:int -> unit -> 'a t
(** In-memory store seeded with [slots] (default 64) and doubling on
    demand — behaviourally identical to the store {!Device} used to embed.
    With [disks = D] (default 1) slot placement is striped: slot [s] lives
    on disk [s mod D], allocation round-robins across disks, and each disk
    recycles its own slots LIFO; at D = 1 the allocator is the historical
    single free list. *)

val file :
  ?dir:string ->
  ?delay:(unit -> unit) ->
  ?io:Io_pool.t ->
  ?disks:int ->
  ?slots:int ->
  slot_bytes:int ->
  unit ->
  'a t
(** Blocks in fixed [slot_bytes]-sized slots of temp files — one backing
    file per disk ([disks], default 1), with slot [s] stored on disk
    [s mod D] at offset [(s / D) * slot_bytes].

    Each file is mapped once, shared ([Unix.map_file]); loads and stores
    copy between the payload and the mapping, with no system call per
    block.  The mapping grows geometrically at {!field-alloc}, on the
    caller's domain, from room for [slots] slots (default 64) across the
    disks: the file is first extended with written zeros, so a full disk
    raises [Unix.Unix_error] there rather than SIGBUS at a later store.

    A slot holds an 8-byte little-endian header and the payload.  A payload
    whose elements are all immediates (ints, chars, bools, constant
    constructors) is stored raw, as [n] little-endian int64s under header
    [(n lsl 1) lor 1], and decoded straight from the mapping; any other
    payload is a [Marshal] blob of [len] bytes under header [len lsl 1].
    An encoding larger than the slot raises {!Em_error.Slot_overflow} —
    synchronously, under either assembly, since encoding always happens on
    the caller's domain; size [slot_bytes] from the block size via
    {!default_slot_bytes}.

    The files are created under [dir] (default: [$EM_BACKEND_DIR], falling
    back to the system temp dir) and unlinked immediately after opening, so
    no block file can outlive its fd — not across a bench sweep, not even on
    a crash.  For the same reason {!field-flush} syncs nothing: no process
    can ever reopen the file to read what a sync would have made durable.
    {!field-close} (idempotent) truncates the files, so their space comes
    back at once, and closes the fds; a GC finaliser is the backstop for
    backends dropped without a close.

    [delay] models per-access device latency: it is invoked once before
    every raw slot read or write, on whichever domain performs it (bench
    speedup gates and stress-test jitter hang off this hook).

    [io] selects the {e asynchronous} assembly: the copies into and out of
    the mapping execute on the pool's worker domains — stores become
    write-behind (awaited by {!field-flush} and {!field-close}),
    {!field-prefetch} stages reads — while every observable decision
    ([written] set, allocator order, overflow checks, mapping growth)
    stays on the caller's domain in the synchronous order.  Requests are
    keyed by (backend, disk), so same-slot requests retire in submission
    order. *)

val latency_env_var : string  (** ["EM_FILE_LATENCY_US"] *)

val default_file_delay : unit -> (unit -> unit) option
(** Delay hook implied by the environment: [Some sleep] of
    [$EM_FILE_LATENCY_US] microseconds when set and positive, else [None].
    @raise Invalid_argument when set but unparseable or negative. *)

val default_slot_bytes : Params.t -> int
(** [32*B + 512] bytes: a generous budget for [B] marshalled scalars (a
    raw block of [B] immediates takes [8 + 8B]). *)

(** A buffer pool shared by every cached backend of a linked device family.

    The pool keeps no table of its own: each cached backend's page table is
    the only residency table, and every resident page carries its {!frame}.
    The pool links the frames into one recency list, evicts the least
    recently used frame first, and charges [B] words per resident frame
    against the {!Mem} ledger.  Admission is {e opportunistic}: when the
    ledger cannot absorb another page even after reclaim, the would-be
    admission is simply bypassed (pass-through I/O) — caching must never
    make an algorithm exceed [M].  Conversely, the pool registers a
    {!Stats.add_reclaimer} callback so that an algorithm's own memory
    pressure evicts cache pages before [Memory_exceeded] is raised. *)
module Pool : sig
  type t

  type frame
  (** One resident page's place in the recency list. *)

  val create : ?pages:int -> Params.t -> Stats.t -> t
  (** Pool holding at most [pages] frames (default {!default_pages}).
      Registers its memory-pressure reclaimer on [stats]; reclaimers
      registered later (write-behind queues) are asked before it. *)

  val default_pages : Params.t -> int
  (** [max 2 (fanout/2)]: half the machine's memory, leaving the other half
      to the algorithm. *)

  val capacity : t -> int
  val resident : t -> int  (** currently resident frames; [<= capacity] *)

  val admit : t -> evict:(int -> unit) -> int -> frame option
  (** [admit t ~evict slot] makes a frame for [slot] resident, evicting
      least recently used frames as needed; [evict] is the owner's
      write-back-and-drop, called with the slot of one of its frames chosen
      as victim.  [None] = bypass (the ledger is full). *)

  val touch : t -> frame -> unit
  (** Mark a resident frame most recently used. *)

  val drop_all : t -> unit
  (** Evict every frame (write-back included), returning their words to the
      {!Mem} ledger.  End-of-run teardown. *)

  val forget : t -> frame -> unit
  (** Drop a resident frame without eviction semantics (no write-back, not
      counted as an eviction): the block was freed or the backend closed. *)
end

val cached : pool:Pool.t -> 'a t -> 'a t
(** Write-back, write-allocate LRU pages over [inner].  {!field-probe}
    reports {!Trace.Hit}/{!Trace.Miss}; {!field-flush} writes back dirty
    pages (keeping them resident) before flushing [inner]; {!field-free}
    and {!field-close} return pages to the pool without write-back. *)

(** {1 Specs and instances}

    A {!spec} is the user-facing backend choice (CLI flag, [EM_BACKEND]
    environment variable); an {!instance} binds it to one machine's
    parameters, stats and (for cached specs) buffer pool, and mints one
    typed backend per device so a linked family shares the pool while each
    device keeps its own slot space. *)

type spec = Sim | File | Cached of spec  (** [Cached Sim] is plain [cached] *)

val spec_name : spec -> string
(** ["sim"], ["file"], ["cached"], ["cached:file"], ... *)

val spec_of_string : string -> (spec, string) result
val env_var : string  (** ["EM_BACKEND"] *)

val default_spec : unit -> spec
(** [$EM_BACKEND] parsed with {!spec_of_string} ([Sim] when unset); an
    unparseable value raises [Invalid_argument] rather than being silently
    ignored. *)

type instance

val instance :
  ?dir:string ->
  ?slot_bytes:int ->
  ?pool_pages:int ->
  ?async:bool ->
  ?io_pool:Io_pool.t ->
  ?file_delay:(unit -> unit) ->
  spec ->
  Params.t ->
  Stats.t ->
  instance
(** [async] (default: {!Params.default_async}, i.e. [$EM_ASYNC]) executes
    file I/O on the shared {!Io_pool.global} pool; [io_pool] overrides the
    pool itself (tests).  Both are ignored for spec families containing no
    [File] layer — a pure sim machine never touches the domain pool.
    [file_delay] (default: {!default_file_delay}, i.e. [$EM_FILE_LATENCY_US])
    is threaded to every {!file} backend of the family. *)

val name : instance -> string
val pool : instance -> Pool.t option

val async_enabled : instance -> bool
(** Whether this family's file backends run the asynchronous assembly. *)

val make : instance -> 'a t
(** A fresh typed backend for one device of the family, striped across the
    machine's [Params.disks]. *)
