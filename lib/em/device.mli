(** A metered block device with fault injection over a pluggable backend.

    The device stores blocks of at most [B] elements each, addressed by
    integer block ids.  Every metered {!read} and {!write} costs exactly one
    I/O, which is recorded in the device's {!Stats.t} and emitted as a typed
    {!Trace.event}.  Freed blocks are recycled so that long experiments do
    not grow without bound.

    {b Backends.}  Physical storage is delegated to an {!Backend.t}
    (in-memory simulation by default; real file-backed slots or a
    buffer-pool cache via {!Ctx.create}).  Metering happens here, {e above}
    the backend, so the counted I/O numbers are identical whatever backend
    serves the bytes — a buffer-pool hit still costs one counted I/O, it is
    merely also recorded as a hit ({!Stats} cache counters, {!Trace.cache}
    annotation).

    {b Faults.}  An optional {!Fault.plan} ({!inject}) is consulted once per
    metered attempt and can make that attempt fail ({!Em_error.Error}),
    silently corrupt data (torn writes, bit flips), mark the physical block
    sticky-bad (permanent faults), or crash the whole machine.  Faulted
    attempts still cost their I/O — the disk did spin — and are traced with
    kind {!Trace.Faulted}.

    {b Recovery state.}  When the device is {!arm}ed it carries per-block
    checksums (recorded on every store write, including {!Oracle} set-up
    writes), a quarantine set of retired physical slots, and a logical-to-
    physical remap table.  The retry/verify/remap {e logic} that uses this
    state lives in {!Resilient}; this module only provides single metered
    attempts plus the bookkeeping.

    Zero-cost access lives exclusively in the {!Oracle} submodule: measured
    algorithm code cannot touch the store without paying an I/O unless it
    names [Oracle] explicitly at the call site.  Oracle accesses never fault
    (they model the experimenter, not the machine) but do follow the remap
    table, so verification sees the same data the algorithms see.

    Misuse — a bad block id, reading a never-written block, overflowing a
    block, double-freeing — raises the typed programming-error exceptions of
    {!Em_error}, never a stringly [Invalid_argument]. *)

(** How {!Resilient} should fight back. *)
type recovery_policy = {
  max_retries : int;  (** re-attempts after the first try of an operation *)
  verify_reads : bool;  (** checksum-verify every payload a read returns *)
  verify_writes : bool;
      (** read back and verify each write (the read-back is metered as a
          retry I/O); catches silent write corruption at write time *)
  remap_bad : bool;  (** quarantine + remap permanently bad blocks *)
}

val default_policy : recovery_policy
(** [{ max_retries = 3; verify_reads = true; verify_writes = false;
      remap_bad = true }] *)

type recovery_counters = {
  mutable recovered : int;  (** operations that succeeded after a fault *)
  mutable remapped : int;
  mutable quarantined : int;
  mutable checksum_failures : int;
}

type recovery = {
  policy : recovery_policy;
  counters : recovery_counters;
  checksums : (int, int) Hashtbl.t;  (** physical id -> intended checksum *)
  quarantine : (int, Fault.kind) Hashtbl.t;  (** retired physical slots *)
  remap : (int, int) Hashtbl.t;  (** logical id -> physical slot *)
}

type 'a t

val create :
  ?trace:Trace.t -> ?backend:'a Backend.t -> ?shard:int -> Params.t -> Stats.t -> 'a t
(** [create ?trace ?backend params stats] makes a device whose metered
    operations are counted in [stats] and emitted to [trace] (a fresh
    default tracer if omitted), storing bytes in [backend] (a fresh
    {!Backend.sim} sized by {!Backend.default_slots} if omitted).  Devices
    created through {!Ctx.linked} share one tracer.  The device starts with
    no injector and unarmed.

    [shard] is the device's cluster shard identity (see {!Core.Cluster});
    when set, every trace event the device emits carries it.  Omitted on
    single machines, so single-machine traces keep their historical shape. *)

val stats : 'a t -> Stats.t
val trace : 'a t -> Trace.t

val flush : 'a t -> unit
(** Push pending state down to the backing store: write back dirty
    buffer-pool pages and await an async file backend's write-behind
    stores.  Nothing is synced to stable storage: file backends live in
    unlinked scratch files no process can reopen, so an [fsync] would make
    nothing readable.  Costs no counted I/O (durability is outside the
    Aggarwal–Vitter cost model). *)

val close : 'a t -> unit
(** Release backend OS resources (fds, buffer-pool pages).  Idempotent.
    Using the device afterwards is a programming error. *)

val prefetch : 'a t -> int array -> unit
(** Advisory, {e unmetered}: hint that the blocks [ids] will be read soon so
    an asynchronous backend can stage their bytes on its worker domains
    (no-op on synchronous backends).  Charges nothing, emits nothing, and
    makes no fault decision — all of that happens at the {!read} that later
    consumes the bytes, so counted costs are independent of prefetching. *)

(** {2 Fault injection and recovery configuration} *)

val inject : 'a t -> Fault.plan -> unit
(** Install (or replace) the fault plan consulted on every metered attempt. *)

val clear_injector : 'a t -> unit
val injector : 'a t -> Fault.plan option

val arm : ?policy:recovery_policy -> ?share:recovery -> 'a t -> unit
(** Attach recovery state.  With [share] the new state adopts the donor
    recovery's policy and counters (so a fault report covers a whole linked
    family) but gets fresh checksum/remap tables — block-id spaces of linked
    devices are disjoint.  [share] overrides [policy]. *)

val recovery : 'a t -> recovery option

val checksum : 'a array -> int
(** The order-sensitive payload checksum recorded by store writes. *)

val expected_checksum : 'a t -> int -> int option
(** Recorded checksum for (the physical slot behind) logical block [id]. *)

val verify_payload : 'a t -> int -> 'a array -> bool
(** Whether [payload] matches the recorded checksum of block [id].  [true]
    when the device is unarmed or no checksum was recorded. *)

val quarantine_and_remap : 'a t -> int -> Fault.kind -> int
(** [quarantine_and_remap d id kind] retires the physical slot behind
    logical block [id] (it never re-enters the free list), remaps [id] onto
    a fresh healthy slot, and returns that slot.  The caller must rewrite
    the payload.  Requires an armed device. *)

val quarantined_blocks : 'a t -> (int * Fault.kind) list

(** {2 Allocation} *)

val alloc : 'a t -> int
(** Reserve a fresh (or recycled) block id.  Costs no I/O by itself. *)

val free : 'a t -> int -> unit
(** Return a block to the free list.  Costs no I/O.
    @raise Em_error.Bad_block_id on an id never allocated.
    @raise Em_error.Double_free if the block is already free. *)

(** {2 Metered attempts} *)

val write : ?attempt:int -> 'a t -> int -> 'a array -> unit
(** [write dev id payload] stores [payload] (length <= B) in block [id] and
    costs one I/O.  The payload is copied, so later mutation of the argument
    does not affect the device.  [attempt] > 1 marks (and meters) the I/O as
    a recovery retry.
    @raise Em_error.Payload_overflow if the payload exceeds the block size.
    @raise Em_error.Error on an injected fault (transient/permanent write
    errors, crash); torn writes and bit corruption return normally. *)

val read : ?attempt:int -> 'a t -> int -> 'a array
(** [read dev id] costs one I/O and returns a copy of the block contents.
    @raise Em_error.Never_written if the block holds no data.
    @raise Em_error.Error on an injected fault; read-side bit corruption
    instead returns a garbled copy (the stored data stays intact). *)

val live_blocks : 'a t -> int
(** Number of blocks currently allocated and not freed. *)

val disk_of_block : 'a t -> int -> int
(** Disk that (the physical slot behind) logical block [id] is striped onto:
    [phys id mod D].  Always [0] on a single-disk machine. *)

(** Unmetered block access for the parts of an experiment that are outside
    the measured computation: placing the input on disk, and reading results
    back for oracle verification.  Calls here cost no simulated I/O, are not
    traced, never fault, and must never appear inside an algorithm under
    measurement — which is why reaching them requires naming [Oracle]. *)
module Oracle : sig
  val read : 'a t -> int -> 'a array
  (** Zero-cost block read for test set-up and verification only. *)

  val write : 'a t -> int -> 'a array -> unit
  (** Zero-cost block write for test set-up only (placing the input on disk
      is not part of an algorithm's cost). *)
end
