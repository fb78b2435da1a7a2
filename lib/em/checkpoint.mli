(** A reliable single-slot checkpoint store for restartable drivers.

    Models a fixed checkpoint region of the disk, {e outside} the faulted
    device: the fault injector never touches it, and — unlike RAM — its
    contents survive a {!Em_error.Crashed} crash.  Durability is not free:
    {!save} charges [ceil(words/B)] metered writes under a ["checkpoint"]
    phase label, {!load} the same number of reads under ["resume"], where
    [words] is the caller-declared serialized size of the state.  The
    region's blocks stripe over the machine's D disks and go through the
    same ledger update as device I/Os ({!Stats.record_io}), so they count
    rounds like any other I/O.  Trace
    events for the region carry negative block ids, so it stays visibly
    disjoint from the data device's id space.

    Drivers keep {e handles} (block ids of already-written runs, counters,
    offsets) in their checkpoint state — never bulk data, whose cost is
    already paid on the data device. *)

type 's t

val create : 'a Ctx.t -> 's t
(** An empty store charging its I/O to the machine's meters. *)

val save : 's t -> words:int -> 's -> unit
(** Overwrite the slot; costs [ceil(words/B)] writes (at least one). *)

val install : 's t -> words:int -> 's -> unit
(** Seed the slot without charging any I/O.  Models state that is {e already
    present} in the checkpoint region when the process starts — e.g. a serve
    session resuming from a state file written by a previous incarnation.
    The subsequent {!load} still pays its [ceil(words/B)] resume reads; only
    the historical save cost (paid by the process that died) is elided. *)

val load : 's t -> 's option
(** The last saved state, charging [ceil(words/B)] reads (at least one);
    [None] — and no charge — if nothing was ever saved. *)

val saves : 's t -> int
val loads : 's t -> int

val save_ios : 's t -> int
(** Total writes charged by {!save} so far. *)

val load_ios : 's t -> int
