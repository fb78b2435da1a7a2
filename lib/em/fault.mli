(** Deterministic, reproducible fault plans for the simulated device.

    A {!plan} is consulted by {!Device} once per {e metered} I/O attempt (the
    injector hook); it decides whether that attempt suffers a typed fault and
    of which {!kind}.  Plans are stateful — they carry a private seeded PRNG
    and an I/O counter — so a given plan replays the exact same fault
    schedule for the same sequence of I/Os, independent of wall clock or the
    global [Random] state.  Unmetered {!Device.Oracle} accesses never consult
    the plan: faults are a property of the simulated disk traffic, not of
    test set-up or verification.

    Fault taxonomy:

    - {e transient} read/write errors fail the one attempt they are injected
      into; a retry of the same block may succeed;
    - {e permanent} read/write errors mark the physical block sticky-bad in
      the device: every later attempt on it fails too (recovery requires
      quarantine + remap, see {!Resilient});
    - {e torn writes} silently store only a prefix of the payload (the I/O
      "succeeds"); detected later by checksum verification on read;
    - {e bit corruption} silently corrupts data — on a write the stored
      payload, on a read just the returned copy (the store stays intact, so
      a verified re-read recovers);
    - {e crash} aborts the whole computation as {!Em_error.Crashed};
      restartable drivers ({!Emalg.Restart}) resume from their last
      checkpoint. *)

type op = [ `Read | `Write ]

type kind =
  | Transient_read
  | Permanent_read
  | Transient_write
  | Permanent_write
  | Torn_write
  | Bit_corruption
  | Crash

val kind_name : kind -> string

val applies : kind -> op -> bool
(** Whether a fault kind can afflict the given operation (e.g.
    [Transient_read] only applies to reads; [Bit_corruption] and [Crash]
    apply to both). *)

val is_permanent : kind -> bool
val is_silent : kind -> bool
(** Silent faults corrupt data without failing the I/O. *)

(** The seeded generator probabilistic plans draw from (exposed for tests
    that need to predict a schedule). *)
module Rng = Splitmix

type plan

val decide : plan -> op:op -> block:int -> phase:string list -> kind option
(** Called by {!Device} for every metered attempt.  Advances the plan's I/O
    counter even when no fault fires. *)

val seen : plan -> int
(** Metered I/O attempts presented to this plan so far. *)

val never : plan

val every_nth : ?offset:int -> n:int -> kind -> plan
(** Fault the [n]-th, [2n]-th, ... I/O (1-based, shifted by [offset]) when
    the kind applies to that operation. *)

val seeded : seed:int -> p:float -> kind list -> plan
(** Fault each I/O independently with probability [p]; when firing, pick
    uniformly among the kinds applicable to the operation.  One uniform draw
    per I/O, so the fault positions depend only on [seed] and [p]. *)

val on_blocks : int list -> kind -> plan
(** Fault every applicable access to the listed (physical) block ids. *)

val in_phase : string -> plan -> plan
(** Restrict a plan to I/Os whose phase path contains the label. *)

val on_op : op -> plan -> plan

val limit : int -> plan -> plan
(** Let the inner plan fire at most [k] times. *)

val crash_after_ios : int -> plan
(** Crash on the [n]-th I/O presented to this plan, exactly once. *)

val crash_at : int list -> plan
(** Crash at each listed 1-based I/O index (at most once per index; indices
    already passed when the plan is installed fire on the next I/O). *)

val any : plan list -> plan
(** First sub-plan that fires wins.  Sub-plans keep their own counters and
    PRNG state; each sees every I/O up to the one that fires. *)
