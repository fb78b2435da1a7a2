(** Crash-restartable algorithm drivers.

    A {!Fault.Crash} fault aborts a computation as {!Em_error.Crashed} and
    (conceptually) wipes RAM.  The generic {!drive} harness makes an
    algorithm survive this by structuring it as a state machine whose states
    are cheap, disk-handle-only values: after every completed step the state
    is persisted to a reliable {!Em.Checkpoint} slot, and on a crash the
    driver reloads the last slot and resumes — paying the checkpoint writes,
    the resume reads, and the partial work of the interrupted step, but
    never the work of completed steps.

    With [k] crashes the total I/O is therefore bounded by the crash-free
    cost plus the checkpoint overhead plus [k] times (one step's worth of
    I/O + one resume); the property tests assert exactly this bound.

    The restartable external sort is {!External_sort.restartable} (the plain
    sort's own steps: one formed run / one merged group per step).  The
    restartable multi-selection lives in [Core.Restartable], which layers on
    the algorithms of [lib/core]. *)

type ('s, 'r) step = Next of 's | Done of 'r

type 'r outcome = {
  result : ('r, Em.Em_error.t) result;
      (** [Ok] on success; [Error] for non-crash failures (retry exhaustion,
          corruption) or when [max_restarts] crashes were exceeded. *)
  restarts : int;  (** crashes survived *)
  saves : int;  (** checkpoint saves (one per completed step, plus init) *)
  loads : int;  (** checkpoint loads (one per restart) *)
  save_ios : int;  (** metered writes spent on checkpoints *)
  load_ios : int;  (** metered reads spent on resume *)
  max_step_ios : int;  (** largest I/O cost observed for a single step *)
}

val drive :
  'a Em.Ctx.t ->
  ?max_restarts:int ->
  init:'s ->
  words:('s -> int) ->
  step:('s -> ('s, 'r) step) ->
  unit ->
  'r outcome
(** Run the state machine to completion under crashes.  [words state] is the
    serialized size of [state] in words — checkpoint saves charge
    [ceil(words/B)] writes.  [step] must be {e restartable}: executing it
    again from the same state after a partial, crashed execution must be
    correct (all our steps only read checkpointed inputs and hand off
    freshly written blocks, so re-execution at worst re-does one step's
    I/O).  [max_restarts] (default 100) bounds how many crashes are survived
    before giving up with the crash as [Error].  Must bracket the whole
    computation: on a crash the driver wipes the memory ledger
    ({!Em.Stats.wipe_memory}), which assumes no live buffers outside the
    driver. *)
