(** Crash-restartable multi-selection (Theorem 4 under a crash-fault model).

    Layers {!Multi_select} on the generic {!Emalg.Restart.drive} harness:
    the general case's distribution ({!Multi_select.groups}) is one
    checkpointed step, each group's answer ({!Multi_select.answer}) is
    another, and a group's answers are spilled to disk so the checkpoint
    state holds only block handles.  Inputs that fit in memory and rank
    sets of at most [m] run as one step.  With [k] crashes the
    total I/O stays within the crash-free cost plus checkpoint overhead plus
    [k] times (one step + one resume); the output is identical to
    {!Multi_select.select}. *)

type ('s, 'r) step_kind = ('s, 'r) Emalg.Restart.step = Next of 's | Done of 'r

val select :
  ?max_restarts:int ->
  ('a -> 'a -> int) ->
  'a Em.Vec.t ->
  ranks:int array ->
  'a array Emalg.Restart.outcome
(** Ranks must be strictly increasing in [1 .. length v] (checked up front,
    raising [Invalid_argument]).  The input vector is consumed only on
    success paths of intermediate partitions; the original [v] is preserved.
    See {!Emalg.Restart.drive} for [max_restarts] and the outcome record. *)
