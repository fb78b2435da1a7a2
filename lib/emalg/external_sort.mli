(** External merge sort: run formation followed by multiway merge passes.
    This is the classic [O((N/B) lg_{M/B} (N/B))] algorithm of Aggarwal and
    Vitter, used here both as a baseline and as a substrate.  The sort is
    {e stable}: run formation uses a stable in-memory sort, runs are merged
    in input order, and the merge breaks ties by run index.

    The sort is one step function: each formed run (a whole-block window of
    the input, sorted in one memory load) is one step, and each merge group
    of a pass (balanced: [ceil(runs/groups)] runs per group) is one step.
    {!sort} runs the steps back to back; {!restartable} runs the same steps
    under {!Restart.drive}, so without crashes it makes exactly the plain
    sort's reads and comparisons. *)

val run_formation : ('a -> 'a -> int) -> 'a Em.Vec.t -> 'a Em.Vec.t list
(** Split the input into memory loads, sort each, and write it back as a
    sorted run.  Linear I/O.  The input is not freed. *)

val sort : ('a -> 'a -> int) -> 'a Em.Vec.t -> 'a Em.Vec.t
(** Fully sort the vector (input not freed).  Intermediate runs are freed. *)

val restartable :
  ?max_restarts:int -> ('a -> 'a -> int) -> 'a Em.Vec.t -> 'a Em.Vec.t Restart.outcome
(** {!sort} under crashes: each step is checkpointed (its state holds only
    run handles, a few words per run), so a crash re-does at most the
    interrupted step.  Without crashes its writes are {!sort}'s plus the
    outcome's [save_ios].  The input vector is not consumed. *)

val merge_passes : ('a -> 'a -> int) -> 'a Em.Vec.t list -> 'a Em.Vec.t
(** Repeatedly merge up to [Merge.max_fanout] runs until one remains.  The
    given runs are consumed (freed), except when a single run is passed,
    which is returned as-is. *)
