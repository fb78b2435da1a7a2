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

val one_merge : 'a Em.Ctx.t -> int -> bool
(** [one_merge ctx n]: whether [n] elements, formed into runs of
    [Layout.big_load] elements, merge in one pass with the memory free now,
    keeping one block buffer spare for a stream the caller opens beside the
    merge.  An output writer the caller holds must already be open. *)

val with_sorted :
  ('a -> 'a -> int) -> 'a Em.Vec.t -> ((('a -> unit) -> unit) -> 'b) -> 'b
(** [with_sorted cmp v f] sorts [v] into runs of [Layout.big_load]
    elements (phase ["run-formation"]) and calls [f merged], where
    [merged emit] merges the runs once (phase ["merge"]), passing every
    element to [emit] in order.  When {!one_merge} holds for [length v] that
    is two scans to form the runs and one to merge them; otherwise balanced
    merge passes first cut the runs to the fan-in the memory free on entry
    allows, beside one stream the caller opens.  Stable: ties keep input
    order.  The runs are freed when [f] returns or raises; the input is not
    freed. *)
