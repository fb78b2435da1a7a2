(** Multiway merge of sorted external vectors.

    The merge is a tournament tree of losers over the runs: each internal
    node keeps the run that lost the match there, and the winner's run
    replays its leaf-to-root path with its next element.  A merge of [k]
    runs therefore makes at most [ceil (lg k)] comparisons per element, plus
    [k - 1] to seed the tree, and allocates nothing per element. *)

val max_fanout : 'a Em.Ctx.t -> int
(** The largest number of runs that can be merged at once: each run needs one
    reader buffer ([B] words) and two words (its head key and its tree
    slot), plus one writer buffer: [(M - B) / (B + 2)]. *)

val merge : ('a -> 'a -> int) -> 'a Em.Vec.t list -> 'a Em.Vec.t
(** Merge sorted vectors into one sorted vector on the same context.  Equal
    keys are emitted in run order, so a merge of runs formed left-to-right
    from a stable run formation is itself stable.  Inputs are {e not} freed.
    Cost: one read per input block, one write per output block.
    @raise Invalid_argument if the list is empty or exceeds [max_fanout]. *)

val iter : ('a -> 'a -> int) -> 'a Em.Vec.t list -> ('a -> unit) -> unit
(** [iter cmp vecs f] is {!merge} without the output vector: [f] receives
    the merged elements in order.  Cost: one read per input block.  The
    [max_fanout] limit counts a writer buffer the caller may hold. *)
