(** The multi-partition problem (Aggarwal–Vitter [1], reviewed in the paper's
    Section 1.2): physically divide [S] into partitions of {e prescribed}
    sizes, respecting the value order, in [O((N/B) lg_{M/B} K)] I/Os.

    The cut positions ("bounds") are given as a stream of strictly
    increasing cumulative ranks so that [K] may exceed the memory budget.
    An input that fits in memory is sorted and cut there.  One that sorts
    in a single merge pass ({!Emalg.External_sort.one_merge}: [N] up to
    about [M²/B]), or whose parts outnumber the writers one distribution
    pass can hold, is sorted and cut as its last merge passes each bound.
    Otherwise one counting step places every bound: approximate splitters
    of the (key, position) order ({!Emalg.Sample_splitters.find_tagging}),
    one scan counting every bucket, and one distribution that writes each
    part's whole buckets to a vector of its own and the buckets a bound
    cuts to one boundary vector, which is sorted and cut.  Ties keep input
    order on every route.

    Output partitions are materialised one writer at a time (in order),
    costing up to one partial block per partition on top of the [2N/B]
    output I/Os — the in-memory equivalent of the paper's linked-list
    output format. *)

val partition :
  ('a -> 'a -> int) -> 'a Em.Vec.t -> bounds:int Em.Vec.t -> 'a Em.Vec.t array
(** [partition cmp v ~bounds] with bounds strictly increasing in
    [1 .. length v - 1] returns [length bounds + 1] non-empty partitions
    whose sizes are the bound differences.  The input is preserved.
    @raise Invalid_argument on malformed bounds. *)

val partition_packed_into :
  ('a -> 'a -> int) -> 'a Em.Vec.t -> bounds:int Em.Vec.t -> 'a Em.Writer.t -> unit
(** Like {!partition} but streams all partitions, in order, into the given
    open writer — the paper's linked-list output format, in which partitions
    share blocks.  The cut positions are exactly [bounds], so no partial
    blocks are paid per partition; this is what meets the
    [O((N/B) lg_{M/B} K)] bound when partition sizes are below [B]. *)

val partition_sizes :
  ('a -> 'a -> int) -> 'a Em.Vec.t -> sizes:int array -> 'a Em.Vec.t array
(** Convenience wrapper taking the partition sizes (all [>= 1], summing to
    the input length) in memory. *)

val bounds_of_sizes : int Em.Ctx.t -> int array -> int Em.Vec.t
(** Spill cumulative bounds for [sizes] to an (int) context, paying the
    write I/Os. *)
