(** Optimal multi-selection (Section 4.2 / Theorem 4 of the paper):
    report the elements of [K] given ranks in
    [O((N/B) lg_{M/B} (K/B))] I/Os.

    Structure (the base case follows the paper; the general case counts
    where the paper multi-partitions at every [m]-th rank):

    - {b Base case} [K <= m = Θ(M)]: find [Θ(M)] splitters of [S] in linear
      I/Os, so that every rank falls into a bucket of known first rank.
      This stands in for Hu et al. [6]: {!Emalg.Sample_splitters.find_tagging}
      at [k = max_k] gives buckets of at most [gap_bound] elements, and one
      counting scan turns the bucket sizes into prefix sums.  Then build one
      instance of {!Intermixed} selection with one group per requested rank
      (an element joins group [i] if it lies in the bucket containing rank
      [r_i]; only the buckets holding a rank are searched) and a re-based
      target per group; solve it in [O(|D|/B) = O(N/B)] I/Os.  The whole
      base case is [O(N/B)] I/Os at every [N].
    - {b General case} [K > m]: an input of at most [big_load] elements is
      sorted in memory, and one that sorts in a single merge pass (at most
      one [big_load]-element run per reader buffer the free words hold, so
      [N] up to about [M^2/B]) is sorted into runs and merged once, the
      answers taken as the merge passes them: three scans, below what any
      sampling pass plus counting and distribution scans can cost.  Above
      that, the same sample and counting scan as the base case (the
      splitter count drops below [max_k] when fewer words are free), then
      one pass over the ranks finds the target buckets (those holding a
      rank) and groups consecutive ones greedily while a group holds at
      most [big_load] elements.  One scan distributes only the target
      buckets' elements into their groups; with more groups than the free
      words give writers, it writes runs of consecutive groups and
      redistributes each run by the same counts, without comparisons.  A
      group of at most [big_load] elements is sorted in memory, a larger
      one (a single bucket) with at most [m] ranks is one base case, and
      only a single bucket with more of both recurses (a one-merge sort or
      a fresh sample).  The splitters and prefix sums are released before
      any group is answered.

      Why the bound holds (outline): the one-merge sort is three scans, and
      the sample and the counting scan are linear.  Each distribution level has fan-out [Θ(M/B)] over at most
      [min(K, k) = O(M)] groups, so a call moves its kept elements
      [O(1 + lg_{M/B} min(K, M))] times, which is [O(lg_{M/B} (K/B))]
      (that lg is floored at 1) when [M >= B^2].  Fresh recursions run only
      on single buckets of at most [gap_bound N k] elements (a [Θ(M)]-th of
      [N] up to the sampler's logarithmic slack) that hold more than
      [m = Θ(M)] ranks: at most [K/m] of them per level, so the elements in
      play shrink geometrically once the depth passes [lg_M (K/m)], and the
      levels together cost [O((N/B) lg_{M/B} (K/B))].  Buckets without a
      rank are dropped after the first scan, so the cost follows the gaps
      between ranks rather than [K].

    Ranks stream from disk and results stream to disk, so [K] may exceed the
    memory budget.  Duplicate keys resolve positionally (stable). *)

val batch_size : 'a Em.Ctx.t -> int
(** The base-case capacity [m = Θ(M)] (bounded by {!Intermixed.max_groups}). *)

val base_case : ('a -> 'a -> int) -> 'a Em.Vec.t -> int array -> 'a array
(** The base case alone: at most {!batch_size} ranks, given in memory,
    strictly increasing and within [1 .. length v] (not checked).  Returns
    the selected elements in rank order; the input is preserved. *)

val select_vec :
  ('a -> 'a -> int) -> 'a Em.Vec.t -> ranks:int Em.Vec.t -> 'a Em.Vec.t
(** [select_vec cmp v ~ranks] with ranks strictly increasing in
    [1 .. length v] returns the selected elements in rank order.  Input and
    ranks are preserved.
    @raise Invalid_argument on malformed ranks. *)

val select : ('a -> 'a -> int) -> 'a Em.Vec.t -> ranks:int array -> 'a array
(** Convenience wrapper over {!select_vec} (spills the ranks, loads the
    result; the extra [2 * ceil(K/B)] I/Os are on the caller). *)

(** {2 The general case in phases}

    {!select_vec}'s general case is a distribution followed by one answer
    per group; {!Restartable} checkpoints between them. *)

type 'a group = { part : ('a * int) Em.Vec.t; ranks : int Em.Vec.t }
(** One group of consecutive target buckets: their elements as (element,
    target index) pairs in input order, and the group's ranks re-based to
    its (key, position) order. *)

val groups : ('a -> 'a -> int) -> 'a Em.Vec.t -> ranks:int Em.Vec.t -> 'a group array option
(** The distribution (sample, counting scan, rank routing, one scan of the
    target buckets) for more than {!batch_size} validated ranks; the groups
    are in rank order.  [None] when the general case sorts [v] instead (it
    fits in memory or sorts in one merge pass).  Input and ranks are
    preserved. *)

val answer : ('a -> 'a -> int) -> 'a group -> ('a -> unit) -> unit
(** Emit one group's answers in rank order (the group is preserved). *)

val free_group : 'a group -> unit
