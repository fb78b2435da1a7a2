(** Optimal multi-selection (Section 4.2 / Theorem 4 of the paper):
    report the elements of [K] given ranks in
    [O((N/B) lg_{M/B} (K/B))] I/Os.

    Structure, following the paper exactly:

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
    - {b General case} [K > m]: multi-partition [S] at the ranks
      [r_m, r_2m, ...] ([O((N/B) lg_{M/B} (K/B))] I/Os via
      {!Multi_partition}), then run the base case inside each partition with
      its [<= m] re-based ranks.

    Ranks stream from disk and results stream to disk, so [K] may exceed the
    memory budget.  Duplicate keys resolve positionally (stable). *)

val batch_size : 'a Em.Ctx.t -> int
(** The base-case capacity [m = Θ(M)] (bounded by {!Intermixed.max_groups}). *)

val select_vec :
  ('a -> 'a -> int) -> 'a Em.Vec.t -> ranks:int Em.Vec.t -> 'a Em.Vec.t
(** [select_vec cmp v ~ranks] with ranks strictly increasing in
    [1 .. length v] returns the selected elements in rank order.  Input and
    ranks are preserved.
    @raise Invalid_argument on malformed ranks. *)

val select : ('a -> 'a -> int) -> 'a Em.Vec.t -> ranks:int array -> 'a array
(** Convenience wrapper over {!select_vec} (spills the ranks, loads the
    result; the extra [2 * ceil(K/B)] I/Os are on the caller). *)
