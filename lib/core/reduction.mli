(** The constructive reductions of Section 3 and Lemma 5.

    The paper's approximate-K-partitioning lower bound (Theorem 3) is proved
    by two executable reductions, both implemented here:

    - {b Section 3}: precise [(N/b)]-partitioning reduces to left-grounded
      approximate K-partitioning: solve the approximate problem with upper
      bound [b], then stream the partitions through a buffer [R], cutting
      off exactly [b] elements whenever [R] overflows — an [O(N/B)]
      post-pass.
    - {b Lemma 5} (the [K > N/B] case): sorting reduces to precise
      K-partitioning with [N/K <= B]: partition, then sort each tiny
      partition in memory.

    Running these reductions end-to-end is both a correctness exercise for
    the algorithms they compose and a concrete demonstration of why the
    lower bound transfers. *)

val precise_by_approximate :
  ('a -> 'a -> int) -> 'a Em.Vec.t -> chunk:int -> 'a Em.Vec.t array
(** [precise_by_approximate cmp v ~chunk] divides [v] into partitions of
    exactly [chunk] elements (the last may be smaller when [chunk] does not
    divide the length), in order, using the Section 3 reduction on top of
    left-grounded {!Partitioning.solve} ([a = 0], [b = chunk]).  The input
    is preserved.
    @raise Invalid_argument if [chunk < 1]. *)

val sort_by_partitioning :
  ('a -> 'a -> int) -> 'a Em.Vec.t -> 'a Em.Vec.t
(** [sort_by_partitioning cmp v] sorts [v] by precise partitioning into
    chunks of at most [B] elements followed by in-memory sorting of each
    chunk — the Lemma 5 reduction showing that precise K-partitioning at
    [K >= N/B] is as hard as sorting.  The input is preserved. *)
