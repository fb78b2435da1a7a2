(** The approximate K-partitioning problem (Section 5.2 / Theorem 6):
    physically divide [S] into [K] ordered partitions whose sizes all lie in
    [[a, b]].

    The partition sizes are the spec's {!Problem.cut} plan; the paper's
    algorithms, per regime:

    - {b right-grounded} ([b = N]): cut off the [a(K-1)] smallest elements
      (exact external selection, [O(N/B)]) and multi-partition them into
      [K - 1] parts of exactly [a]; everything else is the last partition —
      [O(N/B + (aK/B) lg_{M/B} min(K, aK/B))] I/Os;
    - {b left-grounded} ([a = 0]): multi-partition at ranks [ib] for
      [i < K' = ceil(N/b)] and append [K - K'] empty partitions —
      [O((N/B) lg_{M/B} min(N/b, N/B))] I/Os;
    - {b two-sided}: one multi-partition at the same [K'] cut ranks as the
      splitters algorithm.

    Partitions come back as an array of vectors in order; empty partitions
    are empty vectors. *)

val solve :
  ('a -> 'a -> int) -> 'a Em.Vec.t -> Problem.spec -> 'a Em.Vec.t array
(** Partition by the spec's plan; input preserved.
    @raise Invalid_argument if the spec is invalid or does not match the
    input length. *)

type 'a packed = {
  data : 'a Em.Vec.t;  (** all partitions, in order, sharing blocks *)
  sizes : int array;  (** the K partition sizes, in order *)
}
(** The paper's output format: "output P1, ..., PK in a linked list, where
    the elements of P1 precede those of P2, ...".  Partitions share blocks,
    so no per-partition partial block is paid — required to meet the
    Theorem 6 bounds when [a < B] and [K] is large. *)

val solve_packed :
  ('a -> 'a -> int) -> 'a Em.Vec.t -> Problem.spec -> 'a packed
(** Same algorithms as {!solve}, with the linked-list output format. *)
