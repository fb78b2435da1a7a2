(** The approximate K-splitters problem (Section 5.1 / Theorem 5): find
    [K - 1] elements of [S] such that every induced partition
    [S ∩ (s_{i-1}, s_i]] has between [a] and [b] elements.

    Every regime selects the elements at the cut ranks of its
    {!Problem.cut} plan, with the paper's optimal algorithm:

    - {b right-grounded} ([b = N]): take [aK] arbitrary elements [S'] (we
      take the first [aK]) and select ranks [ia] of [S'] via
      multi-selection — [O((1 + aK/B) lg_{M/B} (K/B))] I/Os, {e sublinear}
      when [aK] is small;
    - {b left-grounded} ([a = 0]): select ranks [ib] for [i < K' = ceil(N/b)]
      via multi-selection ([O((N/B) lg_{M/B} (N/(bB)))] I/Os), then pad with
      [K - K'] arbitrary other elements (found by a position-merge scan, so
      padding never costs more than a sort of [K'] integers plus one scan);
    - {b two-sided}: the same [K' = (bK - N) / (b - a)] cut ranks as §5.1 —
      [ia] for [i <= K'], then the remaining [N - aK'] elements cut evenly
      (plain [1/K]-quantiles when [a >= N/2K] or [b <= 2N/K]) — with one
      multi-selection call over all [K - 1] of them.

    Splitters are returned as a vector (so [K] may exceed memory), in no
    particular order (the problem statement allows any order). *)

val solve :
  ('a -> 'a -> int) -> 'a Em.Vec.t -> Problem.spec -> 'a Em.Vec.t
(** Select at the spec's {!Problem.cut} plan.  The input is preserved.
    @raise Invalid_argument if the spec is invalid or does not match the
    input length. *)

val exact_quantiles : ('a -> 'a -> int) -> 'a Em.Vec.t -> k:int -> 'a Em.Vec.t
(** [exact_quantiles cmp v ~k] returns the exact (1/k)-quantile elements of
    [v] (ranks [ceil (i*n/k)]) via multi-selection — the equi-depth
    histogram boundaries from the paper's introduction, as a public
    convenience, computed by {!Multi_select.select_vec}. *)

val quantile_ranks : n:int -> k:int -> int array
(** The even cut ranks [ceil (i * n / k)] for [i = 1 .. k-1] — the
    [1/K]-quantile rank plan used by the shortcuts and baselines. *)
