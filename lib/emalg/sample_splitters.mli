(** Linear-I/O approximate splitters by recursive sub-sampling.

    [find cmp v ~k] returns [k - 1] elements of [v] such that every induced
    bucket [S ∩ (s_{i-1}, s_i]] contains at most [gap_bound ~n ~k] elements.
    The method is the classic distribution-sort pivot recursion: sort each
    memory load, keep every [rate]-th element, and recurse on the sample,
    giving [O(N/B)] I/Os in total (the sample shrinks geometrically).

    Guarantee (for pairwise-distinct elements): writing [S(x)] for the number
    of input elements [<= x], [R(x)] for sample elements [<= x], [r] for the
    rate and [g] for the number of loads, each load contributes at most
    [r - 1] unsampled elements below any value, so
    [r*R(x) <= S(x) <= r*R(x) + g*(r-1)].  Unrolling over the recursion depth
    yields the bound computed by {!gap_bound}.  With duplicate keys the bound
    can fail (all copies of one value land in one bucket); callers that need
    the guarantee must first make keys distinct, e.g. by tagging with the
    element's position (see {!Core.Multi_partition}). *)

val default_rate : int

val max_k : ?rate:int -> 'a Em.Ctx.t -> int
(** The largest supported splitter count for this machine geometry (the
    recursion's base case must still hold at least [k] elements). *)

val find :
  ?rate:int -> ('a -> 'a -> int) -> 'a Em.Vec.t -> k:int -> 'a array
(** @raise Invalid_argument if [k < 1], [k > length v], or [rate < 2].
    Returns a sorted array of [k - 1] elements of [v].  The result array
    ([k - 1] words) is charged to the caller. *)

val find_tagging :
  ?rate:int -> ('a -> 'a -> int) -> 'a Em.Vec.t -> k:int -> ('a * int) array
(** Like {!find} on the virtual vector of (key, position) pairs, without ever
    materialising that vector: the first sampling level tags in memory, load
    by load.  Because keys become pairwise distinct, the {!gap_bound}
    guarantee holds for {e any} input, including heavy duplicates, with gaps
    measured in positional ranks. *)

val find_random :
  rng:(int -> int) ->
  ?oversample:int ->
  ('a -> 'a -> int) ->
  'a Em.Vec.t ->
  k:int ->
  'a array
(** Extension beyond the paper: randomized pivots by reservoir sampling.
    One read scan collects a uniform sample of [min(half-load,
    oversample * k * ceil(ln k))] elements ([oversample] defaults to 8),
    whose exact quantiles are returned.  With high probability every bucket
    is [O((n/k) log k)]; there is {e no} deterministic guarantee (compare
    the RAND ablation in the benches).  [rng bound] must return a uniform
    integer in [[0, bound)]. *)

val gap_bound : ?rate:int -> Em.Params.t -> n:int -> k:int -> int
(** Upper bound on the size of any bucket induced by [find]'s result on any
    input of [n] distinct elements. *)
