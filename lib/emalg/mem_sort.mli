(** In-memory sorting with an explicit comparator.

    Sorting an array the caller already holds in (charged) memory is free in
    the EM model apart from the comparisons, which the caller makes visible by
    passing a counted comparator (see {!Em.Ctx.counted}). *)

val sort : ('a -> 'a -> int) -> 'a array -> unit
(** Stable in-place sort: [Array.stable_sort], whatever the comparator. *)

val sort_on : 'a Em.Ctx.t -> ('a -> 'a -> int) -> 'a array -> unit
(** [sort_on ctx cmp a] is [sort cmp a] for an array held on machine [ctx].
    When [cmp] is the machine's counted [Int.compare] (see
    {!Em.Ctx.int_keys}) it runs the same algorithm on ints with the
    comparison inline: the output and the counted comparisons are those of
    [sort cmp a]. *)

val is_sorted : ('a -> 'a -> int) -> 'a array -> bool

val quantile_splitters :
  ?ctx:'a Em.Ctx.t -> ('a -> 'a -> int) -> 'a array -> k:int -> 'a array
(** [quantile_splitters cmp a ~k] sorts [a] in place ({!sort_on} when [ctx]
    is given, else {!sort}) and returns the [k - 1] exact (1/k)-quantile
    elements: splitter [i] (1-based) is the element of rank
    [ceil (i * n / k)].
    @raise Invalid_argument unless [1 <= k <= Array.length a]. *)
