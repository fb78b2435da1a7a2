(** In-memory sorting with an explicit comparator.

    Sorting an array the caller already holds in (charged) memory is free in
    the EM model apart from the comparisons, which the caller makes visible by
    passing a counted comparator (see {!Em.Ctx.counted}). *)

val sort : ('a -> 'a -> int) -> 'a array -> unit
(** Stable in-place sort. *)

val is_sorted : ('a -> 'a -> int) -> 'a array -> bool

val quantile_splitters : ('a -> 'a -> int) -> 'a array -> k:int -> 'a array
(** [quantile_splitters cmp a ~k] sorts [a] in place and returns the [k - 1]
    exact (1/k)-quantile elements: splitter [i] (1-based) is the element of
    rank [ceil (i * n / k)].
    @raise Invalid_argument unless [1 <= k <= Array.length a]. *)
