(** One-pass distribution of a vector into value buckets — the write half of
    distribution sort, used by multi-selection, multi-partition and online
    sessions.

    Convention (shared by the whole library): in-memory {e arguments} and
    {e results} (such as the pivot array) are charged by the caller; the
    function charges its own stream buffers. *)

val bucket_index : ('a -> 'a -> int) -> 'a array -> 'a -> int
(** [bucket_index cmp pivots e] is the least [i] with [e <= pivots.(i)], or
    [Array.length pivots] when [e] is greater than every pivot (binary
    search; pivots must be sorted). *)

val bucket_starts :
  ('a * int -> 'a * int -> int) -> ('a * int) array -> 'a Em.Vec.t -> int array
(** The counting scan (phase ["bucket-count"]): prefix sums [start] over the
    buckets of the sorted tagged splitters, so bucket [j] holds the
    positional ranks [start.(j) + 1 .. start.(j+1)] of [v]. *)

val pass : 'a Em.Ctx.t -> nwriters:int -> ((int -> 'a -> unit) -> unit) -> 'a Em.Vec.t array
(** [pass ctx ~nwriters iter]: one pass (phase ["distribute"]) in which
    [iter push] writes [x] to vector [w] by [push w x]; on an exception
    every vector it wrote is freed. *)

val max_fanout : 'a Em.Ctx.t -> int
(** Largest number of output buckets: one writer buffer per bucket plus one
    reader buffer and one word per pivot: [(M - B) / (B + 1)]. *)

val three_way :
  ('a -> 'a -> int) ->
  'a Em.Vec.t ->
  pivot:'a ->
  'a Em.Vec.t * int * 'a Em.Vec.t
(** [three_way cmp v ~pivot] returns [(less, equal_count, greater)]: the
    elements strictly below the pivot, the number equal to it, and the
    elements strictly above.  Equal elements are counted, not stored (their
    value is the pivot itself).  Used by external selection. *)
