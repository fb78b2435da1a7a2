(** Exact external-memory selection of a single rank in [O(N/B)] I/Os.

    The algorithm samples [Θ(min(M/8, 2N/M))] approximate pivots with
    {!Sample_splitters} (inline-tagged, so duplicate keys are handled
    positionally), counts the induced bucket sizes in one pass, extracts
    only the bucket containing the target rank in one more pass, and
    recurses on it — roughly 3.5 scans in total, geometric recursion.  In
    degenerate geometries where the sampling bound cannot certify progress
    it falls back to the classic median-of-load-medians pivot. *)

val select : ('a -> 'a -> int) -> 'a Em.Vec.t -> rank:int -> 'a
(** [select cmp v ~rank] returns the element of the given 1-based rank
    (positional under duplicates: the value at that sorted position with
    stable tie-breaking).  The input vector is preserved; all intermediates
    are freed.
    @raise Invalid_argument unless [1 <= rank <= length v]. *)

val select_tagged : ('a -> 'a -> int) -> 'a Em.Vec.t -> rank:int -> 'a * int
(** Like {!select} but also reports the input position of the selected
    occurrence, so callers can split exactly at the rank under duplicates. *)

val split_at : ('a -> 'a -> int) -> 'a Em.Vec.t -> rank:int -> 'a Em.Vec.t * 'a Em.Vec.t
(** [split_at cmp v ~rank] returns [(low, high)] where [low] holds exactly
    [rank] elements and every one is [<=] every element of [high].
    Duplicate keys straddling the cut are routed by input position
    (stable).  [O(N/B)] I/Os; the input is preserved. *)
