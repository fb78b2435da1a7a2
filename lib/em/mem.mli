(** Memory-budget ledger.

    Every in-memory buffer an algorithm holds must be charged here.  The
    ledger raises {!Memory_exceeded} as soon as the total exceeds the machine
    parameter [M], which turns memory-budget violations into immediate test
    failures rather than silent modelling errors.

    Resident buffer-pool pages (see {!Backend.Pool}) occupy the same [M]
    words but are ledgered separately in {!Stats.t.pool_words}: the capacity
    check and [mem_peak] cover [mem_in_use + pool_words], while the
    drained-ledger invariant ([mem_in_use = 0] after an algorithm returns)
    stays meaningful with a warm cache. *)

exception Memory_exceeded of { requested : int; in_use : int; capacity : int }

val charge : Params.t -> Stats.t -> int -> unit
(** [charge p s n] records [n] more words in use.  Under pressure, the
    {!Stats.add_reclaimer} callbacks (write-behind queues, then the buffer
    pool) are asked to give words back before the verdict.
    @raise Memory_exceeded if the budget [p.mem] would be exceeded. *)

val release : Params.t -> Stats.t -> int -> unit
(** [release p s n] returns [n] words.
    @raise Em_error.Over_release if more words are released than are in use.
    @raise Em_error.Negative_words on a negative count (as does {!charge}). *)

val with_words : Params.t -> Stats.t -> int -> (unit -> 'a) -> 'a
(** [with_words p s n f] charges [n] words around the call to [f], releasing
    them even if [f] raises. *)

val charge_pool : Params.t -> Stats.t -> int -> unit
(** Like {!charge} but against {!Stats.t.pool_words}.  Only {!Backend.Pool}
    calls this. *)

val release_pool : Params.t -> Stats.t -> int -> unit
