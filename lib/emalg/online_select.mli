(** Online multiselection sessions: deferred sorting under a query stream.

    A session wraps an on-device vector in a {e pivot-interval tree} whose
    leaves are contiguous rank intervals of the (conceptually) sorted input.
    Nothing is sorted up front.  Each [select]/[quantile]/[range] query
    refines {e only} the intervals it touches.  Each step on a leaf is one
    of three moves: a leaf that fits a memory load is sorted in memory; a
    bucket that sorts in one merge pass is sorted so
    ({!External_sort.with_sorted}); anything else takes one sampled pass,
    (key, position) pivots from {!Sample_splitters} at no more buckets than
    one pass's writers, and one {!Distribute.pass}.  A bucket still too
    large is refined again only when a query reaches it, and the raw root
    never takes the merge sort.  A sorted leaf is written back as a sorted
    run.  Repeated or nearby queries then cost a
    single block I/O, so the amortized I/Os per query converge toward free
    while an adversarial stream never pays more than one full
    distribution sort in total (Barbay–Gupta, "Near-Optimal Online
    Multiselection in Internal and External Memory").

    Refinement invariant: intervals only ever {e split}, never re-merge.
    The tree's leaf set is a partition of [0 .. N-1] into rank intervals
    that monotonically refines over the session's lifetime; a [Sorted] leaf
    stays sorted forever.  This is what makes per-query costs amortizable —
    work done for one query is never undone by another.

    Cost accounting: every reply carries two {!Em.Stats.delta} brackets —
    the {e refine} part (tree restructuring: distribution passes and leaf
    sorts) and the whole-query [cost]; [answer_ios = cost - refine] is the
    irreducible lookup price (one block read per sorted block it reads).
    Deltas are taken with {!Em.Stats.effective_rounds}, so a query issued
    inside an already-open scheduling window at [D > 1] still reports its
    own round cost.

    The input vector is {e preserved} (never freed, never rewritten); all
    tree storage is owned by the session and released by {!close}.  Under a
    [cached] backend the hot intervals ride the shared buffer pool; pass
    [~drop_cache:true] to {!close} to also evict the session's pages.

    {b Crash survivability.}  Monotone refinement makes the whole session
    state a flat list of {e handles}: leaf intervals with the vectors
    backing them, plus four counters — never bulk data.  {!snapshot}
    captures it, {!checkpoint} persists it through {!Em.Checkpoint} (saves
    cost [ceil(words/B)] metered writes where [words] counts handles only),
    and {!restore} rebuilds an equivalent session from the store after a
    crash, paying the metered resume read.  While a store is attached the
    session defers the frees refinement would normally perform until the
    next save, so the saved snapshot's handles stay valid at every instant —
    a crash loses at most the (orphaned) refinement work since the last
    save.  With no store attached, nothing changes: free timing, costs and
    traces are bit-identical to the historical behaviour.

    Batch multiselection ({!Core.Multi_select}, Theorem 4) is a separate
    algorithm and does not run through a session. *)

type 'a t
(** A live query session. *)

type query =
  | Select of int  (** [Select k]: the element of rank [k], 1-based. *)
  | Quantile of float
      (** [Quantile phi]: the element of rank [max 1 (ceil (phi * n))],
          [0 < phi <= 1] (the ceiling convention for phi-quantiles). *)
  | Range of int * int
      (** [Range (a, b)]: the elements of ranks [a .. b] inclusive
          (1-based), in rank order.  The reply holds [b - a + 1] values and
          must fit a half-memory load. *)

type 'a reply = {
  values : 'a array;  (** the selected elements, in rank order *)
  cost : Em.Stats.delta;  (** whole-query cost bracket *)
  refine : Em.Stats.delta;
      (** the part of [cost] spent restructuring the tree (distribution
          passes + leaf sorts); zero once the queried intervals are sorted *)
  answer_ios : int;
      (** I/Os of the lookup proper: [delta_ios cost - delta_ios refine] *)
  splits : int;  (** interval splits this query caused *)
}

type summary = {
  queries : int;  (** queries answered so far *)
  refine_ios : int;  (** cumulative refinement I/Os *)
  answer_ios : int;  (** cumulative lookup I/Os *)
  splits : int;  (** cumulative interval splits *)
  leaves : int;  (** current leaf intervals (monotone non-decreasing) *)
  sorted_leaves : int;  (** leaves already holding sorted runs *)
}
(** Session-cumulative accounting; [refine_ios + answer_ios] is the total
    metered cost of all queries, the quantity the amortized analysis (and
    [BENCH_online.json]) divides by [queries]. *)

val open_session : ('a -> 'a -> int) -> 'a Em.Ctx.t -> 'a Em.Vec.t -> 'a t
(** [open_session cmp ctx v] wraps [v] (which must live on [ctx]) in a fresh
    session.  Costs zero I/Os — the tree starts as one raw leaf backed by
    the preserved input.
    @raise Invalid_argument if [v] does not live on [ctx] or the geometry
    is below the library minimum. *)

val query : 'a t -> query -> 'a reply
(** Answer one query, refining the intervals it reaches first.  Duplicate keys
    resolve positionally (stable), matching batch {!Core.Multi_select}.
    @raise Invalid_argument on an out-of-range rank/quantile or a closed
    session. *)

val select : 'a t -> int -> 'a
(** [select t k] = the single value of [query t (Select k)]. *)

val query_kind : query -> string
(** ["select"], ["quantile"] or ["range"]: the query's kind, as serve
    counts it and flight records name it. *)

(** {2 Checkpointing}

    Handles are live on-device vectors: a snapshot is only meaningful inside
    the process (and against the device family) that created it.  Treat the
    exposed representation as read-only — it is transparent so that callers
    (e.g. the serve state file) can serialize the payloads via
    {!Em.Vec.Oracle} and rebuild snapshots in a fresh process. *)

type 'a handle =
  | H_raw  (** the preserved input itself; pristine root only *)
  | H_unsorted of ('a * int) Em.Vec.t  (** position-tagged bucket *)
  | H_sorted of 'a Em.Vec.t  (** final sorted run *)

type 'a snapshot = {
  s_leaves : (int * int * 'a handle) list;
      (** [(lo, len, handle)] per leaf, in rank order; a partition of
          [0 .. n-1] *)
  s_queries : int;
  s_refine_ios : int;
  s_answer_ios : int;
  s_splits : int;
}

val snapshot : 'a t -> 'a snapshot
(** The session's current state as handles; costs no I/O (the tree skeleton
    is in memory, the payloads stay on the device). *)

val snapshot_words : 'a snapshot -> int
(** Serialized size charged by a save: [O(leaves + referenced blocks)]
    words, independent of [n]. *)

val enable_checkpoints : ?every_splits:int -> 'a t -> 'a snapshot Em.Checkpoint.t
(** Attach a checkpoint store (creating it on first use), save a baseline
    immediately, so {!restore} is valid from this point on, and return the
    store.  With
    [every_splits = k], additionally saves automatically: mid-refinement
    once [k] splits accumulate, and at the end of every query that refined
    the tree — so once a reply is emitted, the refinement it paid for is in
    the checkpoint store, and a simulated crash between queries redoes
    nothing.  Without
    [every_splits] only explicit {!checkpoint} calls (and the baseline)
    save.
    @raise Invalid_argument if [every_splits < 1]. *)

val checkpoint : 'a t -> unit
(** Save the current snapshot now, creating the store if none is attached
    yet.  Charges [ceil(snapshot_words/B)] writes under a ["checkpoint"]
    phase, flushes write-back backends (their dirty pages and write-behind
    reach the backing store; nothing is synced to stable storage, since the
    file backend's files are unlinked scratch space that no restarted
    process could reopen), and releases the vectors deferred since the
    previous save. *)

val checkpoint_store : 'a t -> 'a snapshot Em.Checkpoint.t option
(** The attached store, for crash/restore drivers and introspection
    ([Em.Checkpoint.saves]/[save_ios]/[loads]/[load_ios]). *)

val restore :
  ?every_splits:int ->
  ('a -> 'a -> int) ->
  'a Em.Ctx.t ->
  'a Em.Vec.t ->
  'a snapshot Em.Checkpoint.t ->
  'a t
(** [restore cmp ctx v store] rebuilds a session over the preserved input
    [v] from the store's saved snapshot, paying the metered resume read
    ([Em.Checkpoint.load], ["resume"] phase).  The restored session answers
    every query exactly as the lost one would have: same values, same leaf
    partition, same counters, and — because sorted runs and buckets are
    re-referenced, not rebuilt — the same subsequent query costs.  The
    restored session keeps checkpointing on the same [store] under the given
    [every_splits] policy.  In a fresh process, first rebuild the snapshot's
    vectors (e.g. from a serialized state file via {!Em.Vec.of_array}) and
    seed the store with {!Em.Checkpoint.install}.
    @raise Invalid_argument if the store is empty, the leaves do not
    partition [0 .. length v - 1], or a handle's length disagrees with its
    interval. *)

(** {2 Per-query I/O budget} *)

val set_io_budget : 'a t -> int option -> unit
(** Bound the metered I/Os any single query may spend ([None] = unlimited,
    the default).  The budget is checked between refinement steps (one
    distribution pass or one leaf sort each), so a query may overshoot by
    at most one step before aborting with
    [Em_error.Error (Budget_exceeded _)].  Aborted queries keep the
    refinement already paid for — monotone refinement means later queries
    still benefit — and account it in the session's [refine_ios].
    @raise Invalid_argument if the budget is [< 1]. *)

val summary : 'a t -> summary
(** O(1): the leaf counts are session counters kept as the tree refines
    (and recounted once by {!restore}), not a walk over the leaves. *)

val length : 'a t -> int

val intervals : 'a t -> (int * int * bool) list
(** Current leaf partition as [(lo, len, sorted)] triples in rank order
    ([lo] 0-based).  Successive calls refine monotonically: each new
    partition subdivides the previous one (never re-merges), and [sorted]
    never reverts to [false]. *)

val close : ?drop_cache:bool -> 'a t -> unit
(** Release every vector the session owns (the input is preserved).  With
    [~drop_cache:true] also evicts the family's buffer-pool pages
    ({!Em.Backend.Pool.drop_all}), so an idle closed session holds zero pool
    pages.  Idempotent; further queries raise [Invalid_argument]. *)
