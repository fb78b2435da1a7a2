(** Deterministic synthetic workloads, including the adversarial block layout
    from the paper's lower-bound proofs.

    All generators are seeded and reproducible; nothing touches the global
    [Random] state. *)

(** {!Em.Splitmix} with a workload-level bound check and a shuffle. *)
module Rng : sig
  type t

  val create : int -> t
  val int : t -> int -> int
  (** [int r bound] is uniform in [[0, bound)].
      @raise Invalid_argument if [bound <= 0]. *)

  val shuffle : t -> 'a array -> unit
  (** In-place Fisher–Yates shuffle. *)
end

type kind =
  | Random_perm  (** a uniform random permutation of [0 .. n-1] *)
  | Sorted  (** already sorted ascending *)
  | Reverse_sorted
  | Pi_hard
      (** the paper's hard family [Π_hard]: with block size [B], the i-th
          slots of all input blocks hold the value range
          [[(i-1)*N/B, i*N/B)], randomly permuted within the range — every
          block is as "spread" across the value domain as possible *)
  | Few_distinct of int  (** uniform over that many distinct values *)
  | Organ_pipe  (** values rise to a peak then fall (heavy duplication) *)
  | Runs of int  (** that many concatenated sorted runs *)
  | Zipf of float
      (** power-law distributed values with the given skew (> 1): heavy
          repetition of small values, a long tail of rare large ones *)

val kind_name : kind -> string
val all_kinds : kind list
(** One representative of each constructor, for sweep-style tests. *)

val generate : kind -> seed:int -> n:int -> block:int -> int array
(** Generate an array laid out for a machine with the given block size (only
    [Pi_hard] depends on it). *)

val vec : int Em.Ctx.t -> kind -> seed:int -> n:int -> int Em.Vec.t
(** Generate and place on the context's disk free of I/O charge. *)

val distinct_ranks : kind -> bool
(** Whether the generator produces pairwise-distinct values (the paper's set
    semantics). *)
