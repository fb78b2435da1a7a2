(** Problem specifications for approximate K-partitioning / K-splitters.

    Both problems share the same parameters: a set of [n] elements, a target
    count [k], and an integer interval [[a, b]] every induced partition size
    must fall into.  The paper distinguishes three regimes:
    right-grounded ([b = n]), left-grounded ([a = 0]) and two-sided. *)

type spec = { n : int; k : int; a : int; b : int }

type variant =
  | Right_grounded  (** [b = n] *)
  | Left_grounded  (** [a = 0] (and [b < n]) *)
  | Two_sided  (** [0 < a] and [b < n] *)
  | Unconstrained  (** [a = 0] and [b = n]: any split works *)

val validate : spec -> (unit, string) result
(** Feasibility: [n >= 1], [1 <= k <= n], [0 <= a <= b <= n], [a * k <= n]
    (every partition can reach its minimum) and [b * k >= n] (the partitions
    can cover the input). *)

val validate_exn : spec -> unit
(** @raise Invalid_argument when {!validate} returns an error. *)

val classify : spec -> variant

val cut : spec -> int -> int
(** [cut spec i] is the number of elements in the first [i] partitions of
    the spec's plan ([cut spec 0 = 0], [cut spec k = n]); for [0 < i < k] it
    is the global rank of the [i]-th splitter.  The plan per regime:

    - unconstrained: everything in the first partition;
    - right-grounded: [K - 1] partitions of exactly [a], the rest last;
    - left-grounded: partitions of [b] while [K' = ceil(N/b)] last, then
      [K - K'] empty ones;
    - two-sided: the paper's [K' = (bK - N)/(b - a)] partitions of exactly
      [a], then the remaining [N - aK'] elements cut evenly into [K - K'];
      when [a >= N/2K] or [b <= 2N/K] simply [ceil(iN/K)] (even quantiles).

    The spec must be valid ({!validate}). *)

val nonempty : spec -> int
(** How many of the plan's partitions are nonempty; they come first, so
    [cut spec i < n] exactly for [i < nonempty spec]. *)

val sizes : spec -> int array
(** The [K] partition sizes of the plan: [cut spec (i+1) - cut spec i]. *)

val even_spec : n:int -> k:int -> spec
(** The perfectly balanced instance [a = floor(n/k)], [b = ceil(n/k)] (the
    paper's [a = b = N/K] when [k] divides [n]). *)

val pp_spec : Format.formatter -> spec -> unit
val pp_variant : Format.formatter -> variant -> unit
val variant_name : variant -> string
