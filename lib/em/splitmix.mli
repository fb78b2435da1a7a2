(** The splitmix64 pseudo-random generator shared by fault plans and
    workload generators.  Seeded and reproducible; nothing touches the
    global [Random] state.  The state lives in an 8-byte buffer, so a draw
    allocates nothing. *)

type t

val create : int -> t

val next : t -> int64
(** The next 64 raw bits. *)

val int : t -> int -> int
(** [int r bound] is uniform in [[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val float01 : t -> float
(** Uniform in [[0, 1)], from the top 53 bits of a draw. *)
