(** Comparator combinators shared across the algorithms. *)

val tagged : ('a -> 'a -> int) -> ('a * int) -> ('a * int) -> int
(** Lexicographic order on (key, position) pairs: the standard trick that
    makes keys pairwise distinct (the paper's set semantics) by breaking
    ties with the element's position in the input. *)
