(** Solution checkers.

    All checkers are in-memory oracles used by tests and benchmarks; they
    never touch the I/O meters.  [splitters] and [multi_select] never copy
    the input: they count, for each of their k probes, the input elements
    below and not above it in one O(N log k) pass.  The partition checkers
    sort one copy of the input and the concatenated answer.  Under
    duplicate keys the splitter checker solves the induced interval-chain
    feasibility problem (each splitter value may stand for any of its
    occurrences), so a solution is accepted iff {e some} assignment of
    occurrences meets the [[a, b]] constraints. *)

val splitters :
  ('a -> 'a -> int) ->
  input:'a array ->
  Problem.spec ->
  'a array ->
  (unit, string) result
(** Check a proposed splitter set (any order): right count, every splitter a
    member of the input, and all induced partition sizes within [[a, b]]. *)

val partitioning :
  ('a -> 'a -> int) ->
  input:'a array ->
  Problem.spec ->
  'a array array ->
  (unit, string) result
(** Check partition count, sizes within [[a, b]], cross-partition ordering
    (every element of an earlier partition [<=] every element of a later
    one), and multiset preservation. *)

val multi_select :
  ('a -> 'a -> int) ->
  input:'a array ->
  ranks:int array ->
  'a array ->
  (unit, string) result
(** Each reported element must equal the value at its target sorted
    position. *)

val multi_partition :
  ('a -> 'a -> int) ->
  input:'a array ->
  sizes:int array ->
  'a array array ->
  (unit, string) result
(** Exact sizes, ordering and multiset preservation. *)
