(* Tests for the solution checkers themselves (they guard everything else,
   so they get their own adversarial tests). *)

let spec n k a b = { Core.Problem.n; k; a; b }

let test_splitters_accepts_valid () =
  let input = Tu.random_perm ~seed:1 100 in
  Tu.check_ok "quartiles"
    (Core.Verify.splitters Tu.icmp ~input (spec 100 4 25 25) [| 24; 49; 74 |]);
  Tu.check_ok "uneven but legal"
    (Core.Verify.splitters Tu.icmp ~input (spec 100 4 10 40) [| 9; 49; 89 |]);
  Tu.check_ok "any order allowed"
    (Core.Verify.splitters Tu.icmp ~input (spec 100 4 10 40) [| 89; 9; 49 |])

let test_splitters_rejects_bad_count () =
  let input = Tu.random_perm ~seed:2 100 in
  Tu.check_err "too few"
    (Core.Verify.splitters Tu.icmp ~input (spec 100 4 25 25) [| 24; 49 |])

let test_splitters_rejects_non_member () =
  let input = Array.map (fun x -> 2 * x) (Tu.random_perm ~seed:3 50) in
  Tu.check_err "odd value not in input"
    (Core.Verify.splitters Tu.icmp ~input (spec 50 2 25 25) [| 49 |])

let test_splitters_rejects_bad_sizes () =
  let input = Tu.random_perm ~seed:4 100 in
  Tu.check_err "first bucket too small"
    (Core.Verify.splitters Tu.icmp ~input (spec 100 4 20 40) [| 9; 49; 74 |]);
  Tu.check_err "last bucket too big"
    (Core.Verify.splitters Tu.icmp ~input (spec 100 4 20 40) [| 19; 39; 58 |])

let test_splitters_duplicates_feasibility () =
  (* Input 0,0,0,0,1,1,1,1: splitter value 0 can stand for any occurrence,
     so [0] splits 8 elements into sizes up to (4,4). *)
  let input = [| 0; 0; 0; 0; 1; 1; 1; 1 |] in
  Tu.check_ok "feasible assignment"
    (Core.Verify.splitters Tu.icmp ~input (spec 8 2 4 4) [| 0 |]);
  Tu.check_err "infeasible: needs 5"
    (Core.Verify.splitters Tu.icmp ~input (spec 8 2 5 5) [| 0 |]);
  Tu.check_ok "flexible range"
    (Core.Verify.splitters Tu.icmp ~input (spec 8 2 1 7) [| 1 |])

let test_partitioning_accepts_valid () =
  let input = Tu.random_perm ~seed:5 100 in
  let parts = [| Array.init 30 (fun i -> i); Array.init 70 (fun i -> 30 + i) |] in
  Tu.check_ok "valid" (Core.Verify.partitioning Tu.icmp ~input (spec 100 2 30 70) parts)

let test_partitioning_rejects_overlap () =
  let input = Tu.random_perm ~seed:6 100 in
  let parts = [| Array.init 50 (fun i -> 2 * i); Array.init 50 (fun i -> (2 * i) + 1) |] in
  Tu.check_err "interleaved values"
    (Core.Verify.partitioning Tu.icmp ~input (spec 100 2 50 50) parts)

let test_partitioning_rejects_wrong_multiset () =
  let input = Tu.random_perm ~seed:7 100 in
  let parts = [| Array.make 50 1; Array.init 50 (fun i -> 50 + i) |] in
  Tu.check_err "not a permutation"
    (Core.Verify.partitioning Tu.icmp ~input (spec 100 2 50 50) parts)

let test_partitioning_rejects_bad_sizes () =
  let input = Tu.random_perm ~seed:8 100 in
  let parts = [| Array.init 10 (fun i -> i); Array.init 90 (fun i -> 10 + i) |] in
  Tu.check_err "size below a"
    (Core.Verify.partitioning Tu.icmp ~input (spec 100 2 20 80) parts)

let test_partitioning_empty_partitions () =
  let input = Tu.random_perm ~seed:9 10 in
  let parts = [| Array.init 10 (fun i -> i); [||] |] in
  Tu.check_ok "empty allowed when a = 0"
    (Core.Verify.partitioning Tu.icmp ~input (spec 10 2 0 10) parts)

let test_multi_select_checks () =
  let input = Tu.random_perm ~seed:10 50 in
  Tu.check_ok "correct"
    (Core.Verify.multi_select Tu.icmp ~input ~ranks:[| 1; 25; 50 |] [| 0; 24; 49 |]);
  Tu.check_err "wrong element"
    (Core.Verify.multi_select Tu.icmp ~input ~ranks:[| 1; 25; 50 |] [| 0; 23; 49 |]);
  Tu.check_err "count mismatch"
    (Core.Verify.multi_select Tu.icmp ~input ~ranks:[| 1 |] [| 0; 1 |]);
  Tu.check_err "rank out of range"
    (Core.Verify.multi_select Tu.icmp ~input ~ranks:[| 51 |] [| 0 |])

let test_multi_partition_checks () =
  let input = Tu.random_perm ~seed:11 30 in
  let parts = [| Array.init 10 (fun i -> i); Array.init 20 (fun i -> 10 + i) |] in
  Tu.check_ok "correct"
    (Core.Verify.multi_partition Tu.icmp ~input ~sizes:[| 10; 20 |] parts);
  Tu.check_err "size mismatch"
    (Core.Verify.multi_partition Tu.icmp ~input ~sizes:[| 15; 15 |] parts)

(* ---- the one-pass checkers against the sorted-copy reference ----

   [Reference] is the earlier formulation of the [splitters] and
   [multi_select] checkers: it sorts a copy of the whole input and
   binary-searches each probe into it.  The library now counts
   [#(< x)] and [#(<= x)] for every probe in one pass over the unsorted
   input; both must give the same verdict, error message included. *)
module Reference = struct
  let err fmt = Format.kasprintf (fun s -> Error s) fmt

  let sorted_copy cmp a =
    let c = Array.copy a in
    Array.sort cmp c;
    c

  let count_lt cmp sorted x =
    let lo = ref 0 and hi = ref (Array.length sorted) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cmp sorted.(mid) x < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  let count_le cmp sorted x =
    let lo = ref 0 and hi = ref (Array.length sorted) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cmp sorted.(mid) x <= 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  let splitters cmp ~input spec proposed =
    match Core.Problem.validate spec with
    | Error _ as e -> e
    | Ok () ->
        let { Core.Problem.n; k; a; b } = spec in
        if n <> Array.length input then err "input length %d <> spec.n %d" (Array.length input) n
        else if Array.length proposed <> k - 1 then
          err "expected %d splitters, got %d" (k - 1) (Array.length proposed)
        else begin
          let sorted = sorted_copy cmp input in
          let sp = sorted_copy cmp proposed in
          let rec walk i prev =
            if i = Array.length sp then
              let gap = n - prev in
              if gap < a || gap > b then
                err "last bucket has %d elements (not in [%d, %d])" gap a b
              else Ok ()
            else begin
              let x = sp.(i) in
              let lo = count_lt cmp sorted x and hi = count_le cmp sorted x in
              if hi = lo then err "splitter %d is not an element of the input" i
              else begin
                let r = max (lo + 1) (prev + a) in
                if r > hi then err "bucket %d cannot reach the minimum size %d" i a
                else if r - prev > b then err "bucket %d has more than %d elements" i b
                else walk (i + 1) r
              end
            end
          in
          walk 0 0
        end

  let multi_select cmp ~input ~ranks results =
    if Array.length ranks <> Array.length results then
      err "expected %d results, got %d" (Array.length ranks) (Array.length results)
    else begin
      let sorted = sorted_copy cmp input in
      let n = Array.length sorted in
      let rec walk i =
        if i = Array.length ranks then Ok ()
        else begin
          let r = ranks.(i) in
          if r < 1 || r > n then err "rank %d out of range" r
          else if cmp results.(i) sorted.(r - 1) <> 0 then
            err "result %d is not the element of rank %d" i r
          else walk (i + 1)
        end
      in
      walk 0
    end
end

(* Inputs over a small alphabet (many duplicates) or a wide one; answers
   are correct, or corrupted in one place: a wrong element, a rank off by
   one, or a value that is not in the input at all. *)
type corruption = Intact | Wrong_element | Off_by_one | Absent

let gen_case =
  QCheck2.Gen.(
    let* bound = oneofl [ 2; 5; 1000 ] in
    let* n = int_range 1 60 in
    let* input = array_size (return n) (int_bound (bound - 1)) in
    let* k = int_range 1 (min n 8) in
    let* a = int_range 0 (n / k) in
    let* b = int_range ((n + k - 1) / k) n in
    let* ranks = array_size (int_range 0 8) (int_range 0 (n + 1)) in
    let* corruption = oneofl [ Intact; Wrong_element; Off_by_one; Absent ] in
    let* slot = int_range 0 7 in
    let* value = int_bound bound in
    return (input, { Core.Problem.n; k; a; b }, ranks, corruption, slot, value))

let corrupt corruption ~slot ~value ~absent ~shift answers =
  let m = Array.length answers in
  if m > 0 && corruption <> Intact then begin
    let i = slot mod m in
    answers.(i) <-
      (match corruption with
      | Intact -> answers.(i)
      | Wrong_element -> value
      | Off_by_one -> shift i
      | Absent -> absent)
  end;
  answers

let prop_one_pass_matches_reference =
  Tu.qcheck_case ~count:500 "one-pass splitters/multi_select agree with the sorted-copy reference"
    gen_case (fun (input, spec, ranks, corruption, slot, value) ->
      let sorted = Tu.sorted_copy input in
      let n = spec.Core.Problem.n and k = spec.Core.Problem.k in
      let at r = sorted.(max 0 (min (n - 1) r)) in
      let absent = 1_000_000 in
      let quantile i = ((((i + 1) * n) + k - 1) / k) - 1 in
      let splitters =
        corrupt corruption ~slot ~value ~absent
          ~shift:(fun i -> at (quantile i + 1))
          (Array.init (k - 1) (fun i -> at (quantile i)))
      in
      let results =
        corrupt corruption ~slot ~value ~absent
          ~shift:(fun i -> at ranks.(i))
          (Array.map (fun r -> at (r - 1)) ranks)
      in
      Core.Verify.splitters Tu.icmp ~input spec splitters
      = Reference.splitters Tu.icmp ~input spec splitters
      && Core.Verify.multi_select Tu.icmp ~input ~ranks results
         = Reference.multi_select Tu.icmp ~input ~ranks results)

let suite =
  [
    Alcotest.test_case "splitters: accepts valid" `Quick test_splitters_accepts_valid;
    Alcotest.test_case "splitters: bad count" `Quick test_splitters_rejects_bad_count;
    Alcotest.test_case "splitters: non-member" `Quick test_splitters_rejects_non_member;
    Alcotest.test_case "splitters: bad sizes" `Quick test_splitters_rejects_bad_sizes;
    Alcotest.test_case "splitters: duplicate feasibility" `Quick
      test_splitters_duplicates_feasibility;
    Alcotest.test_case "partitioning: accepts valid" `Quick test_partitioning_accepts_valid;
    Alcotest.test_case "partitioning: overlap" `Quick test_partitioning_rejects_overlap;
    Alcotest.test_case "partitioning: wrong multiset" `Quick
      test_partitioning_rejects_wrong_multiset;
    Alcotest.test_case "partitioning: bad sizes" `Quick test_partitioning_rejects_bad_sizes;
    Alcotest.test_case "partitioning: empty allowed" `Quick test_partitioning_empty_partitions;
    Alcotest.test_case "multi_select checks" `Quick test_multi_select_checks;
    Alcotest.test_case "multi_partition checks" `Quick test_multi_partition_checks;
    prop_one_pass_matches_reference;
  ]
