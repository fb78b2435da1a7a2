(* Tests for the shared distribution-sort level (Split_step). *)

let test_split_preserves_and_orders () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let n = 5_000 in
  let a = Tu.random_perm ~seed:1 n in
  let v = Tu.int_vec ctx a in
  let owned = Emalg.Scan.copy v in
  let buckets = Emalg.Split_step.split Tu.icmp owned ~target_buckets:8 in
  (* Concatenation of buckets is a permutation of the input, in value order
     across buckets. *)
  let pieces = Array.map Em.Vec.Oracle.to_array buckets in
  let all = Array.concat (Array.to_list pieces) in
  Tu.check_int_array "permutation" (Tu.sorted_copy a) (Tu.sorted_copy all);
  let last_max = ref min_int in
  Array.iter
    (fun piece ->
      if Array.length piece > 0 then begin
        let mn = Array.fold_left min max_int piece in
        let mx = Array.fold_left max min_int piece in
        Tu.check_bool "cross-bucket order" true (mn >= !last_max);
        last_max := mx
      end)
    pieces;
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

let test_split_progress () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let n = 4_096 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:2 n) in
  let owned = Emalg.Scan.copy v in
  let buckets = Emalg.Split_step.split Tu.icmp owned ~target_buckets:4 in
  Array.iter
    (fun b -> Tu.check_bool "every bucket strictly smaller" true (Em.Vec.length b < n))
    buckets

let test_split_tagging_handles_duplicates () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let n = 4_000 in
  let a = Array.make n 7 in
  (* All-equal keys: only positional tagging can make progress. *)
  let v = Tu.int_vec ctx a in
  let buckets = Emalg.Split_step.split_tagging Tu.icmp v ~target_buckets:8 in
  let total = Array.fold_left (fun acc b -> acc + Em.Vec.length b) 0 buckets in
  Tu.check_int "all elements routed" n total;
  Array.iter
    (fun b -> Tu.check_bool "progress despite equal keys" true (Em.Vec.length b < n))
    buckets;
  (* Positions within each bucket are increasing and globally ordered. *)
  let last = ref (-1) in
  Array.iter
    (fun b ->
      Array.iter
        (fun (_, pos) ->
          Tu.check_bool "positional order" true (pos > !last);
          last := pos)
        (Em.Vec.Oracle.to_array b))
    buckets

let test_split_tagging_preserves_input () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let a = Tu.random_perm ~seed:3 3_000 in
  let v = Tu.int_vec ctx a in
  let buckets = Emalg.Split_step.split_tagging Tu.icmp v ~target_buckets:6 in
  Array.iter Em.Vec.free buckets;
  Tu.check_int_array "input unchanged" a (Em.Vec.Oracle.to_array v)

let test_default_target_bounds () =
  let ctx = Tu.ctx ~mem:4096 ~block:64 () in
  List.iter
    (fun n ->
      let t = Emalg.Split_step.default_target ctx ~n in
      Tu.check_bool "at least 2" true (t >= 2);
      Tu.check_bool "at most max_k" true (t <= Emalg.Sample_splitters.max_k ctx))
    [ 10; 1_000; 100_000; 10_000_000 ]

let suite =
  [
    Alcotest.test_case "split: permutation + order" `Quick test_split_preserves_and_orders;
    Alcotest.test_case "split: progress" `Quick test_split_progress;
    Alcotest.test_case "split_tagging: all-equal keys" `Quick
      test_split_tagging_handles_duplicates;
    Alcotest.test_case "split_tagging: input preserved" `Quick
      test_split_tagging_preserves_input;
    Alcotest.test_case "default_target bounds" `Quick test_default_target_bounds;
  ]
