(* The Section 3 reduction, run end-to-end: produce fixed-size, ordered
   chunks of an unsorted dataset — e.g. leaf pages for bulk-loading a
   B-tree — by solving left-grounded APPROXIMATE partitioning (every
   partition at most [chunk]) and then streaming the partitions through a
   buffer that cuts off exactly [chunk] elements at a time.

   Run with:  dune exec examples/exact_chunks.exe

   This reduction is the heart of the paper's Theorem 3: precise
   partitioning costs at most F(N, K, b) + O(N/B), so approximate
   partitioning inherits the multi-partition lower bound.  It is a proof
   device, not the practical tool — we run it to *see* the lower-bound
   transfer work, and compare it against the direct multi-partition and the
   sort baseline it is sandwiched between. *)

let icmp = Int.compare

let () =
  let params = Em.Params.create ~mem:4096 ~block:64 in
  let ctx : int Em.Ctx.t = Em.Ctx.create params in
  let n = 150_000 and chunk = 4_096 in
  let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed:9 ~n in

  Printf.printf "bulk-loading %d keys into leaf pages of exactly %d keys each\n\n" n chunk;

  let pages, reduction_cost =
    Em.Ctx.measured ctx (fun () -> Core.Reduction.precise_by_approximate icmp v ~chunk)
  in
  let reduction_ios = Em.Stats.delta_ios reduction_cost in

  let sorted, sort_cost = Em.Ctx.measured ctx (fun () -> Emalg.External_sort.sort icmp v) in
  let sort_ios = Em.Stats.delta_ios sort_cost in
  Em.Vec.free sorted;

  let k = (n + chunk - 1) / chunk in
  let sizes = Array.init k (fun i -> if i < k - 1 then chunk else n - (chunk * (k - 1))) in
  let direct, direct_cost =
    Em.Ctx.measured ctx (fun () -> Core.Multi_partition.partition_sizes icmp v ~sizes)
  in
  let direct_ios = Em.Stats.delta_ios direct_cost in
  Array.iter Em.Vec.free direct;

  Printf.printf "pages produced: %d (sizes: %d full + last of %d)\n" (Array.length pages)
    (Array.length pages - 1)
    (Em.Vec.length pages.(Array.length pages - 1));
  Printf.printf "Section 3 reduction:      %d I/Os  (proof device: approx + O(N/B) post-pass)\n"
    reduction_ios;
  Printf.printf "direct multi-partition:   %d I/Os  (the practical tool)\n" direct_ios;
  Printf.printf "full external sort:       %d I/Os\n\n" sort_ios;

  (* Every page holds a contiguous key range; show the fence keys (page
     maxima), which are what the B-tree's internal nodes would store. *)
  Printf.printf "first five fence keys: ";
  Array.iteri
    (fun i page ->
      if i < 5 then begin
        let fence = Emalg.Scan.fold (fun acc e -> max acc e) min_int page in
        Printf.printf "%d " fence
      end)
    pages;
  Printf.printf "...\n";

  (* Verify: exact sizes, ordering across pages, content preservation. *)
  let sizes = Array.map Em.Vec.length pages in
  match
    Core.Verify.multi_partition icmp ~input:(Em.Vec.Oracle.to_array v) ~sizes
      (Array.map Em.Vec.Oracle.to_array pages)
  with
  | Ok () -> Printf.printf "verified: exact sizes, ordered pages, nothing lost.\n"
  | Error msg ->
      Printf.printf "VERIFICATION FAILED: %s\n" msg;
      exit 2
