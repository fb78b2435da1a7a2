(* Equi-depth histograms — the statistical-profile application from the
   paper's introduction: the bucket boundaries of a (1/K)-quantile histogram
   are exactly the output of the K-splitters problem.  Here they are the
   exact quantiles, found by multi-selection (Theorem 4) in fewer I/Os than
   a full sort.

   Run with:  dune exec examples/histogram.exe

   Scenario: a service's request-latency log (microseconds, long-tailed).
   We build a 16-bucket equi-depth histogram over it and use the histogram
   to estimate range selectivities, comparing against exact answers. *)

let icmp = Int.compare

(* A long-tailed synthetic latency population: mostly fast requests, a few
   slow outliers — the shape that makes equi-WIDTH histograms useless and
   equi-DEPTH ones shine. *)
let latency_log ~seed n =
  let rng = Core.Workload.Rng.create seed in
  Array.init n (fun _ ->
      let r = Core.Workload.Rng.int rng 1000 in
      if r < 700 then 100 + Core.Workload.Rng.int rng 900 (* fast: 0.1-1 ms *)
      else if r < 950 then 1_000 + Core.Workload.Rng.int rng 9_000 (* medium *)
      else if r < 995 then 10_000 + Core.Workload.Rng.int rng 90_000 (* slow *)
      else 100_000 + Core.Workload.Rng.int rng 900_000 (* outliers *))

(* An equi-depth histogram: [k - 1] boundaries at the exact ranks
   [ceil (i * n / k)], so each of the [k] buckets holds n/k elements
   (rounded). *)
type histogram = { boundaries : int array; depth : int }

let build v ~k =
  let out = Core.Splitters.exact_quantiles icmp v ~k in
  let boundaries = Emalg.Scan.array_of_vec_io out in
  Em.Vec.free out;
  { boundaries; depth = (Em.Vec.length v + k - 1) / k }

(* Least i with x <= boundaries.(i), else the last bucket. *)
let bucket_of h x =
  let lo = ref 0 and hi = ref (Array.length h.boundaries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if icmp x h.boundaries.(mid) <= 0 then hi := mid else lo := mid + 1
  done;
  !lo

(* Estimated fraction of elements in (lo, hi]: the buckets strictly between
   those of [lo] and [hi] count in full, the two end buckets by half. *)
let selectivity h ~lo ~hi =
  let buckets = float_of_int (Array.length h.boundaries + 1) in
  if icmp hi lo <= 0 then 0.
  else
    let blo = bucket_of h lo and bhi = bucket_of h hi in
    if blo = bhi then 0.5 /. buckets else float_of_int (bhi - blo) /. buckets

let exact_fraction data ~lo ~hi =
  let count = Array.fold_left (fun acc x -> if x > lo && x <= hi then acc + 1 else acc) 0 data in
  float_of_int count /. float_of_int (Array.length data)

let () =
  let params = Em.Params.create ~mem:4096 ~block:64 in
  let ctx : int Em.Ctx.t = Em.Ctx.create params in
  let n = 200_000 in
  let data = latency_log ~seed:7 n in
  let v = Em.Vec.of_array ctx data in

  let h, cost = Em.Ctx.measured ctx (fun () -> build v ~k:16) in
  let build_ios = Em.Stats.delta_ios cost in
  let sort_bound = Core.Bounds.sort params ~n in

  Printf.printf "equi-depth histogram over %d latencies: %d buckets of depth %d\n" n
    (Array.length h.boundaries + 1) h.depth;
  Printf.printf "built in %d I/Os (full sort bound: %.0f I/Os * constants)\n\n" build_ios
    sort_bound;

  let ranks = Core.Splitters.quantile_ranks ~n ~k:16 in
  (match Core.Verify.multi_select icmp ~input:data ~ranks h.boundaries with
  | Ok () -> ()
  | Error msg ->
      Printf.printf "boundary verification FAILED: %s\n" msg;
      exit 2);

  Printf.printf "bucket boundaries (latency in us):\n  ";
  Array.iter (fun b -> Printf.printf "%d " b) h.boundaries;
  Printf.printf "\n\n";

  Printf.printf "range selectivity estimates vs exact:\n";
  List.iter
    (fun (lo, hi) ->
      let est = selectivity h ~lo ~hi in
      let exact = exact_fraction data ~lo ~hi in
      Printf.printf "  latency in (%6d, %7d]:  estimated %5.1f%%   exact %5.1f%%\n" lo hi
        (100. *. est) (100. *. exact))
    [ (0, 1_000); (1_000, 10_000); (10_000, 100_000); (100_000, 1_000_000) ];

  (* The histogram also answers "which bucket is this latency in?" without
     touching the disk at all. *)
  Printf.printf "\np50-ish latency (boundary of bucket 8): %d us\n" h.boundaries.(7)
