(* Property-based tests (qcheck): random instances against the in-memory
   oracles and the paper's invariants. *)

open QCheck2

let mk_ctx () = Tu.ctx ~mem:1024 ~block:16 ()

(* A feasible problem spec for a given n. *)
let spec_gen n =
  let open Gen in
  let* k = int_range 1 (min n 64) in
  let* a = int_range 0 (n / k) in
  let lo_b = max a ((n + k - 1) / k) in
  let* b = int_range lo_b n in
  return { Core.Problem.n; k; a; b }

let input_gen =
  let open Gen in
  let* n = int_range 10 3_000 in
  let* seed = int_range 0 1_000_000 in
  let* kind_idx = int_range 0 (List.length Core.Workload.all_kinds - 1) in
  let kind = List.nth Core.Workload.all_kinds kind_idx in
  return (n, seed, kind)

let distinct_input_gen =
  Gen.map
    (fun (n, seed, kind) ->
      let kind = if Core.Workload.distinct_ranks kind then kind else Core.Workload.Random_perm in
      (n, seed, kind))
    input_gen

let gen_array (n, seed, kind) = Core.Workload.generate kind ~seed ~n ~block:16

let prop_multi_select_matches_oracle =
  let gen =
    let open Gen in
    let* inp = input_gen in
    let (n, _, _) = inp in
    let* nranks = int_range 1 (min n 40) in
    let* rank_seed = int_range 0 1_000_000 in
    return (inp, nranks, rank_seed)
  in
  Tu.qcheck_case ~count:60 "multi_select matches verifier" gen (fun (inp, nranks, rank_seed) ->
      let n, _, _ = inp in
      let a = gen_array inp in
      let r = Tu.rng rank_seed in
      let set = Hashtbl.create nranks in
      while Hashtbl.length set < nranks do
        Hashtbl.replace set (1 + Tu.next_int r n) ()
      done;
      let ranks = Array.of_list (List.sort Tu.icmp (Hashtbl.fold (fun k () acc -> k :: acc) set [])) in
      let ctx = mk_ctx () in
      let v = Tu.int_vec ctx a in
      let results = Core.Multi_select.select Tu.icmp v ~ranks in
      match Core.Verify.multi_select Tu.icmp ~input:a ~ranks results with
      | Ok () -> ctx.Em.Ctx.stats.Em.Stats.mem_in_use = 0
      | Error msg -> Test.fail_report msg)

let prop_multi_partition_verifies =
  let gen =
    let open Gen in
    let* inp = input_gen in
    let (n, _, _) = inp in
    let* k = int_range 1 (min n 50) in
    let* size_seed = int_range 0 1_000_000 in
    return (inp, k, size_seed)
  in
  Tu.qcheck_case ~count:50 "multi_partition verifies" gen (fun (inp, k, size_seed) ->
      let n, _, _ = inp in
      let a = gen_array inp in
      (* Random composition of n into k positive parts. *)
      let r = Tu.rng size_seed in
      let cuts = Hashtbl.create k in
      while Hashtbl.length cuts < k - 1 do
        Hashtbl.replace cuts (1 + Tu.next_int r (n - 1)) ()
      done;
      let cut_list = List.sort Tu.icmp (Hashtbl.fold (fun c () acc -> c :: acc) cuts []) in
      let sizes =
        let rec diff prev = function
          | [] -> [ n - prev ]
          | c :: rest -> (c - prev) :: diff c rest
        in
        Array.of_list (diff 0 cut_list)
      in
      let ctx = mk_ctx () in
      let v = Tu.int_vec ctx a in
      let parts = Core.Multi_partition.partition_sizes Tu.icmp v ~sizes in
      let contents = Array.map Em.Vec.Oracle.to_array parts in
      match Core.Verify.multi_partition Tu.icmp ~input:a ~sizes contents with
      | Ok () -> ctx.Em.Ctx.stats.Em.Stats.mem_in_use = 0
      | Error msg -> Test.fail_report msg)

let prop_splitters_verify =
  let gen =
    let open Gen in
    let* inp = distinct_input_gen in
    let (n, _, _) = inp in
    let* spec = spec_gen n in
    return (inp, spec)
  in
  Tu.qcheck_case ~count:80 "splitters solve verifies" gen (fun (inp, spec) ->
      let a = gen_array inp in
      let ctx = mk_ctx () in
      let v = Tu.int_vec ctx a in
      let out = Core.Splitters.solve Tu.icmp v spec in
      let splitters = Em.Vec.Oracle.to_array out in
      match Core.Verify.splitters Tu.icmp ~input:a spec splitters with
      | Ok () -> ctx.Em.Ctx.stats.Em.Stats.mem_in_use = 0
      | Error msg ->
          Test.fail_report
            (Format.asprintf "%s on %a" msg Core.Problem.pp_spec spec))

let prop_partitioning_verify =
  let gen =
    let open Gen in
    let* inp = distinct_input_gen in
    let (n, _, _) = inp in
    let* spec = spec_gen n in
    return (inp, spec)
  in
  Tu.qcheck_case ~count:80 "partitioning solve verifies" gen (fun (inp, spec) ->
      let a = gen_array inp in
      let ctx = mk_ctx () in
      let v = Tu.int_vec ctx a in
      let parts = Core.Partitioning.solve Tu.icmp v spec in
      let contents = Array.map Em.Vec.Oracle.to_array parts in
      match Core.Verify.partitioning Tu.icmp ~input:a spec contents with
      | Ok () -> ctx.Em.Ctx.stats.Em.Stats.mem_in_use = 0
      | Error msg ->
          Test.fail_report
            (Format.asprintf "%s on %a" msg Core.Problem.pp_spec spec))

let prop_em_select_oracle =
  let gen =
    let open Gen in
    let* inp = input_gen in
    let (n, _, _) = inp in
    let* rank = int_range 1 n in
    return (inp, rank)
  in
  Tu.qcheck_case ~count:60 "em_select equals sorted index" gen (fun (inp, rank) ->
      let a = gen_array inp in
      let ctx = mk_ctx () in
      let v = Tu.int_vec ctx a in
      let x = Emalg.Em_select.select Tu.icmp v ~rank in
      let s = Tu.sorted_copy a in
      x = s.(rank - 1))

let prop_external_sort =
  Tu.qcheck_case ~count:60 "external sort = Array.sort" input_gen (fun inp ->
      let a = gen_array inp in
      let ctx = mk_ctx () in
      let v = Tu.int_vec ctx a in
      let out = Emalg.External_sort.sort Tu.icmp v in
      Em.Vec.Oracle.to_array out = Tu.sorted_copy a)

let prop_sample_splitters_gap =
  let gen =
    let open Gen in
    let* inp = distinct_input_gen in
    let* k = int_range 2 16 in
    return (inp, k)
  in
  Tu.qcheck_case ~count:60 "sample splitters respect gap_bound" gen (fun (inp, k) ->
      let n, _, _ = inp in
      if k > n then true
      else begin
        let a = gen_array inp in
        let ctx = mk_ctx () in
        let v = Tu.int_vec ctx a in
        let s = Emalg.Sample_splitters.find Tu.icmp v ~k in
        let bound = Emalg.Sample_splitters.gap_bound ctx.Em.Ctx.params ~n ~k in
        (* Compute the max gap on the sorted input. *)
        let sorted = Tu.sorted_copy a in
        let max_gap = ref 0 in
        let start = ref 0 in
        Array.iter
          (fun sp ->
            let pos = ref !start in
            while !pos < n && sorted.(!pos) <= sp do
              incr pos
            done;
            max_gap := max !max_gap (!pos - !start);
            start := !pos)
          s;
        max_gap := max !max_gap (n - !start);
        !max_gap <= bound
      end)

(* The base case above [big_load]: splitters, counting scan, D pass and
   intermixed selection, against the sorted oracle on random, all-equal and
   few-distinct keys, within the memory budget. *)
let prop_multi_select_base_case =
  let ctx0 = mk_ctx () in
  let big = Emalg.Layout.big_load ctx0 and m = Core.Multi_select.batch_size ctx0 in
  let mem = Em.Ctx.mem_capacity ctx0 in
  let gen =
    let open Gen in
    let* n = int_range (big + 1) (8 * mem) in
    let* bound = oneofl [ max_int; 1; 3 ] in
    let* nranks = int_range 1 m in
    let* seed = int_range 0 1_000_000 in
    return (n, bound, nranks, seed)
  in
  Tu.qcheck_case ~count:40 "multi_select base case: oracle within M" gen
    (fun (n, bound, nranks, seed) ->
      let a = Tu.random_ints ~seed ~bound n in
      let r = Tu.rng (seed + 1) in
      let set = Hashtbl.create nranks in
      while Hashtbl.length set < nranks do
        Hashtbl.replace set (1 + Tu.next_int r n) ()
      done;
      let ranks = Array.of_list (List.sort Tu.icmp (Hashtbl.fold (fun k () acc -> k :: acc) set [])) in
      let ctx = mk_ctx () in
      let v = Tu.int_vec ctx a in
      let results = Core.Multi_select.select Tu.icmp v ~ranks in
      let sorted = Tu.sorted_copy a in
      let stats = ctx.Em.Ctx.stats in
      results = Array.map (fun rk -> sorted.(rk - 1)) ranks
      && stats.Em.Stats.mem_peak <= mem
      && stats.Em.Stats.mem_in_use = 0)

(* The general case ([K > m] above [big_load]) against the sorted oracle on
   random, all-equal and few-distinct keys.  Half the inputs are at most 16M
   (mostly the one-merge sort), half lie above M * M/B, where the splitter
   sample, counting scan, rank routing, grouped distribution and per-group
   answers run.  The small geometries (m = 2 at M = 256, m = 4 at M = 512)
   drive those through base-case groups, fresh recursions and multi-pass
   distribution within M. *)
let prop_multi_select_general_case =
  let gen =
    let open Gen in
    let* mem, block = oneofl [ (4096, 64); (256, 16); (512, 8) ] in
    let ctx0 = Tu.ctx ~mem ~block () in
    let big = Emalg.Layout.big_load ctx0 and m = Core.Multi_select.batch_size ctx0 in
    let counted = mem * (mem / block) in
    let* n = oneof [ int_range (big + 1) (16 * mem); int_range (counted + 1) (counted + (16 * mem)) ] in
    let* nranks = int_range (m + 1) (min n (4 * mem)) in
    let* bound = oneofl [ max_int; 1; 3 ] in
    let* seed = int_range 0 1_000_000 in
    return (mem, block, n, bound, nranks, seed)
  in
  Tu.qcheck_case ~count:30 "multi_select general case: oracle within M" gen
    (fun (mem, block, n, bound, nranks, seed) ->
      let a = Tu.random_ints ~seed ~bound n in
      let r = Tu.rng (seed + 1) in
      let set = Hashtbl.create nranks in
      while Hashtbl.length set < nranks do
        Hashtbl.replace set (1 + Tu.next_int r n) ()
      done;
      let ranks = Array.of_list (List.sort Tu.icmp (Hashtbl.fold (fun k () acc -> k :: acc) set [])) in
      let ctx = Tu.ctx ~mem ~block () in
      let v = Tu.int_vec ctx a in
      let results = Core.Multi_select.select Tu.icmp v ~ranks in
      let sorted = Tu.sorted_copy a in
      let stats = ctx.Em.Ctx.stats in
      results = Array.map (fun rk -> sorted.(rk - 1)) ranks
      && stats.Em.Stats.mem_peak <= mem
      && stats.Em.Stats.mem_in_use = 0)

let prop_intermixed_oracle =
  let gen =
    let open Gen in
    let* l = int_range 1 8 in
    let* total = int_range l 2_000 in
    let* seed = int_range 0 1_000_000 in
    return (l, total, seed)
  in
  Tu.qcheck_case ~count:50 "intermixed matches per-group oracle" gen (fun (l, total, seed) ->
      let r = Tu.rng seed in
      let pairs =
        Array.init total (fun i ->
            let g = if i < l then i else Tu.next_int r l in
            (Tu.next_int r 1_000, g))
      in
      Tu.shuffle r pairs;
      let counts = Array.make l 0 in
      Array.iter (fun (_, g) -> counts.(g) <- counts.(g) + 1) pairs;
      let targets = Array.map (fun c -> 1 + Tu.next_int r c) counts in
      let ctx = mk_ctx () in
      let pctx : (int * int) Em.Ctx.t = Em.Ctx.linked ctx in
      let d = Em.Vec.of_array pctx pairs in
      let results = Core.Intermixed.select Tu.icmp d ~targets in
      let expected =
        Array.mapi
          (fun g t ->
            let members =
              Array.of_list
                (List.filter_map
                   (fun (x, g') -> if g' = g then Some x else None)
                   (Array.to_list pairs))
            in
            Array.sort Tu.icmp members;
            members.(t - 1))
          targets
      in
      results = expected)

let prop_packed_matches_separate =
  let gen =
    let open Gen in
    let* inp = distinct_input_gen in
    let (n, _, _) = inp in
    let* spec = spec_gen n in
    return (inp, spec)
  in
  Tu.qcheck_case ~count:50 "packed partitioning = separate partitioning" gen
    (fun (inp, spec) ->
      let a = gen_array inp in
      let ctx = mk_ctx () in
      let v = Tu.int_vec ctx a in
      let packed = Core.Partitioning.solve_packed Tu.icmp v spec in
      let separate = Core.Partitioning.solve Tu.icmp v spec in
      let sizes_match =
        packed.Core.Partitioning.sizes = Array.map Em.Vec.length separate
      in
      let data = Em.Vec.Oracle.to_array packed.Core.Partitioning.data in
      let offset = ref 0 in
      let pieces =
        Array.map
          (fun size ->
            let piece = Array.sub data !offset size in
            offset := !offset + size;
            piece)
          packed.Core.Partitioning.sizes
      in
      match Core.Verify.partitioning Tu.icmp ~input:a spec pieces with
      | Ok () -> sizes_match && ctx.Em.Ctx.stats.Em.Stats.mem_in_use = 0
      | Error msg -> Test.fail_report msg)

let prop_reduction_precise =
  let gen =
    let open Gen in
    let* inp = input_gen in
    let (n, _, _) = inp in
    let* chunk = int_range 1 n in
    return (inp, chunk)
  in
  Tu.qcheck_case ~count:40 "reduction yields exact chunks" gen (fun (inp, chunk) ->
      let n, _, _ = inp in
      let a = gen_array inp in
      let ctx = mk_ctx () in
      let v = Tu.int_vec ctx a in
      let parts = Core.Reduction.precise_by_approximate Tu.icmp v ~chunk in
      let sizes = Array.map Em.Vec.length parts in
      let expected = (n + chunk - 1) / chunk in
      Array.length parts = expected
      &&
      match
        Core.Verify.multi_partition Tu.icmp ~input:a ~sizes
          (Array.map Em.Vec.Oracle.to_array parts)
      with
      | Ok () -> true
      | Error msg -> Test.fail_report msg)

let prop_random_geometry =
  let gen =
    let open Gen in
    let* block = int_range 4 128 in
    let* fanout = int_range 8 64 in
    let* inp = input_gen in
    return (block, fanout, inp)
  in
  Tu.qcheck_case ~count:40 "full stack under random geometry" gen
    (fun (block, fanout, inp) ->
      let n, _, _ = inp in
      let ctx = Tu.ctx ~mem:(block * fanout) ~block () in
      let a = gen_array inp in
      let v = Tu.int_vec ctx a in
      let median = Emalg.Em_select.select Tu.icmp v ~rank:((n + 1) / 2) in
      let sorted = Tu.sorted_copy a in
      let spec = Core.Problem.even_spec ~n ~k:(min n 8) in
      let parts = Core.Partitioning.solve Tu.icmp v spec in
      let ok_parts =
        match
          Core.Verify.partitioning Tu.icmp ~input:a spec (Array.map Em.Vec.Oracle.to_array parts)
        with
        | Ok () -> true
        | Error msg -> Test.fail_report msg
      in
      median = sorted.((n + 1) / 2 - 1)
      && ok_parts
      && ctx.Em.Ctx.stats.Em.Stats.mem_in_use = 0)

let suite =
  [
    prop_multi_select_matches_oracle;
    prop_multi_partition_verifies;
    prop_splitters_verify;
    prop_partitioning_verify;
    prop_em_select_oracle;
    prop_external_sort;
    prop_sample_splitters_gap;
    prop_multi_select_base_case;
    prop_multi_select_general_case;
    prop_intermixed_oracle;
    prop_packed_matches_separate;
    prop_reduction_precise;
    prop_random_geometry;
  ]
