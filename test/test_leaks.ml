(* Resource-audit suite: after each major algorithm runs and its outputs are
   freed, the device must hold exactly the input's blocks again and the
   memory ledger must read zero.  Leaked intermediates on any code path
   (including deep recursions) fail here. *)

let audit name f =
  Alcotest.test_case name `Quick (fun () ->
      let ctx = Tu.ctx ~mem:1024 ~block:16 () in
      let n = 6_000 in
      let v = Tu.int_vec ctx (Tu.random_perm ~seed:17 n) in
      let baseline_blocks = Em.Device.live_blocks ctx.Em.Ctx.dev in
      f ctx v n;
      Tu.check_int "memory ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use;
      Tu.check_int "all intermediate blocks freed" baseline_blocks
        (Em.Device.live_blocks ctx.Em.Ctx.dev))

(* The general case under a fault that aborts it: at every probed I/O of
   the crash-free run, a crash there must leave the ledger drained and only
   the input's blocks live.  At M=1024 the input sorts in one merge pass;
   at M=256 it is distributed, the groups outnumber the writers, and
   base-case groups and recursions on a bucket are probed too. *)
let faulted_general ~mem ~k =
  Alcotest.test_case (Printf.sprintf "multi_select (general case, aborted by a fault, M=%d)" mem) `Quick
    (fun () ->
      let n = 6_000 in
      let data = Tu.random_perm ~seed:19 n in
      let ranks = Array.init k (fun i -> 1 + (i * (n - 1) / k)) in
      let run plan =
        let ctx = Tu.ctx ~mem ~block:16 () in
        let v = Tu.int_vec ctx data in
        (* Blocks live across the context's family: the general case keeps
           its groups on linked devices. *)
        let live () = ctx.Em.Ctx.stats.Em.Stats.allocated_blocks - ctx.Em.Ctx.stats.Em.Stats.freed_blocks in
        let baseline = live () in
        Option.iter (Em.Ctx.inject ctx) plan;
        let ios = ref 0 in
        (match
           Em.Ctx.measured ctx (fun () -> Core.Multi_select.select Tu.icmp v ~ranks)
         with
        | _, d -> ios := Em.Stats.delta_ios d
        | exception Em.Em_error.Error (Em.Em_error.Crashed _) -> ());
        Tu.check_int "memory ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use;
        Tu.check_int "all intermediate blocks freed" baseline (live ());
        !ios
      in
      let total = run None in
      for i = 1 to 40 do
        ignore (run (Some (Em.Fault.crash_at [ 1 + (i * (total - 1) / 41) ])))
      done)

(* Multi-partition's one-merge route under a fault that aborts it: at
   M=1024 the input sorts in one merge pass, and crashes probed through the
   run formation, the merge and the cuts inside it must leave the ledger
   drained and only the input's blocks live. *)
let faulted_one_merge =
  Alcotest.test_case "multi_partition (one merge, aborted by a fault)" `Quick (fun () ->
      let n = 6_000 in
      let data = Tu.random_perm ~seed:29 n in
      let sizes = [| n / 2; n / 4; n / 4 |] in
      let run plan =
        let ctx = Tu.ctx ~mem:1024 ~block:16 () in
        let v = Tu.int_vec ctx data in
        let live () = ctx.Em.Ctx.stats.Em.Stats.allocated_blocks - ctx.Em.Ctx.stats.Em.Stats.freed_blocks in
        let baseline = live () in
        Option.iter (Em.Ctx.inject ctx) plan;
        let ios = ref 0 in
        (match
           Em.Ctx.measured ctx (fun () -> Core.Multi_partition.partition_sizes Tu.icmp v ~sizes)
         with
        | parts, d ->
            ios := Em.Stats.delta_ios d;
            Array.iter Em.Vec.free parts
        | exception Em.Em_error.Error (Em.Em_error.Crashed _) -> ());
        Tu.check_int "memory ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use;
        Tu.check_int "all intermediate blocks freed" baseline (live ());
        !ios
      in
      let total = run None in
      Tu.check_bool "sorts in one merge (four scans)" true (total <= (4 * n / 16) + 8);
      for i = 1 to 40 do
        ignore (run (Some (Em.Fault.crash_at [ 1 + (i * (total - 1) / 41) ])))
      done)

(* Multi-partition above one merge pass under a fault that aborts it, in
   both output modes: at M=256 the input needs more than one merge pass.
   Four parts are cut by counting (crashes probe the sample, the counting
   scan, the distribution and the boundary sort); 64 outnumber the
   distribution's writers and are cut in the last of several merge passes. *)
let faulted_partition ~k ~packed =
  Alcotest.test_case
    (Printf.sprintf "multi_partition (%s, K=%d, M=256, aborted by a fault)"
       (if packed then "packed" else "separate")
       k)
    `Quick
    (fun () ->
      let n = 6_000 in
      let data = Tu.random_perm ~seed:31 n in
      let sizes = Array.init k (fun i -> ((i + 1) * n / k) - (i * n / k)) in
      let partition ctx v =
        let bounds = Core.Multi_partition.bounds_of_sizes (Em.Ctx.linked ctx) sizes in
        Fun.protect
          ~finally:(fun () -> Em.Vec.free bounds)
          (fun () ->
            if packed then
              Em.Vec.free
                (Em.Writer.with_writer ctx (fun w ->
                     Core.Multi_partition.partition_packed_into Tu.icmp v ~bounds w))
            else Array.iter Em.Vec.free (Core.Multi_partition.partition Tu.icmp v ~bounds))
      in
      let run plan =
        let ctx = Tu.ctx ~mem:256 ~block:16 () in
        let v = Tu.int_vec ctx data in
        let live () = ctx.Em.Ctx.stats.Em.Stats.allocated_blocks - ctx.Em.Ctx.stats.Em.Stats.freed_blocks in
        let baseline = live () in
        Option.iter (Em.Ctx.inject ctx) plan;
        let ios = ref 0 in
        (match Em.Ctx.measured ctx (fun () -> partition ctx v) with
        | (), d -> ios := Em.Stats.delta_ios d
        | exception Em.Em_error.Error (Em.Em_error.Crashed _) -> ());
        Tu.check_int "memory ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use;
        Tu.check_int "all intermediate blocks freed" baseline (live ());
        !ios
      in
      let total = run None in
      Tu.check_bool "more than one merge pass (over four scans)" true (total > 4 * n / 16);
      for i = 1 to 40 do
        ignore (run (Some (Em.Fault.crash_at [ 1 + (i * (total - 1) / 41) ])))
      done)

(* A session's first query under a fault that aborts it, with and without
   a checkpoint store: at M=512 the query samples the raw root, distributes
   it once and sorts the queried bucket in one merge pass, and crashes are
   probed through all three, the sort's last scans included.  After the
   crash and [close] the ledger must be drained and only the input's blocks
   live. *)
let faulted_session ~checkpointed =
  Alcotest.test_case
    (Printf.sprintf "online session, %s (first query aborted by a fault)"
       (if checkpointed then "checkpointed" else "no store"))
    `Quick
    (fun () ->
      let n = 1 lsl 14 in
      let data = Tu.random_perm ~seed:37 n in
      let module Os = Emalg.Online_select in
      let run plan =
        let ctx = Tu.ctx ~mem:512 ~block:16 () in
        let v = Tu.int_vec ctx data in
        let live () = ctx.Em.Ctx.stats.Em.Stats.allocated_blocks - ctx.Em.Ctx.stats.Em.Stats.freed_blocks in
        let baseline = live () in
        let s = Os.open_session Tu.icmp ctx v in
        if checkpointed then ignore (Os.enable_checkpoints s);
        Option.iter (Em.Ctx.inject ctx) plan;
        let outcome =
          match Em.Ctx.measured ctx (fun () -> Os.select s (n / 2)) with
          | _, d ->
              (* The queried bucket's length, once sorted. *)
              let sorted_len =
                List.fold_left
                  (fun acc (_, len, sorted) -> if sorted then acc + len else acc)
                  0 (Os.intervals s)
              in
              Some (Em.Stats.delta_ios d, sorted_len, Emalg.Layout.big_load ctx)
          | exception Em.Em_error.Error (Em.Em_error.Crashed _) -> None
        in
        Os.close s;
        Tu.check_int "memory ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use;
        Tu.check_int "only the input's blocks live" baseline (live ());
        outcome
      in
      match run None with
      | None -> Alcotest.fail "the crash-free query crashed"
      | Some (total, sorted_len, big) ->
          (* A bucket past one memory load: its sort's four scans close the
             query. *)
          Tu.check_bool "a bucket sorted in one merge pass" true (sorted_len > big);
          let tail = 4 * sorted_len / 16 in
          let probes =
            List.init 40 (fun i -> 1 + ((i + 1) * (total - 1) / 41))
            @ List.init 8 (fun j -> total - ((j + 1) * tail / 9))
          in
          List.iter (fun at -> ignore (run (Some (Em.Fault.crash_at [ at ])))) probes)

let suite =
  [
    faulted_general ~mem:1024 ~k:40;
    faulted_general ~mem:256 ~k:64;
    faulted_one_merge;
    faulted_session ~checkpointed:false;
    faulted_session ~checkpointed:true;
    faulted_partition ~k:4 ~packed:false;
    faulted_partition ~k:4 ~packed:true;
    faulted_partition ~k:64 ~packed:false;
    faulted_partition ~k:64 ~packed:true;
    audit "external sort" (fun _ctx v _n ->
        Em.Vec.free (Emalg.External_sort.sort Tu.icmp v));
    audit "em_select" (fun _ctx v n ->
        ignore (Emalg.Em_select.select Tu.icmp v ~rank:(n / 3)));
    audit "em_select split_at" (fun _ctx v n ->
        let low, high = Emalg.Em_select.split_at Tu.icmp v ~rank:(n / 4) in
        Em.Vec.free low;
        Em.Vec.free high);
    audit "sample splitters" (fun _ctx v _n ->
        ignore (Emalg.Sample_splitters.find Tu.icmp v ~k:8));
    audit "sample splitters (tagging)" (fun _ctx v _n ->
        ignore (Emalg.Sample_splitters.find_tagging Tu.icmp v ~k:8));
    audit "online session" (fun ctx v n ->
        let s = Emalg.Online_select.open_session Tu.icmp ctx v in
        List.iter (fun k -> ignore (Emalg.Online_select.select s k)) [ 1; n / 2; n ];
        Emalg.Online_select.close s);
    audit "multi_select (base case)" (fun _ctx v n ->
        ignore (Core.Multi_select.select Tu.icmp v ~ranks:[| 1; n / 2; n |]));
    audit "multi_select (base case, K = m)" (fun ctx v n ->
        let m = Core.Multi_select.batch_size ctx in
        ignore (Core.Multi_select.select Tu.icmp v ~ranks:(Array.init m (fun i -> 1 + (i * (n - 1) / m)))));
    audit "multi_select (base case, one bucket)" (fun _ctx v n ->
        ignore (Core.Multi_select.select Tu.icmp v ~ranks:(Array.init 5 (fun i -> (n / 2) + i))));
    audit "multi_select (general case)" (fun ctx v n ->
        let m = Core.Multi_select.batch_size ctx in
        let k = (3 * m) + 1 in
        let ranks = Array.init k (fun i -> 1 + (i * (n - 1) / k)) in
        let ranks = Array.of_list (List.sort_uniq Tu.icmp (Array.to_list ranks)) in
        ignore (Core.Multi_select.select Tu.icmp v ~ranks));
    audit "multi_partition" (fun _ctx v n ->
        Array.iter Em.Vec.free
          (Core.Multi_partition.partition_sizes Tu.icmp v ~sizes:[| n / 2; n / 4; n / 4 |]));
    audit "splitters right" (fun _ctx v n ->
        Em.Vec.free
          (Core.Splitters.solve Tu.icmp v { Core.Problem.n; k = 8; a = 16; b = n }));
    audit "splitters left (with padding)" (fun _ctx v n ->
        Em.Vec.free
          (Core.Splitters.solve Tu.icmp v { Core.Problem.n; k = 32; a = 0; b = n / 2 }));
    audit "splitters two-sided" (fun _ctx v n ->
        Em.Vec.free
          (Core.Splitters.solve Tu.icmp v
             { Core.Problem.n; k = 8; a = n / 64; b = n / 2 }));
    audit "partitioning right" (fun _ctx v n ->
        Array.iter Em.Vec.free
          (Core.Partitioning.solve Tu.icmp v { Core.Problem.n; k = 8; a = 16; b = n }));
    audit "partitioning left" (fun _ctx v n ->
        Array.iter Em.Vec.free
          (Core.Partitioning.solve Tu.icmp v { Core.Problem.n; k = 16; a = 0; b = n / 4 }));
    audit "partitioning two-sided" (fun _ctx v n ->
        Array.iter Em.Vec.free
          (Core.Partitioning.solve Tu.icmp v
             { Core.Problem.n; k = 8; a = n / 64; b = n / 2 }));
    audit "quantiles" (fun _ctx v _n ->
        Em.Vec.free (Core.Splitters.exact_quantiles Tu.icmp v ~k:10));
    audit "reduction precise" (fun _ctx v n ->
        Array.iter Em.Vec.free
          (Core.Reduction.precise_by_approximate Tu.icmp v ~chunk:(n / 7)));
    audit "reduction sort" (fun _ctx v _n ->
        Em.Vec.free (Core.Reduction.sort_by_partitioning Tu.icmp v));
    audit "baseline splitters" (fun _ctx v n ->
        Em.Vec.free
          (Core.Baseline.splitters Tu.icmp v { Core.Problem.n; k = 8; a = 0; b = n }));
    audit "intermixed" (fun ctx v n ->
        let pctx : (int * int) Em.Ctx.t = Em.Ctx.linked ctx in
        let d =
          Emalg.Scan.map_into pctx (fun e -> (e, e mod 3)) v
        in
        ignore n;
        let counts = Array.make 3 0 in
        Emalg.Scan.iter (fun (_, g) -> counts.(g) <- counts.(g) + 1) d;
        ignore (Core.Intermixed.select Tu.icmp d ~targets:(Array.map (fun c -> c / 2 + 1) counts));
        Em.Vec.free d);
  ]
