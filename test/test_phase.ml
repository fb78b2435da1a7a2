(* Tests for per-phase I/O attribution, read through an attached profiler. *)

(* A fresh machine with a span profiler attached before any work runs. *)
let observed ?disks ~mem ~block () =
  let ctx : int Em.Ctx.t = Em.Ctx.create ?disks (Tu.params ~mem ~block ()) in
  let profiler = Em.Profile.create () in
  Em.Profile.attach profiler ctx.Em.Ctx.stats;
  (ctx, profiler)

let test_labels_attribute_ios () =
  let ctx, profiler = observed ~mem:256 ~block:16 () in
  let v = Tu.int_vec ctx (Array.init 160 (fun i -> i)) in
  Em.Phase.with_label ctx "copying" (fun () -> ignore (Emalg.Scan.copy v));
  Emalg.Scan.iter (fun _ -> ()) v;
  let report = Em.Profile.phase_report profiler in
  Tu.check_int "copy phase = 20 I/Os" 20 (List.assoc "copying" report);
  Tu.check_int "unlabeled scan = 10 I/Os" 10 (List.assoc "(other)" report)

(* One input per algorithm family, each at D = 1 and D = 4: the exclusive
   rows derived from the spans must partition the machine's total exactly,
   and every algorithm must show at least one labelled row. *)
let families =
  let n = 4_000 in
  let data = Tu.random_perm ~seed:1 n in
  let spec = { Core.Problem.n; k = 8; a = 100; b = 1_000 } in
  let vec ctx = Tu.int_vec ctx data in
  [
    ( "multiselect",
      fun ctx -> ignore (Core.Multi_select.select Tu.icmp (vec ctx) ~ranks:[| 1; n / 2; n |]) );
    ("sort", fun ctx -> Em.Vec.free (Emalg.External_sort.sort Tu.icmp (vec ctx)));
    ("splitters", fun ctx -> Em.Vec.free (Core.Splitters.solve Tu.icmp (vec ctx) spec));
    ( "partitioning",
      fun ctx -> Array.iter Em.Vec.free (Core.Partitioning.solve Tu.icmp (vec ctx) spec) );
    ( "restartable sort",
      fun ctx ->
        match (Emalg.Restart.sort Tu.icmp (vec ctx)).Emalg.Restart.result with
        | Ok sv -> Em.Vec.free sv
        | Error e -> Alcotest.failf "restartable sort: %s" (Em.Em_error.to_string e) );
    ( "checkpointed session",
      fun ctx ->
        let s = Emalg.Online_select.open_session Tu.icmp ctx (vec ctx) in
        Emalg.Online_select.enable_checkpoints ~every_splits:2 s;
        List.iter (fun k -> ignore (Emalg.Online_select.select s k)) [ n / 2; 17; n - 3 ] );
  ]

let test_phases_sum_to_total () =
  List.iter
    (fun disks ->
      List.iter
        (fun (name, run) ->
          let what = Printf.sprintf "%s at D=%d" name disks in
          let ctx, profiler = observed ~disks ~mem:1024 ~block:16 () in
          run ctx;
          let report = Em.Profile.phase_report profiler in
          let total = Em.Stats.ios ctx.Em.Ctx.stats in
          let sum = List.fold_left (fun acc (_, ios) -> acc + ios) 0 report in
          Tu.check_int (what ^ ": phases partition the total") total sum;
          Tu.check_bool (what ^ ": rows are positive") true
            (List.for_all (fun (_, ios) -> ios > 0) report);
          Tu.check_bool (what ^ ": labelled rows present") true
            (List.exists (fun (path, _) -> path <> "(other)") report))
        families)
    [ 1; 4 ]

let test_nesting_full_path () =
  let ctx, profiler = observed ~mem:256 ~block:16 () in
  let v = Tu.int_vec ctx (Array.init 64 (fun i -> i)) in
  Em.Phase.with_label ctx "outer" (fun () ->
      Emalg.Scan.iter (fun _ -> ()) v;
      Em.Phase.with_label ctx "inner" (fun () -> Emalg.Scan.iter (fun _ -> ()) v));
  let report = Em.Profile.phase_report profiler in
  Tu.check_int "outer keeps only its own I/Os" 4 (List.assoc "outer" report);
  Tu.check_int "nested I/Os key on the joined path" 4 (List.assoc "outer/inner" report);
  Tu.check_bool "no bare 'inner' key" true (not (List.mem_assoc "inner" report))

(* Regression: the same leaf label under two different parents must stay
   two separate report entries (innermost-label keying conflated them). *)
let test_shared_leaf_not_conflated () =
  let ctx, profiler = observed ~mem:256 ~block:16 () in
  let v = Tu.int_vec ctx (Array.init 64 (fun i -> i)) in
  Em.Phase.with_label ctx "sort" (fun () ->
      Em.Phase.with_label ctx "merge" (fun () -> Emalg.Scan.iter (fun _ -> ()) v));
  Em.Phase.with_label ctx "multiselect" (fun () ->
      Em.Phase.with_label ctx "merge" (fun () ->
          Emalg.Scan.iter (fun _ -> ()) v;
          Emalg.Scan.iter (fun _ -> ()) v));
  let report = Em.Profile.phase_report profiler in
  Tu.check_int "merge under sort" 4 (List.assoc "sort/merge" report);
  Tu.check_int "merge under multiselect" 8 (List.assoc "multiselect/merge" report);
  Tu.check_bool "no conflated 'merge' key" true (not (List.mem_assoc "merge" report))

let test_label_restored_on_raise () =
  let ctx = Tu.ctx () in
  (match Em.Phase.with_label ctx "doomed" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected exception"
  | exception Failure _ -> ());
  Tu.check_bool "stack restored" true (ctx.Em.Ctx.stats.Em.Stats.phase_stack = [])

let suite =
  [
    Alcotest.test_case "labels attribute I/Os" `Quick test_labels_attribute_ios;
    Alcotest.test_case "phases sum to total" `Quick test_phases_sum_to_total;
    Alcotest.test_case "nesting: full-path keys" `Quick test_nesting_full_path;
    Alcotest.test_case "shared leaf label not conflated" `Quick test_shared_leaf_not_conflated;
    Alcotest.test_case "label restored on raise" `Quick test_label_restored_on_raise;
  ]
