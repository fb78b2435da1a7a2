(* Tests for per-phase I/O attribution, read through an attached profiler
   and checked against the trace events themselves. *)

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

(* ---- agreement with the event stream ---- *)

(* The reference the profiler must agree with: a fold over every trace
   event, grouped by the phase path the event carries. *)
let event_path (e : Em.Trace.event) = List.rev e.Em.Trace.phase

(* Exclusive I/Os per joined path, unlabeled events as "(other)". *)
let exclusive_ios events =
  let rows = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let key = match event_path e with [] -> "(other)" | p -> Em.Profile.path_name p in
      Hashtbl.replace rows key (1 + Option.value (Hashtbl.find_opt rows key) ~default:0))
    events;
  List.sort compare (Hashtbl.fold (fun key ios acc -> (key, ios) :: acc) rows [])

let rec is_prefix p q =
  match (p, q) with
  | [], _ -> true
  | x :: p, y :: q -> x = y && is_prefix p q
  | _ :: _, [] -> false

(* Each event with whether it was a recovery re-attempt.  A re-attempt that
   itself faults is traced as [Faulted], not [Retry]; with transient faults
   only, it is recognisable by position: the retry loop is synchronous, so
   it directly follows the faulted attempt on the same block. *)
let with_retry_flags events =
  let _, flagged =
    List.fold_left
      (fun (prev, acc) (e : Em.Trace.event) ->
        let retry =
          match (e.Em.Trace.kind, prev) with
          | Em.Trace.Retry, _ -> true
          | Em.Trace.Faulted _, Some (p : Em.Trace.event) -> (
              match p.Em.Trace.kind with
              | Em.Trace.Faulted _ ->
                  p.Em.Trace.block = e.Em.Trace.block && p.Em.Trace.op = e.Em.Trace.op
              | Em.Trace.Io | Em.Trace.Retry -> false)
          | _ -> false
        in
        (Some e, (e, retry) :: acc))
      (None, []) events
  in
  List.rev flagged

(* (I/Os, faulted attempts, retries) of the events at or below [path]. *)
let inclusive flagged path =
  List.fold_left
    (fun (ios, faults, retries) (e, retry) ->
      if not (is_prefix path (event_path e)) then (ios, faults, retries)
      else
        let faulted = match e.Em.Trace.kind with Em.Trace.Faulted _ -> 1 | _ -> 0 in
        (ios + 1, faults + faulted, retries + Bool.to_int retry))
    (0, 0, 0) flagged

let agreement_jobs =
  let n = 4_000 in
  let data = Tu.random_perm ~seed:5 n in
  let spec = { Core.Problem.n; k = 8; a = 100; b = 1_000 } in
  let vec ctx = Tu.int_vec ctx data in
  [
    ("splitters", fun ctx -> Em.Vec.free (Core.Splitters.solve Tu.icmp (vec ctx) spec));
    ( "partition",
      fun ctx -> Array.iter Em.Vec.free (Core.Partitioning.solve Tu.icmp (vec ctx) spec) );
    ( "multiselect",
      fun ctx -> ignore (Core.Multi_select.select Tu.icmp (vec ctx) ~ranks:[| 1; n / 3; n |]) );
    ("quantiles", fun ctx -> Em.Vec.free (Core.Splitters.exact_quantiles Tu.icmp (vec ctx) ~k:8));
    ("sort", fun ctx -> Em.Vec.free (Emalg.External_sort.sort Tu.icmp (vec ctx)));
  ]

let test_profile_agrees_with_events () =
  List.iter
    (fun (disks, faulty) ->
      List.iter
        (fun (name, run) ->
          let what =
            Printf.sprintf "%s at D=%d%s" name disks (if faulty then " under faults" else "")
          in
          let trace = Em.Trace.create () in
          let collect, collected = Em.Trace.collector () in
          Em.Trace.add_sink trace collect;
          let ctx : int Em.Ctx.t =
            Em.Ctx.create ~trace ~disks (Tu.params ~mem:1024 ~block:16 ())
          in
          let profiler = Em.Profile.create () in
          Em.Profile.attach profiler ctx.Em.Ctx.stats;
          if faulty then begin
            Em.Ctx.arm ctx;
            Em.Ctx.inject ctx
              (Em.Fault.seeded ~seed:disks ~p:0.02
                 [ Em.Fault.Transient_read; Em.Fault.Transient_write ])
          end;
          run ctx;
          let events = collected () in
          let flagged = with_retry_flags events in
          Alcotest.(check (list (pair string int)))
            (what ^ ": phase_report = event fold")
            (exclusive_ios events)
            (List.sort compare (Em.Profile.phase_report profiler));
          List.iter
            (fun s ->
              let c = s.Em.Profile.cost in
              Alcotest.(check (triple int int int))
                (Printf.sprintf "%s: span %s (ios, faults, retries)" what
                   (Em.Profile.path_name s.Em.Profile.path))
                (inclusive flagged s.Em.Profile.path)
                (Em.Profile.span_ios s, c.Em.Stats.d_faults, c.Em.Stats.d_retries))
            (Em.Profile.spans profiler);
          let _, faults, _ = inclusive flagged [] in
          Tu.check_bool (what ^ ": faults fired iff injected") faulty (faults > 0))
        agreement_jobs)
    [ (1, false); (2, false); (1, true); (2, true) ]

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
    Alcotest.test_case "profile agrees with the event fold" `Quick
      test_profile_agrees_with_events;
  ]
