(* The flight recorder (Em.Flight_recorder): bounded journal semantics,
   the post-mortem dump's trace join, and the serve-level acceptance
   criterion — a budget-aborted or faulted query leaves a self-contained
   post-mortem artifact holding that query's trace events. *)

module Fr = Em.Flight_recorder
module J = Em.Json

let mk_record ?(id = 1) ?(kind = "select") ?(query = "select 1") ?(ios = 3)
    ?(rounds = 3) ?(splits = 0) ?(outcome = "ok") ?(seq_lo = 0) ?(seq_hi = 0) () =
  { Fr.id; kind; query; ios; rounds; splits; wall_ns = 42; outcome; seq_lo; seq_hi }

let test_ring_eviction () =
  let r = Fr.create ~capacity:3 () in
  for i = 1 to 5 do
    Fr.record r (mk_record ~id:i ())
  done;
  Tu.check_int "all pushes counted" 5 (Fr.recorded r);
  Tu.check_int "only capacity retained" 3 (Fr.retained r);
  Alcotest.(check (list int)) "oldest evicted first" [ 3; 4; 5 ]
    (List.map (fun rec_ -> rec_.Fr.id) (Fr.records r));
  match Fr.create ~capacity:0 () with
  | _ -> Alcotest.fail "capacity 0 must raise"
  | exception Invalid_argument _ -> ()

let parse_dump s =
  match J.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "dump should be valid JSON, got: %s" msg

let test_dump_shape_and_trace_join () =
  let trace = Em.Trace.create ~ring_capacity:64 () in
  let emit () = Em.Trace.emit trace Em.Trace.Read ~block:7 ~phase:[] in
  let r = Fr.create ~capacity:2 () in
  (* Query 1 runs over trace seqs 0-2, then gets evicted; queries 2 and 3
     over 3-4 and 5-6 are retained, so the dump's trace slice must start
     at seq 3 — the oldest retained record's window. *)
  let span id =
    let lo = Em.Trace.total trace in
    emit ();
    emit ();
    if id = 1 then emit ();
    Fr.record r
      (mk_record ~id ~seq_lo:lo ~seq_hi:(Em.Trace.total trace)
         ~outcome:(if id = 3 then "budget_exceeded" else "ok") ())
  in
  List.iter span [ 1; 2; 3 ];
  let line = Fr.dump ~trace ~now:(fun () -> 123.) ~reason:"budget_exceeded" r in
  Tu.check_bool "dump is one line" true (not (String.contains line '\n'));
  Tu.check_int "dump counted" 1 (Fr.dumps r);
  let v = parse_dump line in
  let get keys = J.path ("postmortem" :: keys) v in
  Tu.check_bool "reason" true
    (Option.bind (get [ "reason" ]) J.str = Some "budget_exceeded");
  Tu.check_bool "recorded count" true (Option.bind (get [ "recorded" ]) J.num = Some 3.);
  Tu.check_bool "retained count" true (Option.bind (get [ "retained" ]) J.num = Some 2.);
  Tu.check_bool "wall confined to its object" true
    (Option.bind (get [ "wall"; "ts_ms" ]) J.num = Some 123_000.);
  Tu.check_bool "no metrics -> null" true (get [ "metrics" ] = Some J.Null);
  (match get [ "queries" ] with
  | Some (J.List qs) ->
      Tu.check_int "only retained records dumped" 2 (List.length qs);
      let ids = List.filter_map (fun q -> Option.bind (J.member "id" q) J.num) qs in
      Alcotest.(check (list (float 0.))) "retained ids" [ 2.; 3. ] ids;
      let outcomes =
        List.filter_map (fun q -> Option.bind (J.member "outcome" q) J.str) qs
      in
      Alcotest.(check (list string)) "outcomes" [ "ok"; "budget_exceeded" ] outcomes
  | _ -> Alcotest.fail "queries must be a list");
  match get [ "trace_events" ] with
  | Some (J.List evs) ->
      let seqs = List.filter_map (fun e -> Option.bind (J.member "seq" e) J.num) evs in
      Tu.check_int "slice covers exactly the retained windows" 4 (List.length seqs);
      Tu.check_bool "slice starts at the oldest retained record" true
        (List.for_all (fun s -> s >= 3.) seqs)
  | _ -> Alcotest.fail "trace_events must be a list"

let test_dump_metrics_snapshot () =
  let reg = Em.Metrics.create () in
  Em.Metrics.set (Em.Metrics.gauge reg "level") 2.5;
  let r = Fr.create () in
  Fr.record r (mk_record ());
  let v = parse_dump (Fr.dump ~metrics:reg ~now:(fun () -> 0.) ~reason:"shutdown" r) in
  match J.path [ "postmortem"; "metrics"; "metrics" ] v with
  | Some (J.List metrics) ->
      Tu.check_bool "registry snapshot embedded" true
        (List.exists
           (fun m ->
             match Option.bind (J.member "name" m) J.str with
             | Some name -> Tu.contains ~sub:"level" name
             | None -> false)
           metrics)
  | _ -> Alcotest.fail "metrics must embed the registry snapshot"

let test_dump_to_file () =
  let path = Filename.temp_file "flight" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let r = Fr.create () in
      Fr.record r (mk_record ());
      Fr.dump_to_file ~now:(fun () -> 0.) ~reason:"kill" r ~path;
      let contents = In_channel.with_open_text path In_channel.input_all in
      Tu.check_bool "newline-terminated" true
        (String.length contents > 0 && contents.[String.length contents - 1] = '\n');
      ignore (parse_dump (String.trim contents)))

(* ---- serve-level acceptance: a budget abort leaves a post-mortem with
   that query's trace events ---- *)

let test_serve_budget_dump () =
  let dir = Filename.temp_file "flight_dir" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let n = 6_000 in
      let meta =
        {
          Core.Serve.m_n = n;
          m_mem = 1_024;
          m_block = 16;
          m_disks = 1;
          m_workload = "random-perm";
          m_seed = 5;
        }
      in
      let ctx : int Em.Ctx.t = Em.Ctx.create (Em.Params.create ~mem:1_024 ~block:16) in
      let v = Em.Vec.of_array ctx (Tu.random_perm ~seed:5 n) in
      let srv = Core.Serve.create ~io_budget:3 ~flight_dir:dir ~meta ctx v in
      ignore (Core.Serve.run_batch srv (fun _ -> ()) "select 3000");
      Tu.check_int "budget abort produced a dump" 1 (Core.Serve.flight_dumps srv);
      let path = Filename.concat dir "postmortem-001.json" in
      Tu.check_bool "artifact exists" true (Sys.file_exists path);
      let v' =
        parse_dump (String.trim (In_channel.with_open_text path In_channel.input_all))
      in
      let get keys = J.path ("postmortem" :: keys) v' in
      Tu.check_bool "reason is the typed code" true
        (Option.bind (get [ "reason" ]) J.str = Some "budget_exceeded");
      (* The aborted query's record, with its trace window... *)
      let q =
        match get [ "queries" ] with
        | Some (J.List [ q ]) -> q
        | _ -> Alcotest.fail "expected exactly the aborted query's record"
      in
      Tu.check_bool "record carries the query id" true
        (Option.bind (J.member "id" q) J.num = Some 1.);
      Tu.check_bool "record carries the raw command" true
        (Option.bind (J.member "query" q) J.str = Some "select 3000");
      Tu.check_bool "record outcome is the typed code" true
        (Option.bind (J.member "outcome" q) J.str = Some "budget_exceeded");
      let lo = Option.bind (J.path [ "trace"; "lo" ] q) J.num in
      let hi = Option.bind (J.path [ "trace"; "hi" ] q) J.num in
      let lo, hi =
        match (lo, hi) with
        | Some lo, Some hi -> (lo, hi)
        | _ -> Alcotest.fail "record must carry its trace window"
      in
      Tu.check_bool "the aborted query emitted trace events" true (hi > lo);
      (* ...and the dump's trace slice actually contains them. *)
      (match get [ "trace_events" ] with
      | Some (J.List evs) ->
          let seqs =
            List.filter_map (fun e -> Option.bind (J.member "seq" e) J.num) evs
          in
          Tu.check_bool "dump holds the query's trace events" true
            (List.exists (fun s -> s >= lo && s < hi) seqs)
      | _ -> Alcotest.fail "trace_events must be a list");
      (* Metrics snapshot rides along, self-contained. *)
      Tu.check_bool "metrics snapshot embedded" true
        (match get [ "metrics" ] with Some (J.Obj _) -> true | _ -> false);
      Core.Serve.close srv;
      Em.Ctx.close ctx)

let suite =
  [
    Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
    Alcotest.test_case "dump shape + trace join" `Quick test_dump_shape_and_trace_join;
    Alcotest.test_case "dump metrics snapshot" `Quick test_dump_metrics_snapshot;
    Alcotest.test_case "dump_to_file" `Quick test_dump_to_file;
    Alcotest.test_case "serve budget abort leaves a post-mortem" `Quick
      test_serve_budget_dump;
  ]
