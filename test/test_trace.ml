(* Tests for the I/O trace subsystem: event emission from the device,
   sequential/random classification and the seek count, ring-buffer bounds,
   sinks, and the streaming block-reuse report. *)

let read_all v =
  Em.Reader.with_reader v (fun r ->
      while Em.Reader.has_next r do
        ignore (Em.Reader.next r)
      done)

let test_device_emits_events () =
  let ctx = Tu.ctx ~mem:64 ~block:8 () in
  let v = Tu.int_vec ctx (Array.init 24 (fun i -> i)) in
  read_all v;
  let events = Em.Trace.events ctx.Em.Ctx.trace in
  Tu.check_int "one event per I/O" 3 (List.length events);
  Tu.check_int "total matches stats" (Em.Stats.ios ctx.Em.Ctx.stats)
    (Em.Trace.total ctx.Em.Ctx.trace);
  List.iteri
    (fun i (e : Em.Trace.event) ->
      Tu.check_int "sequence numbering" i e.Em.Trace.seq;
      Tu.check_bool "all reads" true (e.Em.Trace.op = Em.Trace.Read))
    events

let test_locality_classification () =
  let t = Em.Trace.create () in
  Em.Trace.emit t Em.Trace.Read ~block:10 ~phase:[];
  Em.Trace.emit t Em.Trace.Read ~block:11 ~phase:[];
  Em.Trace.emit t Em.Trace.Read ~block:11 ~phase:[];
  Em.Trace.emit t Em.Trace.Write ~block:3 ~phase:[];
  Em.Trace.emit t Em.Trace.Read ~block:4 ~phase:[];
  let expect =
    [ Em.Trace.Random; Em.Trace.Sequential; Em.Trace.Sequential; Em.Trace.Random;
      Em.Trace.Sequential ]
  in
  List.iter2
    (fun (e : Em.Trace.event) want ->
      Tu.check_bool
        (Printf.sprintf "event %d locality" e.Em.Trace.seq)
        true
        (e.Em.Trace.locality = want))
    (Em.Trace.events t) expect;
  Tu.check_int "seeks count the random events" 2 (Em.Trace.seeks t)

let test_ring_is_bounded () =
  let t = Em.Trace.create ~ring_capacity:4 () in
  for i = 0 to 9 do
    Em.Trace.emit t Em.Trace.Write ~block:(2 * i) ~phase:[]
  done;
  let events = Em.Trace.events t in
  Tu.check_int "ring keeps capacity" 4 (List.length events);
  Tu.check_int "total unaffected" 10 (Em.Trace.total t);
  Tu.check_int "dropped count" 6 (Em.Trace.dropped t);
  Tu.check_int "oldest retained is #6" 6 (List.hd events).Em.Trace.seq

let test_reset () =
  let t = Em.Trace.create ~ring_capacity:4 () in
  for i = 0 to 9 do
    Em.Trace.emit t Em.Trace.Read ~block:i ~phase:[]
  done;
  Em.Trace.reset t;
  Tu.check_int "ring cleared" 0 (List.length (Em.Trace.events t));
  Tu.check_int "total cleared" 0 (Em.Trace.total t);
  Tu.check_int "seeks cleared" 0 (Em.Trace.seeks t);
  Em.Trace.emit t Em.Trace.Read ~block:9 ~phase:[];
  Tu.check_bool "first event after reset is a seek" true
    ((List.hd (Em.Trace.events t)).Em.Trace.locality = Em.Trace.Random)

let test_collector_and_seeks () =
  let t = Em.Trace.create ~ring_capacity:2 () in
  let collect, collected = Em.Trace.collector () in
  Em.Trace.add_sink t collect;
  for i = 0 to 7 do
    let op = if i mod 2 = 0 then Em.Trace.Read else Em.Trace.Write in
    Em.Trace.emit t op ~block:(3 * i) ~phase:[]
  done;
  Tu.check_int "collector is unbounded" 8 (List.length (collected ()));
  Tu.check_int "every jump is a seek, beyond the ring too" 8 (Em.Trace.seeks t)

(* [Trace.reset] must clear stateful sinks too, not just the ring — the
   collector used to keep stale events across a reset. *)
let test_reset_clears_sinks () =
  let t = Em.Trace.create () in
  let collect, collected = Em.Trace.collector () in
  let reuse, summary = Em.Trace_report.sink () in
  let custom_seen = ref 0 and custom_resets = ref 0 in
  Em.Trace.add_sink t collect;
  Em.Trace.add_sink t reuse;
  Em.Trace.add_sink t
    (Em.Trace.custom_sink
       ~reset:(fun () -> incr custom_resets)
       (fun _ -> incr custom_seen));
  for i = 0 to 4 do
    Em.Trace.emit t Em.Trace.Read ~block:i ~phase:[]
  done;
  Em.Trace.reset t;
  Tu.check_int "collector emptied" 0 (List.length (collected ()));
  Tu.check_int "reuse sink emptied" 0 (summary ()).Em.Trace_report.distinct_blocks;
  Tu.check_int "custom on_reset hook fired" 1 !custom_resets;
  Em.Trace.emit t Em.Trace.Read ~block:7 ~phase:[];
  Tu.check_int "collector counts fresh events only" 1 (List.length (collected ()));
  Tu.check_int "reuse sink counts fresh events only" 1
    (summary ()).Em.Trace_report.distinct_blocks;
  Tu.check_int "custom sink kept receiving" 6 !custom_seen

let test_phase_paths_recorded () =
  let ctx = Tu.ctx ~mem:64 ~block:8 () in
  let v = Tu.int_vec ctx (Array.init 8 (fun i -> i)) in
  Em.Phase.with_label ctx "outer" (fun () ->
      Em.Phase.with_label ctx "inner" (fun () -> read_all v));
  match Em.Trace.events ctx.Em.Ctx.trace with
  | [ e ] ->
      Tu.check_bool "innermost-first phase path" true
        (e.Em.Trace.phase = [ "inner"; "outer" ])
  | events -> Alcotest.failf "expected 1 event, got %d" (List.length events)

let test_jsonl_sink () =
  let path = Filename.temp_file "trace" ".jsonl" in
  let oc = open_out path in
  let t = Em.Trace.create () in
  Em.Trace.add_sink t (Em.Trace.jsonl_sink oc);
  Em.Trace.emit t Em.Trace.Read ~block:5 ~phase:[ "merge"; "sort" ];
  Em.Trace.emit t Em.Trace.Write ~block:6 ~phase:[];
  close_out oc;
  let ic = open_in path in
  let l1 = input_line ic in
  let l2 = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string)
    "first event json"
    "{\"seq\":0,\"op\":\"read\",\"kind\":\"io\",\"block\":5,\"phase\":[\"merge\",\"sort\"],\"locality\":\"random\"}"
    l1;
  Alcotest.(check string)
    "second event json"
    "{\"seq\":1,\"op\":\"write\",\"kind\":\"io\",\"block\":6,\"phase\":[],\"locality\":\"sequential\"}"
    l2

let test_report_histograms () =
  let t = Em.Trace.create () in
  let reuse, summary = Em.Trace_report.sink () in
  Em.Trace.add_sink t reuse;
  (* Block 0 read 3x, block 1 read 1x, block 2 written 2x. *)
  List.iter
    (fun (op, b) -> Em.Trace.emit t op ~block:b ~phase:[])
    [
      (Em.Trace.Read, 0);
      (Em.Trace.Read, 0);
      (Em.Trace.Read, 0);
      (Em.Trace.Read, 1);
      (Em.Trace.Write, 2);
      (Em.Trace.Write, 2);
    ];
  let s = summary () in
  Tu.check_int "distinct blocks" 3 s.Em.Trace_report.distinct_blocks;
  Alcotest.(check (list (pair int int)))
    "reread histogram" [ (1, 1); (3, 1) ] s.Em.Trace_report.reread_histogram;
  Alcotest.(check (list (pair int int)))
    "rewrite histogram" [ (2, 1) ] s.Em.Trace_report.rewrite_histogram;
  Tu.check_int "no round ids, no windows" 0 s.Em.Trace_report.scheduling_windows

(* Scheduling windows are the distinct round ids, on a real D = 2 machine:
   one window per unbatched I/O, so a plain scan has as many as I/Os. *)
let test_report_windows () =
  let trace = Em.Trace.create () in
  let reuse, summary = Em.Trace_report.sink () in
  Em.Trace.add_sink trace reuse;
  let ctx : int Em.Ctx.t = Em.Ctx.create ~trace ~disks:2 (Tu.params ~mem:64 ~block:8 ()) in
  let v = Tu.int_vec ctx (Array.init 64 (fun i -> i)) in
  Em.Stats.with_window ctx.Em.Ctx.stats (fun () -> read_all v);
  read_all v;
  let s = summary () in
  Tu.check_int "8 blocks" 8 s.Em.Trace_report.distinct_blocks;
  Alcotest.(check (list (pair int int)))
    "each read twice" [ (2, 8) ] s.Em.Trace_report.reread_histogram;
  Tu.check_int "one batched window, then one per unbatched read" 9
    s.Em.Trace_report.scheduling_windows

let test_linked_ctx_shares_tracer () =
  let ctx = Tu.ctx ~mem:64 ~block:8 () in
  let pair_ctx : (int * int) Em.Ctx.t = Em.Ctx.linked ctx in
  let v = Em.Writer.with_writer pair_ctx (fun w -> Em.Writer.push w (1, 2)) in
  ignore v;
  Tu.check_int "event visible on parent tracer" 1 (Em.Trace.total ctx.Em.Ctx.trace)

(* EM_TRACE_RING: the env default behind `--trace-ring`, same grammar as
   the other EM_* knobs (unset/empty -> default, else a positive int). *)
let test_env_ring_capacity () =
  let with_env v f =
    let old = Sys.getenv_opt Em.Trace.ring_env_var in
    Unix.putenv Em.Trace.ring_env_var v;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv Em.Trace.ring_env_var (Option.value old ~default:""))
      f
  in
  Tu.check_int "unset -> default" Em.Trace.default_ring_capacity
    (with_env "" Em.Trace.env_ring_capacity);
  Tu.check_int "set -> parsed" 3 (with_env "3" Em.Trace.env_ring_capacity);
  with_env "3" (fun () ->
      let t = Em.Trace.create () in
      for i = 0 to 9 do
        Em.Trace.emit t Em.Trace.Write ~block:i ~phase:[]
      done;
      Tu.check_int "create honours the env capacity" 3
        (List.length (Em.Trace.events t)));
  with_env "3" (fun () ->
      let t = Em.Trace.create ~ring_capacity:5 () in
      for i = 0 to 9 do
        Em.Trace.emit t Em.Trace.Write ~block:i ~phase:[]
      done;
      Tu.check_int "explicit capacity wins over the env" 5
        (List.length (Em.Trace.events t)));
  List.iter
    (fun bad ->
      match with_env bad Em.Trace.env_ring_capacity with
      | _ -> Alcotest.failf "%S must be rejected" bad
      | exception Invalid_argument _ -> ())
    [ "0"; "-4"; "many"; "3.5" ]

let suite =
  [
    Alcotest.test_case "device emits one event per I/O" `Quick test_device_emits_events;
    Alcotest.test_case "sequential vs random classification" `Quick
      test_locality_classification;
    Alcotest.test_case "ring buffer is bounded" `Quick test_ring_is_bounded;
    Alcotest.test_case "reset clears ring and numbering" `Quick test_reset;
    Alcotest.test_case "collector sink and seek count" `Quick test_collector_and_seeks;
    Alcotest.test_case "reset clears stateful sinks" `Quick test_reset_clears_sinks;
    Alcotest.test_case "phase paths recorded on events" `Quick test_phase_paths_recorded;
    Alcotest.test_case "jsonl sink format" `Quick test_jsonl_sink;
    Alcotest.test_case "report: reuse histograms" `Quick test_report_histograms;
    Alcotest.test_case "report: scheduling windows" `Quick test_report_windows;
    Alcotest.test_case "linked ctx shares the tracer" `Quick test_linked_ctx_shares_tracer;
    Alcotest.test_case "EM_TRACE_RING env default" `Quick test_env_ring_capacity;
  ]
