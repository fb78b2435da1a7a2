(* Telemetry emitter (Em.Telemetry): the frame cadence policy under an
   injected clock, the frame grammar's cost/wall compartment split, and the
   `em_repro top` summariser. *)

module T = Em.Telemetry
module J = Em.Json

let parse_ok s =
  match J.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "%S should parse, got: %s" s msg

(* ---- cadence policy ---- *)

(* An emitter writing into a buffer, driven by a fake clock. *)
let fake_emitter ?every_queries ?every_seconds () =
  let clock = ref 0. in
  let lines = ref [] in
  let t =
    T.create ?every_queries ?every_seconds
      ~now:(fun () -> !clock)
      (T.fn_sink (fun l -> lines := l :: !lines))
  in
  (t, clock, fun () -> List.rev !lines)

let empty = J.Obj []
let wall () = empty

let test_cadence_every_queries () =
  let t, _, lines = fake_emitter ~every_queries:3 () in
  for q = 1 to 10 do
    T.tick t ~queries:q ~cost:empty ~wall
  done;
  Tu.check_int "every 3rd query emits" 3 (List.length (lines ()));
  Tu.check_int "frames counter agrees" 3 (T.frames t);
  Tu.check_bool "frames carry the due query counts" true
    (List.for_all2
       (fun line q -> Tu.contains ~sub:(Printf.sprintf "\"queries\":%d" q) line)
       (lines ()) [ 3; 6; 9 ])

let test_cadence_every_seconds () =
  let t, clock, lines = fake_emitter ~every_seconds:10. () in
  T.tick t ~queries:1 ~cost:empty ~wall;
  Tu.check_int "too early: nothing" 0 (List.length (lines ()));
  clock := 10.;
  T.tick t ~queries:2 ~cost:empty ~wall;
  Tu.check_int "interval elapsed: frame" 1 (List.length (lines ()));
  clock := 15.;
  T.tick t ~queries:3 ~cost:empty ~wall;
  Tu.check_int "interval restarts at emission" 1 (List.length (lines ()));
  clock := 20.;
  T.tick t ~queries:4 ~cost:empty ~wall;
  Tu.check_int "next interval fires" 2 (List.length (lines ()))

let test_cadence_either () =
  (* Both cadences set: whichever comes first wins. *)
  let t, clock, lines = fake_emitter ~every_queries:100 ~every_seconds:5. () in
  clock := 6.;
  T.tick t ~queries:1 ~cost:empty ~wall;
  Tu.check_int "time cadence fires before the query one" 1 (List.length (lines ()));
  T.tick t ~queries:101 ~cost:empty ~wall;
  Tu.check_int "query cadence fires on its own" 2 (List.length (lines ()))

let test_cadence_default_and_validation () =
  let t, _, lines = fake_emitter () in
  T.tick t ~queries:1 ~cost:empty ~wall;
  T.tick t ~queries:2 ~cost:empty ~wall;
  Tu.check_int "no cadence flags -> a frame per query" 2 (List.length (lines ()));
  (match T.create ~every_queries:0 (T.fn_sink ignore) with
  | _ -> Alcotest.fail "every_queries 0 must raise"
  | exception Invalid_argument _ -> ());
  match T.create ~every_seconds:0. (T.fn_sink ignore) with
  | _ -> Alcotest.fail "every_seconds 0 must raise"
  | exception Invalid_argument _ -> ()

(* ---- frame grammar and close semantics ---- *)

let test_frame_shape () =
  let t, clock, lines = fake_emitter ~every_queries:1 () in
  clock := 1.5;
  let wall_calls = ref 0 in
  let wall () =
    incr wall_calls;
    J.Obj [ ("ts_ms", J.Int 1500) ]
  in
  let ios42 = J.Obj [ ("ios", J.Int 42) ] in
  T.tick t ~queries:1 ~cost:ios42 ~wall;
  T.alert t ~queries:1 ~cost:ios42 ~wall;
  T.final t ~queries:1 ~cost:ios42 ~wall;
  (match lines () with
  | [ tick_l; alert_l; final_l ] ->
      Alcotest.(check string) "tick frame is canonical"
        "{\"frame\":\"telemetry\",\"seq\":1,\"queries\":1,\"cost\":{\"ios\":42},\"wall\":{\"ts_ms\":1500}}"
        tick_l;
      Tu.check_bool "alert frame tagged" true
        (Tu.contains ~sub:"\"frame\":\"alert\",\"seq\":2" alert_l);
      Tu.check_bool "final frame tagged" true
        (Tu.contains ~sub:"\"frame\":\"final\",\"seq\":3" final_l);
      (* Each emitted frame parses back with the bundled reader. *)
      List.iter (fun l -> ignore (parse_ok l)) [ tick_l; alert_l; final_l ]
  | l -> Alcotest.failf "expected 3 frames, got %d" (List.length l));
  Tu.check_int "wall thunk evaluated once per emitted frame" 3 !wall_calls;
  T.close t;
  T.close t;
  T.tick t ~queries:9 ~cost:empty ~wall;
  T.alert t ~queries:9 ~cost:empty ~wall;
  Tu.check_int "frames after close are dropped" 3 (List.length (lines ()))

let test_wall_thunk_lazy () =
  let t, _, _ = fake_emitter ~every_queries:5 () in
  let wall () = Alcotest.fail "wall thunk must not run for a frame not due" in
  T.tick t ~queries:1 ~cost:empty ~wall;
  T.tick t ~queries:4 ~cost:empty ~wall

(* ---- summarize (the `em_repro top` renderer) ---- *)

let frame_line =
  "{\"frame\":\"telemetry\",\"seq\":3,\"queries\":10,\"cost\":{\"ios\":120,\"cache_hits\":30,\"cache_misses\":10,\"leaves\":8,\"sorted_leaves\":5,\"splits\":7,\"drift_ratio\":3.2},\"wall\":{\"ts_ms\":2000,\"qps\":4.00,\"p50_ms\":0.125,\"p99_ms\":0.500}}"

let test_summarize () =
  (match T.summarize frame_line with
  | Error msg -> Alcotest.failf "frame should summarize, got: %s" msg
  | Ok block ->
      List.iter
        (fun sub ->
          Tu.check_bool (Printf.sprintf "block shows %S" sub) true
            (Tu.contains ~sub block))
        [
          "frame       #3 (telemetry)";
          "queries     10";
          "qps         4.00";
          "latency     p50 0.125 ms, p99 0.500 ms";
          "I/Os        120 total, 12.0 per query";
          "cache       75% hit rate (30 hits, 10 misses)";
          "refinement  5/8 leaves sorted, 7 splits";
          "drift       running ratio 3.2000";
        ];
      Tu.check_bool "clean frame has no alert banner" true
        (not (Tu.contains ~sub:"BOUND ALERT" block)));
  (* Interval qps: 5 more queries over 1 s beats the 4.0 session average. *)
  let prev =
    "{\"frame\":\"telemetry\",\"seq\":2,\"queries\":5,\"cost\":{},\"wall\":{\"ts_ms\":1000}}"
  in
  (match T.summarize ~prev frame_line with
  | Ok block -> Tu.check_bool "interval qps from prev frame" true
      (Tu.contains ~sub:"qps         5.00" block)
  | Error msg -> Alcotest.failf "unexpected error: %s" msg);
  (* An alert frame renders the banner. *)
  let alert_line =
    "{\"frame\":\"alert\",\"seq\":4,\"queries\":11,\"cost\":{\"drift_ratio\":7.5},\"wall\":{}}"
  in
  (match T.summarize alert_line with
  | Ok block -> Tu.check_bool "alert banner" true (Tu.contains ~sub:"** BOUND ALERT **" block)
  | Error msg -> Alcotest.failf "unexpected error: %s" msg);
  (match T.summarize "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not summarize");
  match T.summarize "{\"seq\":1}" with
  | Error msg -> Tu.check_bool "non-frame diagnostic" true (Tu.contains ~sub:"frame" msg)
  | Ok _ -> Alcotest.fail "frameless object must not summarize"

(* ---- file sink round trip ---- *)

let test_file_sink_round_trip () =
  let path = Filename.temp_file "telemetry" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let t =
        T.create ~every_queries:1 ~now:(fun () -> 0.) (T.file_sink path)
      in
      T.tick t ~queries:1 ~cost:(J.Obj [ ("ios", J.Int 1) ]) ~wall;
      T.final t ~queries:1 ~cost:(J.Obj [ ("ios", J.Int 1) ]) ~wall;
      T.close t;
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
      in
      Tu.check_int "one line per frame" 2 (List.length lines);
      List.iter (fun l -> ignore (parse_ok l)) lines)

let suite =
  [
    Alcotest.test_case "cadence: every N queries" `Quick test_cadence_every_queries;
    Alcotest.test_case "cadence: every T seconds" `Quick test_cadence_every_seconds;
    Alcotest.test_case "cadence: either fires" `Quick test_cadence_either;
    Alcotest.test_case "cadence: default + validation" `Quick
      test_cadence_default_and_validation;
    Alcotest.test_case "frame grammar + close" `Quick test_frame_shape;
    Alcotest.test_case "wall thunk is lazy" `Quick test_wall_thunk_lazy;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "file sink round trip" `Quick test_file_sink_round_trip;
  ]
