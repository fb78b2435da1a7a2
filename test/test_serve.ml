(* The serve-session engine (Core.Serve): exception safety of the batch
   window, typed error replies (validation, faults-after-retries, budget),
   reply determinism under a fixed fault plan, malformed-input floods, and
   the state-file round trip behind `em_repro serve --restore`. *)

module Os = Emalg.Online_select

let n = 6_000
let mem = 1_024
let block = 16

let meta =
  {
    Core.Serve.m_n = n;
    m_mem = mem;
    m_block = block;
    m_disks = 1;
    m_workload = "random-perm";
    m_seed = 5;
  }

(* A frozen injected clock keeps every wall-derived reply field (uptime_ms)
   deterministic, so transcript-equality checks — notably the fault-reply
   determinism pair — can byte-compare whole replies without flaking when a
   run straddles a millisecond boundary under load. *)
let make_server ?checkpoint_every ?io_budget ?max_retries ?state_path ?restore () =
  let ctx : int Em.Ctx.t = Em.Ctx.create (Em.Params.create ~mem ~block) in
  let v = Em.Vec.of_array ctx (Tu.random_perm ~seed:5 n) in
  let srv =
    Core.Serve.create ?checkpoint_every ?io_budget ?max_retries ?state_path ?restore
      ~clock:(fun () -> 0.) ~meta ctx v
  in
  (ctx, srv)

let teardown ctx srv =
  Core.Serve.close srv;
  Em.Ctx.close ctx

(* Collect emitted reply lines through a buffer-backed [emit]. *)
let collector () =
  let lines = ref [] in
  ((fun line -> lines := line :: !lines), fun () -> List.rev !lines)

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let contains ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  lsub = 0 || go 0

(* ---- satellite: a query failing inside the batch window ---- *)

(* A budget abort raises out of [Online_select.query] inside the batch's
   [Ctx.io_window]; the window must close, the failing query must still
   produce an error reply, and the rest of the batch — and the server —
   must keep answering. *)
let test_window_error_reply () =
  let ctx, srv = make_server ~io_budget:3 () in
  let emit, emitted = collector () in
  let ok = Core.Serve.run_batch srv emit "select 3000;stats" in
  Tu.check_bool "batch survives the failed query" true ok;
  Tu.check_int "scheduling window closed after the raise" 0
    ctx.Em.Ctx.stats.Em.Stats.window_depth;
  (match emitted () with
  | [ err; stats ] ->
      Tu.check_bool "failed query replied with budget_exceeded" true
        (contains ~sub:"\"error\":\"budget_exceeded\"" err);
      Tu.check_bool "budget reply carries the budget" true (contains ~sub:"\"budget\":3" err);
      Tu.check_bool "rest of the batch still answered" true
        (has_prefix ~prefix:"{\"session\":" stats)
  | lines -> Alcotest.failf "expected 2 replies, got %d" (List.length lines));
  (* Lift the budget: the very same query must now succeed — the server
     loop never died. *)
  Os.set_io_budget (Core.Serve.session srv) None;
  let emit2, emitted2 = collector () in
  Tu.check_bool "server keeps serving" true (Core.Serve.run_batch srv emit2 "select 3000");
  (match emitted2 () with
  | [ r ] -> Tu.check_bool "query answered after the error" true (contains ~sub:"\"values\":[2999]" r)
  | _ -> Alcotest.fail "expected 1 reply");
  teardown ctx srv

(* ---- satellite: quantile/range argument validation ---- *)

let test_parse_validation () =
  let err s =
    match Core.Serve.parse_command s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%S should be rejected at parse time" s
  in
  let ok s =
    match Core.Serve.parse_command s with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "%S should parse, got %s" s msg
  in
  List.iter err
    [
      "quantile nan";
      "quantile -nan";
      "quantile inf";
      "quantile -inf";
      "quantile 0";
      "quantile 0.0";
      "quantile -0.25";
      "quantile 1.5";
      "quantile";
      "quantile x";
      "range 9 3";
      "range 3";
      "range a b";
      "select";
      "select 1.5";
      "";
      "   ";
      "bogus 3";
    ];
  List.iter ok
    [ "quantile 1"; "quantile 0.5"; "quantile 1e-9"; "range 3 9"; "range 4 4"; "select 1" ]

(* Malformed-line flood: every garbage line gets exactly one error reply and
   the session is untouched (no query ever reaches it). *)
let test_malformed_flood () =
  let ctx, srv = make_server () in
  let emit, emitted = collector () in
  let rng = Tu.rng 99 in
  for i = 0 to 199 do
    let junk =
      match i mod 5 with
      | 0 -> Printf.sprintf "garbage %d" (Tu.next_int rng 1000)
      | 1 -> "quantile nan"
      | 2 -> "range 9 3"
      | 3 -> String.make (1 + Tu.next_int rng 40) ';'
      | _ -> "select x\"y\\z"
    in
    ignore (Core.Serve.run_batch srv emit junk)
  done;
  Tu.check_bool "every reply is an error" true
    (List.for_all (has_prefix ~prefix:"{\"error\":") (emitted ()));
  Tu.check_int "window closed" 0 ctx.Em.Ctx.stats.Em.Stats.window_depth;
  Tu.check_int "no query reached the session" 0 (Os.summary (Core.Serve.session srv)).Os.queries;
  let emit2, emitted2 = collector () in
  ignore (Core.Serve.run_batch srv emit2 "select 17");
  (match emitted2 () with
  | [ r ] -> Tu.check_bool "real query still answered" true (contains ~sub:"\"values\":[16]" r)
  | _ -> Alcotest.fail "expected 1 reply");
  teardown ctx srv

(* ---- typed fault replies, deterministic under a fixed plan ---- *)

let faulted_transcript () =
  let ctx, srv = make_server ~max_retries:2 () in
  Em.Ctx.arm ~policy:{ Em.Device.default_policy with Em.Device.max_retries = 2 } ctx;
  Em.Ctx.inject ctx (Em.Fault.seeded ~seed:9 ~p:1.0 [ Em.Fault.Permanent_read ]);
  let emit, emitted = collector () in
  ignore (Core.Serve.run_batch srv emit "select 3000;stats");
  ignore (Core.Serve.run_batch srv emit "quantile 0.5");
  let lines = emitted () in
  Tu.check_int "window closed despite faults" 0 ctx.Em.Ctx.stats.Em.Stats.window_depth;
  teardown ctx srv;
  lines

let test_fault_reply_determinism () =
  let a = faulted_transcript () in
  let b = faulted_transcript () in
  Tu.check_bool "two runs under the same fault plan emit identical replies" true (a = b);
  match a with
  | [ q1; stats; q2 ] ->
      Tu.check_bool "faulted query replied with a typed code" true
        (contains ~sub:"\"error\":\"read_failed\"" q1
        || contains ~sub:"\"error\":\"io_fault\"" q1);
      Tu.check_bool "reply counts the query-level retries" true
        (contains ~sub:"\"retries\":2" q1);
      Tu.check_bool "server survived to answer stats" true
        (has_prefix ~prefix:"{\"session\":" stats);
      Tu.check_bool "second faulted query also typed" true (contains ~sub:"\"error\"" q2)
  | lines -> Alcotest.failf "expected 3 replies, got %d" (List.length lines)

(* ---- budget aborts keep monotone refinement ---- *)

let test_budget_keeps_refinement () =
  let ctx, srv = make_server ~io_budget:4 () in
  let emit, emitted = collector () in
  let rec drive tries =
    if tries > 500 then Alcotest.fail "budgeted query never completed";
    ignore (Core.Serve.run_batch srv emit "select 3000");
    let last = List.hd (List.rev (emitted ())) in
    if contains ~sub:"\"error\":\"budget_exceeded\"" last then drive (tries + 1)
    else last
  in
  let final = drive 0 in
  Tu.check_bool "query eventually completes under a tiny budget" true
    (contains ~sub:"\"values\":[2999]" final);
  let all = emitted () in
  Tu.check_bool "at least one budget abort happened first" true
    (List.exists (contains ~sub:"\"error\":\"budget_exceeded\"") all);
  (* Each abort kept its refinement: total attempts stay far below what
     re-doing the work from scratch every time would need. *)
  Tu.check_bool "monotone refinement bounds the attempts" true (List.length all < 50);
  let sum = Os.summary (Core.Serve.session srv) in
  Tu.check_bool "aborted refinement accounted in the session" true (sum.Os.refine_ios > 0);
  Tu.check_int "aborted queries not counted as answered" 1 sum.Os.queries;
  teardown ctx srv

(* ---- crashed machine halts the loop, state file survives ---- *)

let test_crash_halts_loop () =
  let state = Filename.temp_file "serve_state" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove state with Sys_error _ -> ())
    (fun () ->
      let ctx, srv = make_server ~checkpoint_every:2 ~state_path:state () in
      let emit, emitted = collector () in
      ignore (Core.Serve.run_batch srv emit "select 3000");
      let bytes_before = In_channel.with_open_bin state In_channel.input_all in
      Em.Ctx.arm ctx;
      Em.Ctx.inject ctx (Em.Fault.every_nth ~n:1 Em.Fault.Crash);
      let ok = Core.Serve.run_batch srv emit "select 17" in
      Tu.check_bool "crash stops the serve loop" true (not ok);
      Tu.check_bool "crash flagged on the server" true (Core.Serve.crashed srv);
      let last = List.hd (List.rev (emitted ())) in
      Tu.check_bool "crash replied with its typed code" true
        (contains ~sub:"\"error\":\"crashed\"" last);
      (* A crashed process does not get to write: the shutdown path must
         leave the last good state file untouched. *)
      Core.Serve.shutdown_checkpoint srv;
      let bytes_after = In_channel.with_open_bin state In_channel.input_all in
      Tu.check_bool "state file untouched after the crash" true (bytes_before = bytes_after);
      teardown ctx srv)

(* ---- state-file round trip (the --restore path, in-process) ---- *)

let test_state_file_round_trip () =
  let state = Filename.temp_file "serve_state" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove state with Sys_error _ -> ())
    (fun () ->
      let ctx1, srv1 = make_server ~checkpoint_every:2 ~state_path:state () in
      let emit, _ = collector () in
      List.iter
        (fun line -> ignore (Core.Serve.run_batch srv1 emit line))
        [ "select 3000"; "quantile 0.1"; "select 17;range 40 45" ];
      Core.Serve.shutdown_checkpoint srv1;
      let intervals1 = Os.intervals (Core.Serve.session srv1) in
      let summary1 = Os.summary (Core.Serve.session srv1) in
      (* The dead process's RAM is gone; a fresh server resumes from the
         file alone. *)
      let ctx2, srv2 = make_server ~state_path:state ~restore:true () in
      Tu.check_bool "server restored from the state file" true (Core.Serve.restored srv2);
      Tu.check_bool "leaf partition survives the process boundary" true
        (intervals1 = Os.intervals (Core.Serve.session srv2));
      let summary2 = Os.summary (Core.Serve.session srv2) in
      Tu.check_int "queries counter survives" summary1.Os.queries summary2.Os.queries;
      Tu.check_int "refine_ios counter survives" summary1.Os.refine_ios summary2.Os.refine_ios;
      Tu.check_int "answer_ios counter survives" summary1.Os.answer_ios summary2.Os.answer_ios;
      Tu.check_int "splits counter survives" summary1.Os.splits summary2.Os.splits;
      (* Refinement paid before the death is still paid: the repeated query
         is answered from the restored sorted run at lookup cost. *)
      let e1, got1 = collector () in
      ignore (Core.Serve.run_batch srv1 e1 "select 3000");
      let e2, got2 = collector () in
      ignore (Core.Serve.run_batch srv2 e2 "select 3000");
      Tu.check_bool "restored reply byte-identical to the survivor's" true
        (got1 () = got2 ());
      Tu.check_bool "restored repeat query costs lookup only" true
        (contains ~sub:"\"refine_ios\":0" (List.hd (got2 ())));
      teardown ctx1 srv1;
      teardown ctx2 srv2)

let test_state_file_mismatch () =
  let state = Filename.temp_file "serve_state" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove state with Sys_error _ -> ())
    (fun () ->
      let ctx1, srv1 = make_server ~state_path:state () in
      let emit, _ = collector () in
      ignore (Core.Serve.run_batch srv1 emit "checkpoint");
      teardown ctx1 srv1;
      let ctx2 : int Em.Ctx.t = Em.Ctx.create (Em.Params.create ~mem ~block) in
      let v2 = Em.Vec.of_array ctx2 (Tu.random_perm ~seed:6 n) in
      (match
         Core.Serve.create ~state_path:state ~restore:true
           ~meta:{ meta with Core.Serve.m_seed = 6 }
           ctx2 v2
       with
      | _ -> Alcotest.fail "restore must refuse a state file for another seed"
      | exception Failure msg ->
          Tu.check_bool "mismatch error names the offending field" true
            (contains ~sub:"seed" msg));
      Em.Ctx.close ctx2)

(* ---- the state-file decoder: foreign or damaged files are typed errors ---- *)

let write_file contents path =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let marshalled v path = Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc v [])

(* [--restore] against the file [write] leaves must fail with the typed
   [Failure "serve --restore: ..."], never crash or restore. *)
let expect_restore_failure what write =
  let state = Filename.temp_file "serve_state" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove state with Sys_error _ -> ())
    (fun () ->
      write state;
      let ctx : int Em.Ctx.t = Em.Ctx.create (Em.Params.create ~mem ~block) in
      let v = Em.Vec.of_array ctx (Tu.random_perm ~seed:5 n) in
      (match Core.Serve.create ~state_path:state ~restore:true ~meta ctx v with
      | _ -> Alcotest.failf "%s: restore must refuse the file" what
      | exception Failure msg ->
          Tu.check_bool (what ^ " is a typed restore failure") true
            (has_prefix ~prefix:"serve --restore:" msg));
      Em.Ctx.close ctx)

let test_state_file_foreign () =
  expect_restore_failure "marshalled tuple" (marshalled (42, [| 1; 2; 3 |]));
  expect_restore_failure "marshalled v2 magic" (marshalled ("em_repro-serve-state-v2", 7));
  expect_restore_failure "other JSON" (write_file "{\"magic\":\"something-else\"}");
  expect_restore_failure "v3 magic, no fields"
    (write_file "{\"magic\":\"em_repro-serve-state-v3\"}")

let test_state_file_damaged () =
  let state = Filename.temp_file "serve_state" ".json" in
  let good =
    Fun.protect
      ~finally:(fun () -> try Sys.remove state with Sys_error _ -> ())
      (fun () ->
        let ctx, srv = make_server ~checkpoint_every:2 ~state_path:state () in
        let emit, _ = collector () in
        ignore (Core.Serve.run_batch srv emit "select 3000;range 40 45");
        Core.Serve.shutdown_checkpoint srv;
        teardown ctx srv;
        In_channel.with_open_bin state In_channel.input_all)
  in
  let len = String.length good in
  List.iter
    (fun cut ->
      expect_restore_failure
        (Printf.sprintf "truncated to %d of %d bytes" cut len)
        (write_file (String.sub good 0 cut)))
    [ 0; 1; len / 3; len / 2; len - 2 ];
  (* Well-formed JSON whose sorted payload lost a key. *)
  let module J = Em.Json in
  let shorten = function
    | J.Obj fields ->
        J.Obj
          (List.map
             (function
               | "sorted", J.List (_ :: keys) -> ("sorted", J.List keys) | field -> field)
             fields)
    | leaf -> leaf
  in
  match J.parse good with
  | Ok (J.Obj fields) ->
      let damaged =
        List.map
          (function
            | "leaves", J.List leaves -> ("leaves", J.List (List.map shorten leaves))
            | field -> field)
          fields
      in
      Tu.check_bool "the checkpoint holds a sorted leaf" true (J.Obj damaged <> J.Obj fields);
      expect_restore_failure "short sorted payload" (write_file (J.to_string (J.Obj damaged)))
  | _ -> Alcotest.fail "the state file must be a JSON object"

(* ---- request spans: ids, cost objects, by-kind counters ---- *)

(* Every admitted query — success, typed error, budget abort — carries a
   monotonically increasing "id"; parse errors are rejected before admission
   and carry none. *)
let test_query_ids_monotone () =
  let ctx, srv = make_server ~io_budget:3 () in
  let emit, emitted = collector () in
  ignore (Core.Serve.run_batch srv emit "select 3000");
  ignore (Core.Serve.run_batch srv emit "bogus line");
  ignore (Core.Serve.run_batch srv emit "quantile 0.5;range 40 45");
  (match emitted () with
  | [ q1; parse_err; q2; q3 ] ->
      Tu.check_bool "first admitted query is id 1" true (has_prefix ~prefix:"{\"id\":1," q1);
      Tu.check_bool "budget abort still carries its id" true
        (contains ~sub:"\"error\":\"budget_exceeded\"" q1);
      Tu.check_bool "parse errors carry no id" true
        (has_prefix ~prefix:"{\"error\":" parse_err);
      Tu.check_bool "ids skip nothing across outcomes" true
        (has_prefix ~prefix:"{\"id\":2," q2);
      Tu.check_bool "ids increase within a batch" true (has_prefix ~prefix:"{\"id\":3," q3)
  | lines -> Alcotest.failf "expected 4 replies, got %d" (List.length lines));
  Tu.check_int "admitted counter matches the last id" 3 (Core.Serve.queries_admitted srv);
  teardown ctx srv

(* Successful replies expose a compact simulated-cost object. *)
let test_reply_cost_object () =
  let ctx, srv = make_server () in
  let emit, emitted = collector () in
  ignore (Core.Serve.run_batch srv emit "select 3000");
  (match emitted () with
  | [ r ] ->
      List.iter
        (fun sub ->
          Tu.check_bool (Printf.sprintf "reply cost carries %s" sub) true (contains ~sub r))
        [
          "\"cost\":{";
          "\"ios\":";
          "\"reads\":";
          "\"writes\":";
          "\"rounds\":";
          "\"comparisons\":";
          "\"refine_ios\":";
          "\"answer_ios\":";
          "\"splits\":";
        ]
  | _ -> Alcotest.fail "expected 1 reply");
  teardown ctx srv

(* summary_json counts admitted queries by kind, and the counters survive
   the state-file round trip. *)
let test_by_kind_counters () =
  let state = Filename.temp_file "serve_state" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove state with Sys_error _ -> ())
    (fun () ->
      let ctx1, srv1 = make_server ~checkpoint_every:2 ~state_path:state () in
      let emit, emitted = collector () in
      List.iter
        (fun line -> ignore (Core.Serve.run_batch srv1 emit line))
        [ "select 3000"; "select 17"; "quantile 0.5"; "range 40 45"; "stats" ];
      let stats_line = List.hd (List.rev (emitted ())) in
      Tu.check_bool "summary counts selects" true
        (contains ~sub:"\"by_kind\":{\"select\":2,\"quantile\":1,\"range\":1}" stats_line);
      Tu.check_bool "summary carries a wall object" true (contains ~sub:"\"wall\":{" stats_line);
      Core.Serve.shutdown_checkpoint srv1;
      let ctx2, srv2 = make_server ~state_path:state ~restore:true () in
      Tu.check_bool "restored" true (Core.Serve.restored srv2);
      Tu.check_int "restored next id resumes after the persisted count" 4
        (Core.Serve.queries_admitted srv2);
      let e2, got2 = collector () in
      ignore (Core.Serve.run_batch srv2 e2 "select 17");
      Tu.check_bool "restored ids continue monotonically" true
        (has_prefix ~prefix:"{\"id\":5," (List.hd (got2 ())));
      let e3, got3 = collector () in
      ignore (Core.Serve.run_batch srv2 e3 "stats");
      Tu.check_bool "by-kind counters survive the process boundary" true
        (contains ~sub:"\"by_kind\":{\"select\":3,\"quantile\":1,\"range\":1}"
           (List.hd (got3 ())));
      teardown ctx1 srv1;
      teardown ctx2 srv2)

(* ---- per-query cost independent of session size ---- *)

(* A state file whose [leaves] leaves are equal sorted runs of the sorted
   input: restoring it gives a session of exactly that many leaves, all on
   one flat level. *)
let flat_state_file ~leaves path =
  let module J = Em.Json in
  let int key v = (key, J.Int v) in
  let width = n / leaves in
  let leaf i =
    let lo = i * width in
    let len = if i = leaves - 1 then n - lo else width in
    J.Obj [ int "lo" lo; int "len" len; ("sorted", J.List (List.init len (fun j -> J.Int (lo + j)))) ]
  in
  write_file
    (J.to_string
       (J.Obj
          [ ("magic", J.Str "em_repro-serve-state-v3");
            ( "meta",
              J.Obj
                [ int "n" n; int "mem" mem; int "block" block; int "disks" 1;
                  ("workload", J.Str meta.Core.Serve.m_workload); int "seed" meta.Core.Serve.m_seed ] );
            int "queries" 0; int "refine_ios" 0; int "answer_ios" 0; int "splits" 0;
            ("by_kind", J.Obj [ int "select" 0; int "quantile" 0; int "range" 0 ]);
            ("leaves", J.List (List.init leaves leaf)) ]))
    path

(* The most heap words one warm [select] allocates through [run_command],
   over 64 queries spread across the session, after 64 warm-up queries. *)
let warm_select_words ~leaves =
  let state = Filename.temp_file "serve_state" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove state with Sys_error _ -> ())
    (fun () ->
      flat_state_file ~leaves state;
      let ctx, srv = make_server ~state_path:state ~restore:true () in
      Tu.check_int "restored leaf count" leaves (Os.summary (Core.Serve.session srv)).Os.leaves;
      let lines = Array.init 128 (fun i -> Printf.sprintf "select %d" (1 + (i * (n / 128)))) in
      let emit _ = () in
      let run i = ignore (Core.Serve.run_command srv emit lines.(i)) in
      for i = 0 to 63 do run (2 * i) done;
      let worst = ref 0. in
      for i = 0 to 63 do
        worst := Float.max !worst (Tu.words_allocated (fun () -> run ((2 * i) + 1)))
      done;
      Tu.check_int "every query was warm: nothing refined" 0
        (Os.summary (Core.Serve.session srv)).Os.refine_ios;
      teardown ctx srv;
      !worst)

(* One ceiling for both sizes: about 750 words at either today, while a
   per-leaf walk (3 words a leaf per pass) would put 1000 leaves far over. *)
let test_warm_select_words_flat () =
  List.iter
    (fun leaves ->
      let w = warm_select_words ~leaves in
      if w > 1_500. then
        Alcotest.failf "a warm select at %d leaves allocates %.0f words (gate: 1500)" leaves w)
    [ 10; 1_000 ]

(* serve_channels: quit stops with [false], should_stop preempts reads. *)
let test_serve_channels_stop () =
  let ctx, srv = make_server () in
  let drive ~should_stop script =
    let rd, wr = Unix.pipe () in
    let ocw = Unix.out_channel_of_descr wr in
    output_string ocw script;
    close_out ocw;
    let ic = Unix.in_channel_of_descr rd in
    let out = open_out Filename.null in
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        close_out out)
      (fun () -> Core.Serve.serve_channels ~should_stop srv ic out)
  in
  Tu.check_bool "quit ends the client with stop" false
    (drive ~should_stop:(fun () -> false) "select 17\nquit\n");
  Tu.check_bool "EOF keeps the server accepting" true
    (drive ~should_stop:(fun () -> false) "select 18\n");
  Tu.check_bool "should_stop preempts before reading" false
    (drive ~should_stop:(fun () -> true) "select 19\n");
  teardown ctx srv

let suite =
  [
    Alcotest.test_case "window error reply" `Quick test_window_error_reply;
    Alcotest.test_case "parse validation" `Quick test_parse_validation;
    Alcotest.test_case "malformed flood" `Quick test_malformed_flood;
    Alcotest.test_case "fault reply determinism" `Quick test_fault_reply_determinism;
    Alcotest.test_case "budget keeps refinement" `Quick test_budget_keeps_refinement;
    Alcotest.test_case "crash halts loop" `Quick test_crash_halts_loop;
    Alcotest.test_case "query ids monotone" `Quick test_query_ids_monotone;
    Alcotest.test_case "reply cost object" `Quick test_reply_cost_object;
    Alcotest.test_case "by-kind counters" `Quick test_by_kind_counters;
    Alcotest.test_case "state file round trip" `Quick test_state_file_round_trip;
    Alcotest.test_case "state file mismatch" `Quick test_state_file_mismatch;
    Alcotest.test_case "state file foreign" `Quick test_state_file_foreign;
    Alcotest.test_case "state file damaged" `Quick test_state_file_damaged;
    Alcotest.test_case "serve_channels stop" `Quick test_serve_channels_stop;
    Alcotest.test_case "warm select allocation flat in session size" `Quick
      test_warm_select_words_flat;
  ]
