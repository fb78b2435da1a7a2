(* Tests for the span profiler: full-path attribution, inclusive counters,
   and the central guarantee that observing a run never changes its
   simulated cost. *)

let scan_ios = 4 (* 64 ints / block 16 *)

let find_span profiler path =
  match
    List.find_opt (fun s -> s.Em.Profile.path = path) (Em.Profile.spans profiler)
  with
  | Some s -> s
  | None ->
      Alcotest.failf "no span %s" (Em.Profile.path_name path)

let test_span_attribution () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let profiler = Em.Profile.create () in
  Em.Profile.attach profiler ctx.Em.Ctx.stats;
  let v = Tu.int_vec ctx (Array.init 64 (fun i -> i)) in
  Em.Phase.with_label ctx "outer" (fun () ->
      Emalg.Scan.iter (fun _ -> ()) v;
      Em.Phase.with_label ctx "inner" (fun () -> Emalg.Scan.iter (fun _ -> ()) v));
  let outer = find_span profiler [ "outer" ] in
  let inner = find_span profiler [ "outer"; "inner" ] in
  Tu.check_int "outer is inclusive of inner" (2 * scan_ios)
    (Em.Profile.span_ios outer);
  Tu.check_int "inner covers only its own scan" scan_ios (Em.Profile.span_ios inner);
  Tu.check_int "outer entered once" 1 outer.Em.Profile.calls;
  Tu.check_int "all reads, no writes" (2 * scan_ios) outer.Em.Profile.cost.Em.Stats.d_reads;
  Tu.check_bool "wall clock is non-negative" true (outer.Em.Profile.wall_ns >= 0.);
  Tu.check_bool "spans saw the memory ledger" true (outer.Em.Profile.mem_peak > 0)

let test_calls_accumulate () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let profiler = Em.Profile.create () in
  Em.Profile.attach profiler ctx.Em.Ctx.stats;
  let v = Tu.int_vec ctx (Array.init 64 (fun i -> i)) in
  for _ = 1 to 3 do
    Em.Phase.with_label ctx "pass" (fun () -> Emalg.Scan.iter (fun _ -> ()) v)
  done;
  let s = find_span profiler [ "pass" ] in
  Tu.check_int "three calls" 3 s.Em.Profile.calls;
  Tu.check_int "costs accumulate across calls" (3 * scan_ios) (Em.Profile.span_ios s)

let test_recursive_label_extends_path () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let profiler = Em.Profile.create () in
  Em.Profile.attach profiler ctx.Em.Ctx.stats;
  let v = Tu.int_vec ctx (Array.init 64 (fun i -> i)) in
  Em.Phase.with_label ctx "rec" (fun () ->
      Emalg.Scan.iter (fun _ -> ()) v;
      Em.Phase.with_label ctx "rec" (fun () -> Emalg.Scan.iter (fun _ -> ()) v));
  let top = find_span profiler [ "rec" ] in
  let nested = find_span profiler [ "rec"; "rec" ] in
  Tu.check_int "top span is inclusive" (2 * scan_ios) (Em.Profile.span_ios top);
  Tu.check_int "nested same-label span is its own path" scan_ios
    (Em.Profile.span_ios nested)

let test_detach_stops_recording () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let profiler = Em.Profile.create () in
  Em.Profile.attach profiler ctx.Em.Ctx.stats;
  let v = Tu.int_vec ctx (Array.init 64 (fun i -> i)) in
  Em.Phase.with_label ctx "seen" (fun () -> Emalg.Scan.iter (fun _ -> ()) v);
  Em.Profile.detach ctx.Em.Ctx.stats;
  Em.Phase.with_label ctx "unseen" (fun () -> Emalg.Scan.iter (fun _ -> ()) v);
  Tu.check_int "only the attached-phase span exists" 1
    (List.length (Em.Profile.spans profiler));
  Em.Profile.reset profiler;
  Tu.check_int "reset drops spans" 0 (List.length (Em.Profile.spans profiler))

let test_publish_span_gauges () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let profiler = Em.Profile.create () in
  Em.Profile.attach profiler ctx.Em.Ctx.stats;
  let v = Tu.int_vec ctx (Array.init 64 (fun i -> i)) in
  Em.Phase.with_label ctx "work" (fun () -> Emalg.Scan.iter (fun _ -> ()) v);
  let reg = Em.Metrics.create () in
  Em.Profile.publish reg profiler;
  let labels = [ ("span", "work") ] in
  Alcotest.(check (float 1e-9))
    "span_ios gauge" (float_of_int scan_ios)
    (Em.Metrics.gauge_value (Em.Metrics.gauge reg ~labels "span_ios"));
  Alcotest.(check (float 1e-9))
    "span_calls gauge" 1.
    (Em.Metrics.gauge_value (Em.Metrics.gauge reg ~labels "span_calls"))

(* ---- the text report ---- *)

type row = {
  depth : int;
  label : string;
  ios : int;
  wall_ms : (float * float) option;  (* inclusive, self; none on "(other)" *)
}

let report_rows profiler =
  Format.asprintf "%a" Em.Profile.pp profiler
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map (fun line ->
         let indent = ref 0 in
         while line.[!indent] = ' ' do
           incr indent
         done;
         Scanf.sscanf (String.trim line) "%s %d I/O (r %_d / w %_d) %_d cmp %[^\n]"
           (fun label ios rest ->
             let wall_ms =
               if Tu.contains ~sub:" self " rest then
                 Some (Scanf.sscanf rest "%f ms %f self" (fun incl self -> (incl, self)))
               else None
             in
             { depth = !indent / 2; label; ios; wall_ms }))

let test_pp_other_row () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let profiler = Em.Profile.create () in
  Em.Profile.attach profiler ctx.Em.Ctx.stats;
  let v = Tu.int_vec ctx (Array.init 160 (fun i -> i)) in
  Em.Phase.with_label ctx "copying" (fun () ->
      Em.Phase.with_label ctx "inner" (fun () -> Emalg.Scan.iter (fun _ -> ()) v);
      ignore (Emalg.Scan.copy v));
  Emalg.Scan.iter (fun _ -> ()) v;
  Emalg.Scan.iter (fun _ -> ()) v;
  let rows = report_rows profiler in
  let top = List.filter (fun r -> r.depth = 0) rows in
  let other = List.find (fun r -> r.label = "(other)") top in
  Tu.check_int "(other) holds the two unlabeled scans" 20 other.ios;
  Tu.check_bool "(other) has no wall-clock columns" true (other.wall_ms = None);
  Tu.check_int "(other) + top-level spans = Stats.ios" (Em.Stats.ios ctx.Em.Ctx.stats)
    (List.fold_left (fun acc r -> acc + r.ios) 0 top);
  Tu.check_int "nested spans are indented" 1
    (List.length (List.filter (fun r -> r.depth = 1) rows))

let test_pp_self_wall () =
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let profiler = Em.Profile.create () in
  Em.Profile.attach profiler ctx.Em.Ctx.stats;
  let n = 4_000 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:3 n) in
  Em.Phase.with_label ctx "root" (fun () ->
      Emalg.Scan.iter (fun _ -> ()) v;
      ignore (Core.Multi_select.select Tu.icmp v ~ranks:[| 1; n / 2; n |]));
  let rows = report_rows profiler in
  let walls = List.filter_map (fun r -> r.wall_ms) rows in
  Tu.check_bool "nested spans present" true (List.length walls > 2);
  List.iter
    (fun (incl, self) ->
      Tu.check_bool "self time is never negative" true (self >= 0.);
      Tu.check_bool "self time is within the inclusive time" true (self <= incl))
    walls;
  let root = List.find (fun r -> r.label = "root") rows in
  let root_ms = fst (Option.get root.wall_ms) in
  let self_sum = List.fold_left (fun acc (_, self) -> acc +. self) 0. walls in
  (* Each printed column is rounded to 0.005 ms. *)
  let slack = 0.005 *. float_of_int (List.length walls + 1) in
  Tu.check_bool
    (Printf.sprintf "self times (%.2f ms) sum to the root's inclusive %.2f ms" self_sum root_ms)
    true
    (Float.abs (self_sum -. root_ms) <= slack)

(* The tentpole's acceptance property: attaching the profiler and exporting
   a full registry must leave every simulated cost byte-identical. *)
let run_once ~observe seed =
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let profiler = Em.Profile.create () in
  if observe then Em.Profile.attach profiler ctx.Em.Ctx.stats;
  let n = 2_048 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed n) in
  let cmp = Em.Ctx.counted ctx Tu.icmp in
  let (), d =
    Em.Ctx.measured ctx (fun () ->
        ignore (Core.Multi_select.select cmp v ~ranks:[| 1; n / 4; n / 2; n |]))
  in
  if observe then begin
    let reg = Em.Metrics.create () in
    Em.Metrics.publish_stats reg ctx.Em.Ctx.stats;
    Em.Profile.publish reg profiler;
    ignore (Em.Metrics.to_prometheus reg);
    ignore (Em.Metrics.to_json reg)
  end;
  ( Em.Stats.delta_ios d,
    d.Em.Stats.d_reads,
    d.Em.Stats.d_writes,
    d.Em.Stats.d_comparisons,
    ctx.Em.Ctx.stats.Em.Stats.mem_peak )

let test_observation_is_free =
  Tu.qcheck_case ~count:25 "profiling + metrics leave costs identical"
    QCheck2.Gen.(int_bound 10_000)
    (fun seed -> run_once ~observe:false seed = run_once ~observe:true seed)

let suite =
  [
    Alcotest.test_case "span attribution on full paths" `Quick test_span_attribution;
    Alcotest.test_case "calls accumulate" `Quick test_calls_accumulate;
    Alcotest.test_case "recursive label extends the path" `Quick
      test_recursive_label_extends_path;
    Alcotest.test_case "detach / reset" `Quick test_detach_stops_recording;
    Alcotest.test_case "publish span gauges" `Quick test_publish_span_gauges;
    Alcotest.test_case "report: (other) row" `Quick test_pp_other_row;
    Alcotest.test_case "report: self wall time" `Quick test_pp_self_wall;
    test_observation_is_free;
  ]
