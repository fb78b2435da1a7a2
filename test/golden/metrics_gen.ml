(* Golden exporter-output generator.

   Builds one deterministic registry — machine counters and the profiler's
   per-phase I/O gauges from a fixed scan, a synthetic histogram, a
   labelled counter, and one Table-1 bound gauge triple with a pinned
   measured I/O count (nothing wall-clock-derived) — and prints it in the
   format named by argv: [prom] or [json].  The committed
   metrics.prom.expected / metrics.json.expected pin the exact exposition
   formats; re-bless with `make goldens` after intentional exporter
   changes. *)

let () =
  let reg = Em.Metrics.create () in
  (* Pinned to the sim backend and a single disk: the goldens document the
     counted-cost model, which neither EM_BACKEND (a cached backend would
     shift mem_peak by its resident pages) nor EM_DISKS (rounds gauges would
     appear) may perturb. *)
  let ctx : int Em.Ctx.t =
    Em.Ctx.create ~backend:Em.Backend.Sim ~disks:1
      (Em.Params.create ~mem:256 ~block:16)
  in
  let profiler = Em.Profile.create () in
  Em.Profile.attach profiler ctx.Em.Ctx.stats;
  let v = Em.Vec.of_array ctx (Array.init 160 (fun i -> i)) in
  Em.Phase.with_label ctx "scan" (fun () -> Emalg.Scan.iter (fun _ -> ()) v);
  Em.Phase.with_label ctx "copy" (fun () -> ignore (Emalg.Scan.copy v));
  Em.Metrics.publish_stats reg ctx.Em.Ctx.stats;
  Em.Profile.publish_phase_ios reg profiler;
  let h = Em.Metrics.histogram reg ~help:"Synthetic run lengths" "run_length" in
  List.iter (Em.Metrics.observe h) [ 1.; 2.; 3.; 5.; 8.; 13.; 21. ];
  let c =
    Em.Metrics.counter reg ~help:"Refinement rounds"
      ~labels:[ ("algo", "multiselect") ]
      "rounds_total"
  in
  Em.Metrics.incr ~by:4 c;
  let p = Em.Params.create ~mem:1024 ~block:16 in
  let row = Core.Bound_track.Splitters_right in
  let spec = Core.Bound_track.default_spec row ~n:4_096 in
  ignore (Core.Bound_track.publish_values reg p row spec ~measured_ios:2_048);
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "prom" with
  | "json" -> print_string (Em.Metrics.to_json reg)
  | _ -> print_string (Em.Metrics.to_prometheus reg)
