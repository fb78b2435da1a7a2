(* Shared experiment harness: machine presets, measurement, table printing.

   Every experiment runs on a fresh simulated machine, counts exact I/Os,
   verifies the output against the in-memory oracle, and prints measured
   cost next to the paper's bound formula.  "ratio" columns are
   measured / bound: if the implementation matches the bound, the ratio
   stays within a small constant band across the sweep. *)

type machine = { mem : int; block : int }

let default_machine = { mem = 4096; block = 64 }
let machine_name m = Printf.sprintf "M=%d B=%d (M/B=%d)" m.mem m.block (m.mem / m.block)

let params m = Em.Params.create ~mem:m.mem ~block:m.block

(* Run modes, set by bench/main.ml's flags.  [--small] shrinks every input
   size 16x (the CI sweep); [--json] makes each section write its
   machine-readable BENCH_<section>.json artifact at the repo root. *)
let small_mode = ref false
let json_mode = ref false

let scaled n = if !small_mode then max 4096 (n lsr 4) else n

(* Every section publishes its measurements into this shared registry
   (Table 1 rows via Core.Bound_track gauges); `em_repro metrics` exposes
   the same machinery for single runs. *)
let registry = Em.Metrics.create ~namespace:"bench" ()

type measurement = {
  ios : int;
  reads : int;
  writes : int;
  rounds : int;  (* parallel I/O rounds (= ios on a single-disk machine) *)
  comparisons : int;
  peak_mem : int;
  random_ios : int;  (* I/Os the tracer classified as seeks *)
  wall_ns : int;  (* host wall-clock around the measured computation *)
}

(* Run [f] on a fresh machine loaded with a workload; measure only [f].
   A constant-space counting sink rides on the tracer so the seek profile is
   exact even for runs far longer than the default ring buffer.  [disks]
   puts D parallel disks under the machine (default 1, or EM_DISKS). *)
let measure ?(machine = default_machine) ?(kind = Core.Workload.Pi_hard) ?disks
    ~seed ~n f =
  let trace = Em.Trace.create () in
  let seeks, read_seeks =
    Em.Trace.counter (fun e -> e.Em.Trace.locality = Em.Trace.Random)
  in
  Em.Trace.add_sink trace seeks;
  let ctx : int Em.Ctx.t = Em.Ctx.create ~trace ?disks (params machine) in
  let v = Core.Workload.vec ctx kind ~seed ~n in
  let t0 = Unix.gettimeofday () in
  let (), d = Em.Ctx.measured ctx (fun () -> f ctx v) in
  let wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  {
    ios = Em.Stats.delta_ios d;
    reads = d.Em.Stats.d_reads;
    writes = d.Em.Stats.d_writes;
    rounds = d.Em.Stats.d_rounds;
    comparisons = d.Em.Stats.d_comparisons;
    peak_mem = ctx.Em.Ctx.stats.Em.Stats.mem_peak;
    random_ios = read_seeks ();
    wall_ns;
  }

let icmp = Int.compare

(* ---- table printing ---- *)

let hrule width = String.make width '-'

let section title =
  Printf.printf "\n%s\n%s\n" title (hrule (String.length title))

let subsection text = Printf.printf "\n  %s\n" text

let table ~header rows =
  let ncols = List.length header in
  let cells = header :: rows in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 cells
  in
  let widths = List.init ncols width in
  let print_row row =
    let padded =
      List.map2 (fun cell w -> Printf.sprintf "%*s" w cell) row widths
    in
    Printf.printf "  %s\n" (String.concat "  " padded)
  in
  print_row header;
  Printf.printf "  %s\n" (String.concat "  " (List.map hrule widths));
  List.iter print_row rows

let fmt_f x = Printf.sprintf "%.1f" x
let fmt_ratio x = Printf.sprintf "%.2f" x

(* Flatness summary: the spread (max/min) of the measured/bound ratios. *)
let ratio_spread ratios =
  match List.filter (fun r -> Float.is_finite r && r > 0.) ratios with
  | [] -> nan
  | r :: rest ->
      let mn = List.fold_left Float.min r rest in
      let mx = List.fold_left Float.max r rest in
      mx /. mn

let verdict ~what ~spread ~limit =
  Printf.printf "  => ratio spread across the sweep: %.2fx (%s if <= %.1fx): %s\n"
    spread what limit
    (if spread <= limit then "CONSISTENT WITH THE BOUND" else "DEVIATES")

(* Verify helpers (oracle checks; zero simulated I/O). *)
let expect_ok what = function
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "verification failed (%s): %s" what msg)

(* ---- machine-readable artifacts ---- *)

(* One artifact row in the stable BENCH_*.json schema.  [row] is the
   machine key (e.g. a Table 1 row name), [label] the human-readable
   sweep-point description. *)
let artifact_row ~row ~label ~machine ~n ?(extra_geometry = []) ?(predicted = nan)
    (m : measurement) =
  let open Em.Json in
  Obj
    [
      ("row", Str row);
      ("label", Str label);
      ( "geometry",
        Obj
          ([ ("n", Int n); ("mem", Int machine.mem); ("block", Int machine.block) ]
          @ List.map (fun (k, v) -> (k, Int v)) extra_geometry) );
      ( "measured",
        Obj
          ([
             ("ios", Int m.ios);
             ("reads", Int m.reads);
             ("writes", Int m.writes);
           ]
          (* Rounds only when they diverge from I/Os (multi-disk runs):
             single-disk artifacts keep their exact historical shape. *)
          @ (if m.rounds < m.ios then [ ("rounds", Int m.rounds) ] else [])
          @ [
              ("comparisons", Int m.comparisons);
              ("mem_peak", Int m.peak_mem);
            ]) );
      ("predicted", Float predicted);
      ( "ratio",
        Float (if Float.is_nan predicted then nan else float_of_int m.ios /. predicted) );
      ("seeks", Int m.random_ios);
      ("wall_ns", Int m.wall_ns);
    ]

(* Write BENCH_<bench>.json at the repo root (the bench binary runs from
   the project root via `make bench*`; dune exec keeps cwd).  Only in
   [--json] mode. *)
let write_artifact ~bench rows =
  if !json_mode then begin
    let doc =
      Em.Json.(
        Obj
          [ ("bench", Str bench); ("schema", Int 1); ("small", Bool !small_mode);
            ("rows", List rows) ])
    in
    let path = Printf.sprintf "BENCH_%s.json" bench in
    let oc = open_out path in
    output_string oc (Em.Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "  [json] wrote %s (%d rows)\n%!" path (List.length rows)
  end
