(* bench/perf: end-to-end throughput and latency of the paper's entry points
   and of the serve loop, one workload per invocation, with a traced
   per-layer ladder.

     perf.exe --workload NAME --seed S --seconds T --trace 0|1
     perf.exe --smoke                 every workload in miniature, both modes
     perf.exe compare A.json B.json   medians, quartiles, PASS/FAIL vs bounds

   The last line of a run is one JSON object: correct, attempted, failed and
   the metrics of BENCHMARK.json (end_to_end untraced, per_layer traced).
   README.md in this directory defines every metric. *)

open Util

type kind = Batch | Serve of { queries : int }
type workload = { name : string; m : Work.machine; n : int; kind : kind }

let batch_machine ~disks ~backend ~pool_pages ~async =
  { Work.mem = 4096; block = 64; disks; backend; pool_pages; async }

let cached_file = Em.Backend.Cached Em.Backend.File

(* Why these four: README.md. *)
let workloads =
  [
    {
      name = "batch-sim";
      m = batch_machine ~disks:1 ~backend:Em.Backend.Sim ~pool_pages:None ~async:false;
      n = 1 lsl 17;
      kind = Batch;
    };
    {
      name = "batch-file";
      m = batch_machine ~disks:2 ~backend:cached_file ~pool_pages:(Some 32) ~async:false;
      n = 1 lsl 17;
      kind = Batch;
    };
    {
      name = "batch-file-async";
      m = batch_machine ~disks:2 ~backend:cached_file ~pool_pages:(Some 32) ~async:true;
      n = 1 lsl 17;
      kind = Batch;
    };
    {
      name = "serve-hot";
      m =
        {
          Work.mem = 1 lsl 16;
          block = 256;
          disks = 1;
          backend = Em.Backend.Cached Em.Backend.Sim;
          pool_pages = Some 128;
          async = false;
        };
      n = 1 lsl 20;
      kind = Serve { queries = 100_000 };
    };
  ]

(* The smoke run's miniature of a workload: same backends and query mix. *)
let shrink w =
  match w.kind with
  | Batch -> { w with n = 1 lsl 13 }
  | Serve _ ->
      {
        w with
        m = { w.m with Work.mem = 4096; block = 64; pool_pages = Some 32 };
        n = 1 lsl 14;
        kind = Serve { queries = 2000 };
      }

(* ---- environment pinning ----

   [Ctx.create], [Params.create], [Trace.create] and friends fall back to
   these variables when an argument is omitted.  Pinning them at start-up
   means a caller's environment (a CI matrix leg, a stray
   EM_FILE_LATENCY_US) cannot change what is measured. *)
let pinned_env dir =
  [
    (Em.Backend.env_var, "sim");
    ("EM_BACKEND_DIR", dir);
    (Em.Params.disks_env_var, "1");
    (Em.Params.async_env_var, "0");
    (Em.Io_pool.workers_env_var, "1");
    (Em.Backend.latency_env_var, "0");
    (Em.Trace.ring_env_var, string_of_int Em.Trace.default_ring_capacity);
    (Core.Cluster.shards_env_var, "1");
  ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* ---- one workload run ---- *)

let ms ns = ns /. 1e6
let us ns = ns /. 1e3
let floats a = Array.map float_of_int a
let sum_f = Array.fold_left ( +. ) 0.
let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Self wall time per phase label: each span's inclusive time minus that of
   its direct children, summed over the paths ending in the label.  The
   remainder of [total_ns] outside every labelled phase is "unlabeled". *)
let self_ms profile ~total_ns ~per =
  let spans = Em.Profile.spans profile in
  let tbl = Hashtbl.create 16 in
  let get label = Option.value ~default:0. (Hashtbl.find_opt tbl label) in
  let add label x = Hashtbl.replace tbl label (x +. get label) in
  let top = ref 0. in
  List.iter
    (fun (s : Em.Profile.span) ->
      let depth = List.length s.Em.Profile.path in
      let children =
        List.fold_left
          (fun acc (c : Em.Profile.span) ->
            if
              List.length c.Em.Profile.path = depth + 1
              && List.filteri (fun i _ -> i < depth) c.Em.Profile.path = s.Em.Profile.path
            then acc +. c.Em.Profile.wall_ns
            else acc)
          0. spans
      in
      if depth = 1 then top := !top +. s.Em.Profile.wall_ns;
      add (List.nth s.Em.Profile.path (depth - 1)) (s.Em.Profile.wall_ns -. children))
    spans;
  add "unlabeled" (total_ns -. !top);
  fun label -> ms (get label) /. float_of_int per

(* Phase labels whose self time the traced run reports; BENCHMARK.json
   lists the same names. *)
let job_labels =
  [
    "run-formation";
    "distribute";
    "pivot-sampling";
    "leaf-emit";
    "splitter-leaf";
    "rank-select";
    "unlabeled";
  ]

let serve_labels = [ "refine"; "distribute"; "pivot-sampling"; "answer"; "unlabeled" ]

type phase = {
  reps : Work.rep list;  (** untraced batch reps *)
  traced_reps : Work.rep list;
  sessions : Work.session list;  (** untraced serve sessions *)
  traced_sessions : Work.session list;
  jobs_profile : Em.Profile.t;
  serve_profile : Em.Profile.t;
  wall_ns : int;
  cpu_s : float;
  majors : int;
}

let rep_ns (r : Work.rep) = float_of_int (Array.fold_left ( + ) 0 r.Work.job_ns)

(* Reps or sessions until [deadline], at least [min_ops]; with [traced],
   every second one runs traced (profiler attached, spans recorded) so the
   overhead is measured against untraced neighbours. *)
let workload_phase host w ~seed ~deadline ~min_ops ~traced ~spans ~plain ~traced_tally =
  let off = Spans.create ~enabled:false in
  let jobs_profile = Em.Profile.create () and serve_profile = Em.Profile.create () in
  let reps = ref [] and treps = ref [] and sessions = ref [] and tsessions = ref [] in
  let t0 = now_ns () and c0 = Sys.time () and g0 = (Gc.quick_stat ()).Gc.major_collections in
  let i = ref 0 in
  while !i < min_ops || now_ns () < deadline do
    let tr = traced && !i mod 2 = 1 in
    let t = if tr then traced_tally else plain in
    let spans = if tr then spans else off in
    (match w.kind with
    | Batch ->
        let profile = if tr then Some jobs_profile else None in
        let rep = Work.batch_rep host w.m t ~spans ~profile ~req:!i ~n:w.n ~seed:(seed + !i) in
        if tr then treps := rep :: !treps else reps := rep :: !reps
    | Serve { queries } ->
        let stream = Work.query_stream ~seed:(seed + !i) ~n:w.n ~block:w.m.Work.block ~queries in
        let profile = if tr then Some serve_profile else None in
        let s =
          Work.serve_session host w.m t ~spans ~profile ~req:!i ~n:w.n ~seed:(seed + !i) stream
        in
        if tr then tsessions := s :: !tsessions else sessions := s :: !sessions);
    incr i
  done;
  {
    reps = !reps;
    traced_reps = !treps;
    sessions = !sessions;
    traced_sessions = !tsessions;
    jobs_profile;
    serve_profile;
    wall_ns = now_ns () - t0;
    cpu_s = Sys.time () -. c0;
    majors = (Gc.quick_stat ()).Gc.major_collections - g0;
  }

let warm_of sessions = Array.concat (List.map (fun s -> Samples.to_array s.Work.warm) sessions)

(* Counted end-to-end work comes from the first reps or sessions, which
   every run executes (seeds S to S+2), so it is exact for a given seed
   whatever the host's speed. *)
let counted_reps = 3

(* Counted work per item: per input block per rep (batch), per query (serve). *)
let items w ~count =
  match w.kind with
  | Batch -> float_of_int count *. float_of_int w.n /. float_of_int w.m.Work.block
  | Serve { queries } -> float_of_int (count * queries)

(* Each session's warm queries cut into ten windows: serve's best-of-k
   samples, as reps are for the batch workloads. *)
let query_windows sessions =
  Array.concat (List.map (fun s -> windows 10 (Samples.to_array s.Work.warm)) sessions)

let end_to_end w (p : phase) =
  let open Ladder in
  let setup, through, lat, first, costs =
    match w.kind with
    | Batch ->
        let reps = Array.of_list (List.rev p.reps) in
        let elems = float_of_int (w.n * Array.length Work.job_names) in
        ( Array.map (fun r -> float_of_int r.Work.rep_setup_ns) reps,
          Array.map (fun r -> elems /. (rep_ns r /. 1e9)) reps,
          Array.map (fun r -> median (floats r.Work.job_ns)) reps,
          Array.map (fun r -> float_of_int r.Work.job_ns.(0)) reps,
          Array.map (fun r -> r.Work.rep_cost) reps )
    | Serve _ ->
        let ss = Array.of_list (List.rev p.sessions) in
        let wins = query_windows p.sessions in
        ( Array.map (fun s -> float_of_int s.Work.sess_setup_ns) ss,
          Array.map (fun win -> float_of_int (Array.length win) /. (sum_f win /. 1e9)) wins,
          Array.map median wins,
          Array.map (fun s -> float_of_int s.Work.first_ns) ss,
          Array.map (fun s -> s.Work.sess_cost) ss )
  in
  let firsts = Array.sub costs 0 (min counted_reps (Array.length costs)) in
  let counted f = float_of_int (Array.fold_left (fun a d -> a + f d) 0 firsts) in
  let per = items w ~count:(Array.length firsts) in
  [
    over "setup_s" "s" (Array.map (fun x -> x /. 1e9) setup);
    best ~higher:true "throughput" "1/s" through;
    best ~higher:false "latency_p50_us" "us" (Array.map us lat);
    best ~higher:false "first_op_ms" "ms" (Array.map ms first);
    once "ios_per_item" "count" (counted Em.Stats.delta_ios /. per);
    once "rounds_per_item" "count" (counted (fun d -> d.Em.Stats.d_rounds) /. per);
    once "heap_peak_mb" "MB" (heap_peak_mb ());
  ]

let job_metrics ~n (reps : Work.rep list) =
  let reps = Array.of_list reps in
  let comparisons =
    Array.fold_left (fun a r -> a + r.Work.rep_cost.Em.Stats.d_comparisons) 0 reps
  in
  Array.to_list
    (Array.mapi
       (fun j name ->
         Ladder.over ("job." ^ name ^ ".ms") "ms"
           (Array.map (fun r -> ms (float_of_int r.Work.job_ns.(j))) reps))
       Work.job_names)
  @ [
      Ladder.once "job.cmp_per_elem" "count"
        (float_of_int comparisons /. float_of_int (Array.length reps * n));
    ]

let percentile xs p = quantile (sorted_copy xs) p

(* The per-layer metrics, and the tally of the outputs the ladder checked. *)
let per_layer host w ~seed ~scale ~spans (p : phase) ~plain =
  let open Ladder in
  let rung = Work.tally () in
  (* The batch workloads' own N; serve-hot's job rung uses the same N. *)
  let jobs_n = min w.n (1 lsl 17) in
  let stream =
    let queries = match w.kind with Serve { queries } -> queries | Batch -> iters scale 20_000 in
    Work.query_stream ~seed ~n:w.n ~block:w.m.Work.block ~queries
  in
  let ladder_span name f =
    let s = Spans.start spans ~name:("ladder." ^ name) ~parent:Spans.root ~req:0 in
    let r = f () in
    Spans.stop s;
    r
  in
  (* The five jobs and the serve loop on every workload: the workload
     itself where it runs them, a rung on the same machine otherwise. *)
  let traced_reps =
    match w.kind with
    | Batch -> p.traced_reps
    | Serve _ ->
        [
          ladder_span "jobs" (fun () ->
              Work.batch_rep host w.m rung ~spans ~profile:(Some p.jobs_profile) ~req:0 ~n:jobs_n
                ~seed);
        ]
  in
  let plain_sessions, traced_sessions =
    match w.kind with
    | Serve _ -> (p.sessions, p.traced_sessions)
    | Batch ->
        let off = Spans.create ~enabled:false in
        ladder_span "serve" (fun () ->
            let s =
              Work.serve_session host w.m rung ~spans:off ~profile:None ~req:0 ~n:w.n ~seed stream
            in
            let ts =
              Work.serve_session host w.m rung ~spans ~profile:(Some p.serve_profile) ~req:1
                ~n:w.n ~seed stream
            in
            ([ s ], [ ts ]))
  in
  let twin =
    ladder_span "online_select" (fun () ->
        Work.online_session host w.m rung ~spans ~req:0 ~n:w.n ~seed stream)
  in
  let layers = ladder_span "micro" (fun () -> Ladder.all ~scale host rung w.m ~seed ~stream) in
  let twin_warm = Samples.to_array twin.Work.warm in
  let serve_warm = warm_of plain_sessions in
  let queries_served =
    List.fold_left (fun a s -> a + 1 + s.Work.warm.Samples.len) 0 plain_sessions
  in
  let reply_bytes = List.fold_left (fun a s -> a + s.Work.reply_bytes) 0 plain_sessions in
  let job_ns = List.fold_left (fun a r -> a +. rep_ns r) 0. traced_reps in
  let jobs_self = self_ms p.jobs_profile ~total_ns:job_ns ~per:(List.length traced_reps) in
  let query_ns =
    List.fold_left
      (fun a s -> a +. float_of_int s.Work.first_ns +. sum_f (Samples.to_array s.Work.warm))
      0. traced_sessions
  in
  let serve_self = self_ms p.serve_profile ~total_ns:query_ns ~per:(List.length traced_sessions) in
  (* Best traced rep or window over best untraced one, like the end-to-end
     timings. *)
  let trace_overhead =
    let fastest xs = Array.fold_left Float.min infinity xs in
    match w.kind with
    | Batch ->
        let wall reps = fastest (Array.of_list (List.map rep_ns reps)) in
        wall p.traced_reps /. wall p.reps
    | Serve _ ->
        let p50 sessions = fastest (Array.map median (query_windows sessions)) in
        p50 p.traced_sessions /. p50 p.sessions
  in
  let count = match w.kind with Batch -> List.length p.reps | Serve _ -> List.length p.sessions in
  let per = items w ~count in
  let sum = twin.Work.summary in
  ( job_metrics ~n:jobs_n traced_reps
  @ List.map (fun l -> once ("profile.jobs." ^ l ^ ".self_ms") "ms" (jobs_self l)) job_labels
  @ List.map (fun l -> once ("profile.serve." ^ l ^ ".self_ms") "ms" (serve_self l)) serve_labels
  @ layers
  @ [
      once "pool.hit_rate" "ratio"
        (if plain.Work.hits + plain.Work.misses = 0 then 0.
         else float_of_int plain.Work.hits /. float_of_int (plain.Work.hits + plain.Work.misses));
      once "pool.evictions_per_io" "ratio"
        (float_of_int plain.Work.evictions /. float_of_int (plain.Work.reads + plain.Work.writes));
      over "online_select.query_us_p50" "us" (Array.map us twin_warm);
      once "online_select.query_us_p99" "us" (us (percentile twin_warm 0.99));
      once "online_select.first_query_ms" "ms" (ms (float_of_int twin.Work.first_ns));
      once "online_select.refine_ios" "count" (float_of_int sum.Emalg.Online_select.refine_ios);
      once "online_select.answer_ios_per_query" "count"
        (float_of_int sum.Emalg.Online_select.answer_ios
        /. float_of_int sum.Emalg.Online_select.queries);
      once "online_select.leaves" "count" (float_of_int sum.Emalg.Online_select.leaves);
      once "serve.overhead_us_p50" "us" (us (median serve_warm -. median twin_warm));
      once "serve.reply_bytes_per_query" "bytes"
        (float_of_int reply_bytes /. float_of_int queries_served);
      once "serve.query_p99_us" "us" (us (percentile serve_warm 0.99));
      once "serve.query_p999_us" "us" (us (percentile serve_warm 0.999));
      once "io.reads_per_item" "count" (float_of_int plain.Work.reads /. per);
      once "io.writes_per_item" "count" (float_of_int plain.Work.writes /. per);
      once "mem_peak_frac" "ratio" plain.Work.mem_peak_frac;
      once "gc.minor_words_per_item" "words" (plain.Work.minor_words /. per);
      once "gc.major_collections" "count"
        (float_of_int p.majors
        /. float_of_int
             (List.length p.reps + List.length p.traced_reps + List.length p.sessions
             + List.length p.traced_sessions));
      once "process.wall_over_cpu" "ratio" (float_of_int p.wall_ns /. 1e9 /. p.cpu_s);
      once "trace_overhead" "ratio" trace_overhead;
      ],
    rung )

type outcome = {
  w : workload;
  traced : bool;
  metrics : Ladder.metric list;
  attempted : int;
  failed : int;
  errors : string list;
  counts : Work.tally;
}

let run_workload host w ~seed ~seconds ~traced ~smoke ~spans =
  (* A traced run gives the workload half its time; the ladder takes the
     rest.  The smoke run does the minimum. *)
  let budget = if smoke then 0. else if traced then seconds /. 2. else seconds in
  let deadline = now_ns () + int_of_float (budget *. 1e9) in
  let plain = Work.tally () and traced_tally = Work.tally () in
  let min_ops = if traced then 2 else if smoke then 1 else counted_reps in
  let p = workload_phase host w ~seed ~deadline ~min_ops ~traced ~spans ~plain ~traced_tally in
  let metrics, ladder =
    if traced then
      let metrics, rung =
        per_layer host w ~seed ~scale:(if smoke then 0.02 else 1.) ~spans p ~plain
      in
      (metrics, [ rung ])
    else (end_to_end w p, [])
  in
  let tallies = plain :: traced_tally :: ladder in
  let attempted = List.fold_left (fun a t -> a + t.Work.ops) 0 tallies in
  let failed = List.fold_left (fun a t -> a + t.Work.failed) 0 tallies in
  let errors = List.concat_map (fun t -> t.Work.errors) tallies in
  { w; traced; metrics; attempted; failed; errors; counts = plain }

(* ---- output ---- *)

let metric_json ~detail (m : Ladder.metric) =
  ( m.Ladder.name,
    Obj
      ([ ("value", Num m.Ladder.value); ("unit", Str m.Ladder.units) ]
      @
      if detail then
        [
          ("median", Num m.Ladder.s.median);
          ("q1", Num m.Ladder.s.q1);
          ("q3", Num m.Ladder.s.q3);
          ("n", Int m.Ladder.s.n);
        ]
      else []) )

let correct o =
  o.failed = 0 && List.for_all (fun (m : Ladder.metric) -> Float.is_finite m.Ladder.value) o.metrics

let result_json ~detail o =
  [
    ("correct", Bool (correct o));
    ("attempted", Int o.attempted);
    ("failed", Int o.failed);
    ("metrics", Obj (List.map (metric_json ~detail) o.metrics));
  ]

let config_json o env =
  Obj
    [
      ("workload", Str o.w.name);
      ("n", Int o.w.n);
      ("machine", Work.machine_json o.w.m);
      ("env", Obj (List.map (fun (k, v) -> (k, Str v)) env));
    ]

let print_run o ~seed ~seconds ~out_dir ~env =
  List.iter
    (fun (m : Ladder.metric) ->
      Printf.printf "%-40s %14.6g %-6s (median %.6g, q1 %.6g, q3 %.6g, n %d)\n" m.Ladder.name
        m.Ladder.value m.Ladder.units m.Ladder.s.median m.Ladder.s.q1 m.Ladder.s.q3 m.Ladder.s.n)
    o.metrics;
  List.iter (Printf.printf "FAILED: %s\n") o.errors;
  let path =
    Filename.concat out_dir
      (Printf.sprintf "%s-seed%d-trace%d.json" o.w.name seed (Bool.to_int o.traced))
  in
  let detail =
    Obj
      ([
         ("workload", Str o.w.name);
         ("seed", Int seed);
         ("seconds", Num seconds);
         ("trace", Bool o.traced);
         ("config", config_json o env);
       ]
      @ result_json ~detail:true o)
  in
  let oc = open_out path in
  output_string oc (json_to_string detail ^ "\n");
  close_out oc;
  Printf.printf "config: %s\nresult file: %s\n" (json_to_string (config_json o env)) path;
  print_endline (json_to_string (Obj (result_json ~detail:false o)))

(* ---- BENCHMARK.json ---- *)

module J = Em.Telemetry.Json

type spec_metric = { sname : string; sunits : string; higher : bool; bound : float option }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_benchmark path =
  match J.parse (read_file path) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok v ->
      let list key =
        match J.member key v with
        | Some (J.List xs) ->
            List.map
              (fun m ->
                let str k = Option.bind (J.member k m) J.str |> Option.value ~default:"" in
                {
                  sname = str "name";
                  sunits = str "unit";
                  higher = str "better" = "higher";
                  bound = Option.bind (J.member "bound" m) J.num;
                })
              xs
        | _ -> failwith (path ^ ": no " ^ key ^ " list")
      in
      (list "end_to_end", list "per_layer")

(* ---- smoke ---- *)

(* Every workload in miniature, untraced and traced, checking that each
   metric BENCHMARK.json names comes out with its unit.  Stdout carries
   only the counted work and pinned configuration, so two smoke runs under
   different environments must print identical bytes. *)
let smoke host ~benchmark ~env =
  let e2e, layers = read_benchmark benchmark in
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        ok := false;
        prerr_endline ("smoke: " ^ s))
      fmt
  in
  List.iter
    (fun w ->
      let w = shrink w in
      List.iter
        (fun traced ->
          let spans = Spans.create ~enabled:traced in
          let o = run_workload host w ~seed:1 ~seconds:0. ~traced ~smoke:true ~spans in
          if o.failed > 0 then
            fail "%s: %d outputs failed: %s" w.name o.failed (String.concat "; " o.errors);
          List.iter
            (fun s ->
              let found = List.find_opt (fun (m : Ladder.metric) -> m.Ladder.name = s.sname) in
              match found o.metrics with
              | None -> fail "%s: metric %s missing" w.name s.sname
              | Some m when m.Ladder.units <> s.sunits ->
                  fail "%s: %s has unit %s, BENCHMARK.json says %s" w.name s.sname m.Ladder.units
                    s.sunits
              | Some m when not (Float.is_finite m.Ladder.value) ->
                  fail "%s: %s is not finite" w.name s.sname
              | Some _ -> ())
            (if traced then layers else e2e);
          let c = o.counts in
          Printf.printf
            "%s trace=%b config=%s ops=%d reads=%d writes=%d rounds=%d comparisons=%d hits=%d \
             misses=%d\n"
            w.name traced
            (json_to_string (config_json o env))
            c.Work.ops c.Work.reads c.Work.writes c.Work.rounds c.Work.comparisons c.Work.hits
            c.Work.misses)
        [ false; true ])
    workloads;
  !ok

(* ---- compare ---- *)

(* Group result lines (one JSON object per line, as run files are written)
   by workload, then compare each metric's median between the two sets. *)
let load_results path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match J.parse l with
         | Error e -> failwith (path ^ ": " ^ e)
         | Ok v ->
             let name = Option.bind (J.member "workload" v) J.str |> Option.value ~default:"?" in
             let metrics = match J.member "metrics" v with Some (J.Obj kvs) -> kvs | _ -> [] in
             ( name,
               List.filter_map
                 (fun (k, m) ->
                   Option.map (fun x -> (k, x)) (Option.bind (J.member "value" m) J.num))
                 metrics ))

(* Set B against set A, workload by workload.  End-to-end metrics pass when
   B's median is no worse than A's by more than the bound; counted metrics
   (unit "count") must match exactly.  Per-layer metrics are printed only. *)
let compare_sets ~benchmark a b =
  let e2e, layers = read_benchmark benchmark in
  let ra = load_results a and rb = load_results b in
  let ok = ref true in
  List.iter
    (fun wname ->
      Printf.printf "\n%s\n%-40s %14s %14s %9s  %s\n" wname "metric" "A median" "B median" "B/A"
        "verdict";
      let values rs metric =
        Array.of_list
          (List.filter_map (fun (n, ms) -> if n = wname then List.assoc_opt metric ms else None) rs)
      in
      List.iter
        (fun s ->
          let va = values ra s.sname and vb = values rb s.sname in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let sa = summarize va and sb = summarize vb in
            let pass, verdict =
              match s.bound with
              | None -> (true, "")
              | Some _ when s.sunits = "count" ->
                  if sa.median = sb.median then (true, "PASS (exact)")
                  else (false, "FAIL (exact count differs)")
              | Some bound ->
                  let diff = if s.higher then sa.median -. sb.median else sb.median -. sa.median in
                  let worse = diff /. sa.median in
                  if worse <= bound then (true, Printf.sprintf "PASS (bound %.2f)" bound)
                  else
                    (false, Printf.sprintf "FAIL (%.1f%% worse, bound %.2f)" (100. *. worse) bound)
            in
            if not pass then ok := false;
            Printf.printf
              "%-40s %14.6g %14.6g %9.4f  %s   [A %.6g..%.6g n=%d | B %.6g..%.6g n=%d]\n"
              s.sname sa.median sb.median (sb.median /. sa.median) verdict sa.q1 sa.q3 sa.n sb.q1
              sb.q3 sb.n
          end)
        (e2e @ layers))
    (List.sort_uniq String.compare (List.map fst ra));
  !ok

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let smoke_mode = ref false and out_dir = ref "bench/perf/_results" in
  let benchmark = ref "BENCHMARK.json" and anon = ref [] in
  let usage = "perf.exe --workload NAME --seed S --seconds T --trace 0|1 | --smoke | compare A B" in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " (List.map (fun w -> w.name) workloads) );
      ("--seed", Arg.Set_int seed, "S input seed; rep or session r uses S+r");
      ("--seconds", Arg.Set_float seconds, "T measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--traced", Arg.Unit (fun () -> trace := 1), " same as --trace 1");
      ("--smoke", Arg.Set smoke_mode, " every workload in miniature, untraced and traced");
      ( "--out-dir",
        Arg.Set_string out_dir,
        "DIR result, span and slot files (default bench/perf/_results)" );
      ("--benchmark", Arg.Set_string benchmark, "FILE the BENCHMARK.json to check against");
    ]
  in
  let usage_error msg =
    prerr_endline (msg ^ "\n" ^ usage);
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> anon := a :: !anon) usage with
  | Arg.Bad msg -> usage_error msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  match List.rev !anon with
  | [ "compare"; a; b ] -> exit (if compare_sets ~benchmark:!benchmark a b then 0 else 1)
  | _ :: _ -> usage_error "unexpected arguments"
  | [] when !trace <> 0 && !trace <> 1 -> usage_error "--trace takes 0 or 1"
  | [] ->
      mkdir_p !out_dir;
      let env = pinned_env !out_dir in
      List.iter (fun (k, v) -> Unix.putenv k v) env;
      let host = { Work.dir = !out_dir; io_pool = lazy (Em.Io_pool.create ~workers:1 ()) } in
      let finish code =
        if Lazy.is_val host.Work.io_pool then Em.Io_pool.shutdown (Lazy.force host.Work.io_pool);
        exit code
      in
      if !smoke_mode then finish (if smoke host ~benchmark:!benchmark ~env then 0 else 1)
      else
        match List.find_opt (fun w -> w.name = !workload) workloads with
        | None ->
            Printf.eprintf "unknown workload %S\n%s\n" !workload usage;
            finish 2
        | Some w ->
            let traced = !trace = 1 in
            let spans = Spans.create ~enabled:traced in
            let o = run_workload host w ~seed:!seed ~seconds:!seconds ~traced ~smoke:false ~spans in
            if traced then Spans.write spans (Filename.concat !out_dir (w.name ^ ".spans.json"));
            print_run o ~seed:!seed ~seconds:!seconds ~out_dir:!out_dir ~env;
            finish (if correct o then 0 else 1)
