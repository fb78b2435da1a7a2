(* The serve-session engine behind `em_repro serve`.

   Lives in the library (rather than bin/) so the error paths — typed fault
   replies, retry metering, budget aborts, batch-window exception safety,
   checkpoint/restore round trips — are directly unit-testable; bin/serve.ml
   only adds flag parsing, signal handling and the socket accept loop.

   Protocol (NDJSON; one input line = one batch, ';'-separated):

     select K | quantile PHI | range A B   queries
     stats | metrics | intervals | profile introspection
     checkpoint                            save session state now
     quit                                  close and exit

   Every admitted query gets a monotonically-assigned id, echoed in its
   reply together with a compact "cost" object; the same span feeds the
   per-session Metrics histograms, the flight recorder, the drift watchdog
   and the optional telemetry stream.

   Error-reply grammar:
     {"error":"<message>"}                           parse failure (no id:
                                                     the query was never
                                                     admitted)
     {"id":N,"error":"<message>"}                    validation failure
     {"id":N,"error":"<code>","detail":"...","retries":R}
                                                     typed Em_error after
                                                     bounded query retries
                                                     (code: io_fault,
                                                     read_failed, ...)
     {"id":N,"error":"budget_exceeded","budget":B,"spent":S}

   Determinism contract: every emitted number is a simulated cost — except
   the fields of "wall":{...} sub-objects, the only place wall-clock-derived
   values may appear.  Smoke tests normalise exactly those objects and
   byte-diff everything else. *)

let icmp = Int.compare

(* ---- tiny JSON emitters (NDJSON; no dependency) ---- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_ints a =
  "[" ^ String.concat "," (Array.to_list (Array.map string_of_int a)) ^ "]"

(* ---- the server ---- *)

type meta = {
  m_n : int;
  m_mem : int;
  m_block : int;
  m_disks : int;
  m_workload : string;
  m_seed : int;
}

type t = {
  ctx : int Em.Ctx.t;
  mutable session : int Emalg.Online_select.t;
  profiler : Em.Profile.t;
  registry : Em.Metrics.t;
  input : int Em.Vec.t;
  meta : meta;
  max_retries : int;
  state_path : string option;
  mutable last_saves : int;  (* state-file mirror: saves already persisted *)
  mutable restored : bool;
  mutable crashed : bool;
  (* live telemetry *)
  telemetry : Em.Telemetry.t option;
  recorder : Em.Flight_recorder.t;
  drift : Drift.t;
  flight_dir : string option;
  mutable flight_dumps : int;
  clock : unit -> float;
  started : float;
  wall_registry : Em.Metrics.t;
      (* wall-clock-derived series live in their own registry so the
         golden-gated `metrics` reply stays byte-deterministic *)
  lat_hist : Em.Metrics.histogram;  (* wall ns, in wall_registry *)
  ios_hist : Em.Metrics.histogram;  (* simulated, in registry *)
  rounds_hist : Em.Metrics.histogram;  (* simulated, in registry *)
  mutable next_id : int;
  mutable n_select : int;
  mutable n_quantile : int;
  mutable n_range : int;
}

let session t = t.session
let ctx t = t.ctx
let input t = t.input
let crashed t = t.crashed
let drift t = t.drift
let flight_recorder t = t.recorder
let flight_dumps t = t.flight_dumps
let queries_admitted t = t.next_id - 1

(* ---- state file (cross-process survival) ----

   The in-process checkpoint slot and the sim backend's store are process
   RAM, so surviving a real process death needs a disk artifact.  The state
   file is the process-level stand-in for "the device survives": leaf
   bounds plus their payloads, serialized via the zero-cost Oracle (the
   payloads' I/O was already paid when the session wrote them; re-placing
   them in a fresh process via [Vec.of_array] is likewise Oracle-level).
   The metered costs of checkpointing remain with [Em.Checkpoint]: saves
   were charged in the dead process, the restore pays its resume read. *)

type payload = P_raw | P_unsorted of (int * int) array | P_sorted of int array

type persisted = {
  p_meta : meta;
  p_queries : int;
  p_refine_ios : int;
  p_answer_ios : int;
  p_splits : int;
  p_by_kind : int * int * int;  (* admitted select/quantile/range queries *)
  p_leaves : (int * int * payload) list;
}

let state_magic = "em_repro-serve-state-v2"

let persisted_of_session meta by_kind session =
  let snap = Emalg.Online_select.snapshot session in
  let leaves =
    List.map
      (fun (lo, len, h) ->
        let payload =
          match h with
          | Emalg.Online_select.H_raw -> P_raw
          | Emalg.Online_select.H_unsorted tv -> P_unsorted (Em.Vec.Oracle.to_array tv)
          | Emalg.Online_select.H_sorted sv -> P_sorted (Em.Vec.Oracle.to_array sv)
        in
        (lo, len, payload))
      snap.Emalg.Online_select.s_leaves
  in
  {
    p_meta = meta;
    p_queries = snap.Emalg.Online_select.s_queries;
    p_refine_ios = snap.Emalg.Online_select.s_refine_ios;
    p_answer_ios = snap.Emalg.Online_select.s_answer_ios;
    p_splits = snap.Emalg.Online_select.s_splits;
    p_by_kind = by_kind;
    p_leaves = leaves;
  }

let write_state path (p : persisted) =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Marshal.to_channel oc (state_magic, p) []);
  Sys.rename tmp path

let read_state path : (persisted, string) result =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match (Marshal.from_channel ic : string * persisted) with
          | magic, p when magic = state_magic -> Ok p
          | _ -> Error (path ^ ": not a serve state file")
          | exception _ -> Error (path ^ ": unreadable or corrupt state file"))

let meta_mismatch a b =
  if a.m_n <> b.m_n then Some "n"
  else if a.m_mem <> b.m_mem then Some "mem"
  else if a.m_block <> b.m_block then Some "block"
  else if a.m_disks <> b.m_disks then Some "disks"
  else if a.m_workload <> b.m_workload then Some "workload"
  else if a.m_seed <> b.m_seed then Some "seed"
  else None

(* Rebuild the snapshot in a fresh process: payloads are re-placed via
   Oracle writes (the data "was already on the surviving device"), the
   store slot is seeded with [Checkpoint.install] (same fiction), and
   [Online_select.restore] pays the metered resume read. *)
let session_of_persisted ?batch_plan ?every_splits ctx v (p : persisted) =
  let cmp = Em.Ctx.counted ctx icmp in
  let pctx : (int * int) Em.Ctx.t = Em.Ctx.linked ctx in
  let leaves =
    List.map
      (fun (lo, len, payload) ->
        let h =
          match payload with
          | P_raw -> Emalg.Online_select.H_raw
          | P_unsorted pairs -> Emalg.Online_select.H_unsorted (Em.Vec.of_array pctx pairs)
          | P_sorted keys -> Emalg.Online_select.H_sorted (Em.Vec.of_array ctx keys)
        in
        (lo, len, h))
      p.p_leaves
  in
  let snap =
    {
      Emalg.Online_select.s_leaves = leaves;
      s_queries = p.p_queries;
      s_refine_ios = p.p_refine_ios;
      s_answer_ios = p.p_answer_ios;
      s_splits = p.p_splits;
    }
  in
  let store = Em.Checkpoint.create ctx in
  Em.Checkpoint.install store ~words:(Emalg.Online_select.snapshot_words snap) snap;
  Emalg.Online_select.restore ?batch_plan ?every_splits cmp ctx v store

let by_kind srv = (srv.n_select, srv.n_quantile, srv.n_range)

let save_state srv =
  match srv.state_path with
  | None -> ()
  | Some path ->
      write_state path (persisted_of_session srv.meta (by_kind srv) srv.session);
      (match Emalg.Online_select.checkpoint_store srv.session with
      | Some store -> srv.last_saves <- Em.Checkpoint.saves store
      | None -> ())

(* Automatic policy saves happen inside the session; mirror them to the
   state file whenever the store's save counter has advanced, so the file
   on disk is as fresh as the in-process checkpoint. *)
let mirror_state srv =
  match (srv.state_path, Emalg.Online_select.checkpoint_store srv.session) with
  | Some _, Some store when Em.Checkpoint.saves store > srv.last_saves -> save_state srv
  | _ -> ()

let create ?checkpoint_every ?io_budget ?(max_retries = 3) ?state_path
    ?(restore = false) ?telemetry ?flight_capacity ?flight_dir ?drift_ceiling
    ?(clock = Unix.gettimeofday) ~meta ctx v =
  let cmp = Em.Ctx.counted ctx icmp in
  let profiler = Em.Profile.create () in
  Em.Profile.attach profiler ctx.Em.Ctx.stats;
  let restored = ref false in
  let restored_by_kind = ref (0, 0, 0) in
  let session =
    match (restore, state_path) with
    | true, Some path when Sys.file_exists path -> (
        match read_state path with
        | Error msg -> failwith (Printf.sprintf "serve --restore: %s" msg)
        | Ok p -> (
            match meta_mismatch p.p_meta meta with
            | Some field ->
                failwith
                  (Printf.sprintf
                     "serve --restore: state file %s was written for a different %s" path
                     field)
            | None ->
                restored := true;
                restored_by_kind := p.p_by_kind;
                session_of_persisted ?every_splits:checkpoint_every ctx v p))
    | _ ->
        let s = Emalg.Online_select.open_session cmp ctx v in
        if checkpoint_every <> None || state_path <> None then
          Emalg.Online_select.enable_checkpoints ?every_splits:checkpoint_every s;
        s
  in
  Emalg.Online_select.set_io_budget session io_budget;
  let registry = Em.Metrics.create () in
  let wall_registry = Em.Metrics.create () in
  let n_select, n_quantile, n_range = !restored_by_kind in
  let srv =
    {
      ctx;
      session;
      profiler;
      registry;
      input = v;
      meta;
      max_retries;
      state_path;
      last_saves = 0;
      restored = !restored;
      crashed = false;
      telemetry;
      recorder = Em.Flight_recorder.create ?capacity:flight_capacity ();
      drift = Drift.create ?ceiling:drift_ceiling ctx.Em.Ctx.params ~n:meta.m_n;
      flight_dir;
      flight_dumps = 0;
      clock;
      started = clock ();
      wall_registry;
      lat_hist =
        Em.Metrics.histogram wall_registry ~help:"per-query wall-clock span (ns)"
          "query_latency_ns";
      ios_hist =
        Em.Metrics.histogram registry ~help:"per-query metered I/Os" "query_ios";
      rounds_hist =
        Em.Metrics.histogram registry ~help:"per-query effective parallel rounds"
          "query_rounds";
      next_id = n_select + n_quantile + n_range + 1;
      n_select;
      n_quantile;
      n_range;
    }
  in
  (* A restored server re-persists immediately: the file now reflects this
     incarnation's baseline (and proves the path is writable up front). *)
  if srv.restored then save_state srv;
  srv

let restored srv = srv.restored

(* ---- JSON views ---- *)

let reply_json ~id label (r : int Emalg.Online_select.reply) =
  let d = r.Emalg.Online_select.cost in
  Printf.sprintf
    "{\"id\":%d,\"query\":\"%s\",\"values\":%s,\"cost\":{\"ios\":%d,\"reads\":%d,\"writes\":%d,\"rounds\":%d,\"comparisons\":%d,\"refine_ios\":%d,\"answer_ios\":%d,\"splits\":%d}}"
    id (json_escape label)
    (json_ints r.Emalg.Online_select.values)
    (Em.Stats.delta_ios d) d.Em.Stats.d_reads d.Em.Stats.d_writes d.Em.Stats.d_rounds
    d.Em.Stats.d_comparisons
    (Em.Stats.delta_ios r.Emalg.Online_select.refine)
    r.Emalg.Online_select.answer_ios r.Emalg.Online_select.splits

let by_kind_json srv =
  Printf.sprintf "{\"select\":%d,\"quantile\":%d,\"range\":%d}" srv.n_select
    srv.n_quantile srv.n_range

let uptime_ms srv = (srv.clock () -. srv.started) *. 1000.

let summary_json srv =
  let s = Emalg.Online_select.summary srv.session in
  let st = srv.ctx.Em.Ctx.stats in
  Printf.sprintf
    "{\"session\":{\"queries\":%d,\"by_kind\":%s,\"refine_ios\":%d,\"answer_ios\":%d,\"total_ios\":%d,\"splits\":%d,\"leaves\":%d,\"sorted_leaves\":%d},\"machine\":{\"reads\":%d,\"writes\":%d,\"rounds\":%d,\"comparisons\":%d,\"mem_peak\":%d},\"wall\":{\"uptime_ms\":%.0f}}"
    s.Emalg.Online_select.queries (by_kind_json srv)
    s.Emalg.Online_select.refine_ios s.Emalg.Online_select.answer_ios
    (s.Emalg.Online_select.refine_ios + s.Emalg.Online_select.answer_ios)
    s.Emalg.Online_select.splits s.Emalg.Online_select.leaves
    s.Emalg.Online_select.sorted_leaves st.Em.Stats.reads st.Em.Stats.writes
    (Em.Stats.effective_rounds st) st.Em.Stats.comparisons st.Em.Stats.mem_peak
    (uptime_ms srv)

(* Per-session Metrics accounting: the machine's native counters plus the
   session's own gauges and the simulated-cost per-query histograms, dumped
   in the registry's canonical JSON.  Wall-clock series (latency) live in a
   separate registry so this reply stays byte-deterministic.  The
   checkpoint gauges appear only once a store is attached, keeping the
   fault-free transcript byte-identical to the historical one. *)
let metrics_json srv =
  let reg = srv.registry in
  Em.Metrics.publish_stats reg srv.ctx.Em.Ctx.stats;
  Em.Profile.publish_phase_ios reg srv.profiler;
  let s = Emalg.Online_select.summary srv.session in
  let g name help v =
    Em.Metrics.set (Em.Metrics.gauge reg ~help name) (float_of_int v)
  in
  g "session_queries" "queries answered by this session" s.Emalg.Online_select.queries;
  g "session_refine_ios" "cumulative refinement I/Os" s.Emalg.Online_select.refine_ios;
  g "session_answer_ios" "cumulative lookup I/Os" s.Emalg.Online_select.answer_ios;
  g "session_splits" "cumulative interval splits" s.Emalg.Online_select.splits;
  g "session_leaves" "current leaf intervals" s.Emalg.Online_select.leaves;
  g "session_sorted_leaves" "leaves holding sorted runs" s.Emalg.Online_select.sorted_leaves;
  let kind_gauge kind v =
    Em.Metrics.set
      (Em.Metrics.gauge reg ~help:"admitted queries by kind"
         ~labels:[ ("kind", kind) ] "session_queries_by_kind")
      (float_of_int v)
  in
  kind_gauge "select" srv.n_select;
  kind_gauge "quantile" srv.n_quantile;
  kind_gauge "range" srv.n_range;
  Em.Metrics.set
    (Em.Metrics.gauge reg ~help:"running measured/predicted amortized-bound ratio"
       "session_drift_ratio")
    (Drift.ratio srv.drift);
  (match Emalg.Online_select.checkpoint_store srv.session with
  | None -> ()
  | Some store ->
      g "session_checkpoint_saves" "checkpoint saves taken" (Em.Checkpoint.saves store);
      g "session_checkpoint_save_ios" "metered checkpoint writes"
        (Em.Checkpoint.save_ios store);
      g "session_resume_loads" "checkpoint resume loads" (Em.Checkpoint.loads store);
      g "session_resume_load_ios" "metered resume reads" (Em.Checkpoint.load_ios store));
  String.trim (Em.Metrics.to_json reg)

let intervals_json srv =
  let items =
    List.map
      (fun (lo, len, sorted) ->
        Printf.sprintf "{\"lo\":%d,\"len\":%d,\"sorted\":%b}" lo len sorted)
      (Emalg.Online_select.intervals srv.session)
  in
  Printf.sprintf "{\"intervals\":[%s]}" (String.concat "," items)

(* Span tree of the attached profiler, I/O counts only (wall-clock excluded
   so transcripts stay deterministic). *)
let profile_json srv =
  let spans =
    List.map
      (fun s ->
        Printf.sprintf "{\"path\":\"%s\",\"ios\":%d,\"calls\":%d,\"comparisons\":%d}"
          (json_escape (Em.Profile.path_name s.Em.Profile.path))
          (Em.Profile.span_ios s) s.Em.Profile.calls
          s.Em.Profile.cost.Em.Stats.d_comparisons)
      (Em.Profile.spans srv.profiler)
  in
  Printf.sprintf "{\"spans\":[%s]}" (String.concat "," spans)

let checkpoint_json srv =
  match Emalg.Online_select.checkpoint_store srv.session with
  | None -> "{\"checkpointed\":false}"
  | Some store ->
      let s = Emalg.Online_select.summary srv.session in
      Printf.sprintf
        "{\"checkpointed\":true,\"saves\":%d,\"save_ios\":%d,\"leaves\":%d%s}"
        (Em.Checkpoint.saves store) (Em.Checkpoint.save_ios store)
        s.Emalg.Online_select.leaves
        (match srv.state_path with
        | Some path -> Printf.sprintf ",\"state_file\":\"%s\"" (json_escape path)
        | None -> "")

let checkpoint_now srv =
  Emalg.Online_select.checkpoint srv.session;
  save_state srv

let error_code = function
  | Em.Em_error.Io_fault _ -> "io_fault"
  | Em.Em_error.Read_failed _ -> "read_failed"
  | Em.Em_error.Write_failed _ -> "write_failed"
  | Em.Em_error.Corrupt_block _ -> "corrupt_block"
  | Em.Em_error.Crashed _ -> "crashed"
  | Em.Em_error.Budget_exceeded _ -> "budget_exceeded"

let em_error_json ~id ~retries e =
  match e with
  | Em.Em_error.Budget_exceeded { budget; spent } ->
      Printf.sprintf "{\"id\":%d,\"error\":\"budget_exceeded\",\"budget\":%d,\"spent\":%d}"
        id budget spent
  | e ->
      Printf.sprintf "{\"id\":%d,\"error\":\"%s\",\"detail\":\"%s\",\"retries\":%d}" id
        (error_code e)
        (json_escape (Em.Em_error.to_string e))
        retries

(* ---- telemetry frames ---- *)

(* The "cost" payload of a telemetry frame: cumulative session/machine
   simulated costs — byte-deterministic by construction. *)
let cost_json srv =
  let s = Emalg.Online_select.summary srv.session in
  let st = srv.ctx.Em.Ctx.stats in
  (* Communication counters are simulated costs, so they belong in this
     compartment — but a serve session's machine only accrues them when it
     runs as a cluster shard, so they are emitted gated (like the shard id
     on trace events): absent when zero, keeping the frame goldens of every
     single-machine session byte-identical. *)
  let comm =
    if st.Em.Stats.comm_rounds > 0 || st.Em.Stats.comm_words > 0 then
      Printf.sprintf ",\"comm_rounds\":%d,\"comm_words\":%d"
        (Em.Stats.effective_comm_rounds st) st.Em.Stats.comm_words
    else ""
  in
  Printf.sprintf
    "{\"ios\":%d,\"refine_ios\":%d,\"answer_ios\":%d,\"splits\":%d,\"leaves\":%d,\"sorted_leaves\":%d,\"reads\":%d,\"writes\":%d,\"rounds\":%d,\"comparisons\":%d,\"cache_hits\":%d,\"cache_misses\":%d%s,\"by_kind\":%s,\"drift_ratio\":%.4f}"
    (s.Emalg.Online_select.refine_ios + s.Emalg.Online_select.answer_ios)
    s.Emalg.Online_select.refine_ios s.Emalg.Online_select.answer_ios
    s.Emalg.Online_select.splits s.Emalg.Online_select.leaves
    s.Emalg.Online_select.sorted_leaves st.Em.Stats.reads st.Em.Stats.writes
    (Em.Stats.effective_rounds st) st.Em.Stats.comparisons
    st.Em.Stats.cache_hits st.Em.Stats.cache_misses comm (by_kind_json srv)
    (Drift.ratio srv.drift)

(* The "wall" payload: everything wall-clock-derived, and nothing else. *)
let wall_json srv =
  let up_s = (srv.clock () -. srv.started) in
  let quant p =
    let v = Em.Metrics.quantile srv.lat_hist p in
    if Float.is_nan v then 0. else v /. 1e6
  in
  Printf.sprintf
    "{\"ts_ms\":%.0f,\"uptime_ms\":%.0f,\"qps\":%.2f,\"p50_ms\":%.3f,\"p99_ms\":%.3f}"
    (srv.clock () *. 1000.) (up_s *. 1000.)
    (if up_s > 0. then float_of_int (queries_admitted srv) /. up_s else 0.)
    (quant 0.5) (quant 0.99)

let telemetry_tick srv =
  match srv.telemetry with
  | None -> ()
  | Some tel ->
      Em.Telemetry.tick tel ~queries:(queries_admitted srv) ~cost:(cost_json srv)
        ~wall:(fun () -> wall_json srv)

(* ---- flight recorder ---- *)

let rec ensure_dir path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    ensure_dir (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Post-mortem dump: the retained query records joined with their trace
   events and a fresh registry snapshot.  Returns the artifact path, or
   [None] when no --flight-dir is configured. *)
let flight_dump srv ~reason =
  match srv.flight_dir with
  | None -> None
  | Some dir ->
      ignore (metrics_json srv);  (* refresh the registry snapshot *)
      ensure_dir dir;
      srv.flight_dumps <- srv.flight_dumps + 1;
      let path =
        Filename.concat dir (Printf.sprintf "postmortem-%03d.json" srv.flight_dumps)
      in
      Em.Flight_recorder.dump_to_file ~trace:srv.ctx.Em.Ctx.trace
        ~metrics:srv.registry ~now:srv.clock ~reason srv.recorder ~path;
      Some path

(* ---- protocol ---- *)

type command =
  | Query of Emalg.Online_select.query
  | Stats
  | Metrics
  | Intervals
  | Profile
  | Checkpoint
  | Quit

let parse_command str =
  let words =
    List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim str))
  in
  match words with
  | [ "select"; k ] -> (
      match int_of_string_opt k with
      | Some k -> Ok (Query (Emalg.Online_select.Select k))
      | None -> Error "select needs an integer rank")
  | [ "quantile"; phi ] -> (
      (* float_of_string_opt happily parses "nan" and "inf"; reject anything
         outside (0, 1] here so malformed input never reaches the session. *)
      match float_of_string_opt phi with
      | Some phi when Float.is_finite phi && phi > 0. && phi <= 1. ->
          Ok (Query (Emalg.Online_select.Quantile phi))
      | Some _ -> Error "quantile must satisfy 0 < phi <= 1"
      | None -> Error "quantile needs a float")
  | [ "range"; a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when b < a -> Error "range needs a <= b"
      | Some a, Some b -> Ok (Query (Emalg.Online_select.Range (a, b)))
      | _ -> Error "range needs two integer ranks")
  | [ "stats" ] -> Ok Stats
  | [ "metrics" ] -> Ok Metrics
  | [ "intervals" ] -> Ok Intervals
  | [ "profile" ] -> Ok Profile
  | [ "checkpoint" ] -> Ok Checkpoint
  | [ "quit" ] | [ "exit" ] -> Ok Quit
  | [] -> Error "empty query"
  | w :: _ -> Error (Printf.sprintf "unknown query %S" w)

let query_kind = function
  | Emalg.Online_select.Select _ -> "select"
  | Emalg.Online_select.Quantile _ -> "quantile"
  | Emalg.Online_select.Range _ -> "range"

(* One query, with Resilient-style bounded retries at the query level: a
   typed failure that escapes the per-I/O recovery re-runs the query (each
   re-run metered as a retry; monotone refinement means only the unfinished
   tail is redone). *)
let exec_query srv ~retries q =
  Em.Resilient.with_retries ~max_retries:srv.max_retries
    ~on_retry:(fun ~attempt:_ _ -> incr retries)
    srv.ctx.Em.Ctx.dev
    (fun () -> Emalg.Online_select.query srv.session q)

let run_command srv emit str =
  match parse_command str with
  | Error msg ->
      emit (Printf.sprintf "{\"error\":\"%s\"}" (json_escape msg));
      true
  | Ok Quit -> false
  | Ok Stats ->
      emit (summary_json srv);
      true
  | Ok Metrics ->
      emit (metrics_json srv);
      true
  | Ok Intervals ->
      emit (intervals_json srv);
      true
  | Ok Profile ->
      emit (profile_json srv);
      true
  | Ok Checkpoint ->
      checkpoint_now srv;
      emit (checkpoint_json srv);
      true
  | Ok (Query q) -> (
      (* Admit the query: assign its id and open its request span. *)
      let id = srv.next_id in
      srv.next_id <- id + 1;
      (match q with
      | Emalg.Online_select.Select _ -> srv.n_select <- srv.n_select + 1
      | Emalg.Online_select.Quantile _ -> srv.n_quantile <- srv.n_quantile + 1
      | Emalg.Online_select.Range _ -> srv.n_range <- srv.n_range + 1);
      let label = String.trim str in
      let seq_lo = Em.Trace.total srv.ctx.Em.Ctx.trace in
      let before = Em.Stats.snapshot srv.ctx.Em.Ctx.stats in
      let splits0 = (Emalg.Online_select.summary srv.session).Emalg.Online_select.splits in
      let t0 = srv.clock () in
      (* Close the span: flight record + histograms + drift fold + telemetry
         tick.  Runs on every admitted outcome, success or not. *)
      let finish ~ios ~rounds ~splits ~outcome =
        let wall_ns = int_of_float ((srv.clock () -. t0) *. 1e9) in
        let seq_hi = Em.Trace.total srv.ctx.Em.Ctx.trace in
        Em.Flight_recorder.record srv.recorder
          { Em.Flight_recorder.id; kind = query_kind q; query = label; ios;
            rounds; splits; wall_ns; outcome; seq_lo; seq_hi };
        Em.Metrics.observe srv.ios_hist (float_of_int ios);
        Em.Metrics.observe srv.rounds_hist (float_of_int rounds);
        Em.Metrics.observe srv.lat_hist (float_of_int wall_ns);
        let s = Emalg.Online_select.summary srv.session in
        let verdict =
          Drift.observe srv.drift ~queries:(queries_admitted srv)
            ~total_ios:
              (s.Emalg.Online_select.refine_ios + s.Emalg.Online_select.answer_ios)
        in
        (match (verdict, srv.telemetry) with
        | Drift.Alert _, Some tel when Drift.alerts srv.drift = 1 ->
            (* First trip only; the sticky ratio keeps showing in every
               subsequent frame's drift_ratio field. *)
            Em.Telemetry.alert tel ~queries:(queries_admitted srv)
              ~cost:(cost_json srv)
              ~wall:(fun () -> wall_json srv)
        | _ -> ());
        telemetry_tick srv
      in
      let err_span ~outcome =
        let d = Em.Stats.delta srv.ctx.Em.Ctx.stats before in
        let splits =
          (Emalg.Online_select.summary srv.session).Emalg.Online_select.splits - splits0
        in
        finish ~ios:(Em.Stats.delta_ios d) ~rounds:d.Em.Stats.d_rounds ~splits ~outcome
      in
      let retries = ref 0 in
      match exec_query srv ~retries q with
      | r ->
          finish
            ~ios:(Em.Stats.delta_ios r.Emalg.Online_select.cost)
            ~rounds:r.Emalg.Online_select.cost.Em.Stats.d_rounds
            ~splits:r.Emalg.Online_select.splits ~outcome:"ok";
          emit (reply_json ~id label r);
          mirror_state srv;
          true
      | exception Invalid_argument msg ->
          err_span ~outcome:"invalid";
          emit (Printf.sprintf "{\"id\":%d,\"error\":\"%s\"}" id (json_escape msg));
          true
      | exception Em.Em_error.Error (Em.Em_error.Crashed _ as e) ->
          (* A crash halts the machine: reply, then stop serving.  The state
             file (if any) still holds the last checkpoint for --restore;
             deliberately nothing is saved now — a crashed process does not
             get to write.  The flight recorder, being pure observability,
             does get to leave its post-mortem. *)
          err_span ~outcome:(error_code e);
          ignore (flight_dump srv ~reason:(error_code e));
          emit (em_error_json ~id ~retries:!retries e);
          srv.crashed <- true;
          false
      | exception Em.Em_error.Error e ->
          err_span ~outcome:(error_code e);
          ignore (flight_dump srv ~reason:(error_code e));
          emit (em_error_json ~id ~retries:!retries e);
          mirror_state srv;
          true
      | exception e ->
          (* Programming errors must not kill the loop either; reply and
             keep serving. *)
          err_span ~outcome:"internal";
          emit
            (Printf.sprintf "{\"id\":%d,\"error\":\"internal\",\"detail\":\"%s\"}" id
               (json_escape (Printexc.to_string e)));
          true)

(* One input line = one batch.  Multi-query batches share a scheduling
   window, so a D-disk machine overlaps their I/Os into parallel rounds.
   Every per-query failure is caught inside [run_command] and answered with
   an error reply, and [Ctx.io_window] closes its window on any unwind
   (exception-safe bracket), so a poisoned query can neither silence the
   rest of its batch nor leave the window open for the session. *)
let run_batch srv emit line =
  let queries = String.split_on_char ';' line in
  let go () = List.for_all (fun q -> run_command srv emit q) queries in
  match queries with
  | [] | [ _ ] -> go ()
  | _ -> Em.Ctx.io_window srv.ctx go

let serve_channels ?(should_stop = fun () -> false) srv ic oc =
  let emit line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    if should_stop () then false
    else
      match input_line ic with
      | exception End_of_file -> true
      | exception Sys_error _ ->
          (* A signal can interrupt the blocking read; anything else on the
             input side also ends this client without killing the server. *)
          if should_stop () then false else true
      | "" -> loop ()
      | line -> if run_batch srv emit line then loop () else false
  in
  loop ()

let final_json ?shutdown srv =
  let s = Emalg.Online_select.summary srv.session in
  Printf.sprintf
    "{\"closed\":true,\"queries\":%d,\"total_ios\":%d,\"pool_pages\":%d,\"drift\":{\"ratio\":%.4f,\"tripped\":%b}%s,\"wall\":{\"uptime_ms\":%.0f}}"
    s.Emalg.Online_select.queries
    (s.Emalg.Online_select.refine_ios + s.Emalg.Online_select.answer_ios)
    (match Em.Ctx.backend_pool srv.ctx with
    | Some pool -> Em.Backend.Pool.resident pool
    | None -> 0)
    (Drift.ratio srv.drift) (Drift.tripped srv.drift)
    (match shutdown with
    | Some reason -> Printf.sprintf ",\"shutdown\":\"%s\"" (json_escape reason)
    | None -> "")
    (uptime_ms srv)

(* End-of-session telemetry: the final frame, the shutdown post-mortem, and
   the closing summary line.  Kept apart from {!close} so the caller can
   still emit the summary before tearing the session down. *)
let finalize ?shutdown srv =
  (match srv.telemetry with
  | None -> ()
  | Some tel ->
      Em.Telemetry.final tel ~queries:(queries_admitted srv) ~cost:(cost_json srv)
        ~wall:(fun () -> wall_json srv);
      Em.Telemetry.close tel);
  let reason =
    match shutdown with
    | Some r -> "shutdown:" ^ r
    | None -> if srv.crashed then "shutdown:crashed" else "shutdown"
  in
  ignore (flight_dump srv ~reason);
  final_json ?shutdown srv

let greeting_json srv =
  Printf.sprintf
    "{\"serving\":{\"n\":%d,\"mem\":%d,\"block\":%d,\"disks\":%d,\"backend\":\"%s\",\"workload\":\"%s\",\"seed\":%d%s}}"
    srv.meta.m_n srv.meta.m_mem srv.meta.m_block srv.meta.m_disks
    (Em.Ctx.backend_name srv.ctx) srv.meta.m_workload srv.meta.m_seed
    (if srv.restored then
       Printf.sprintf ",\"restored\":true,\"queries\":%d,\"leaves\":%d"
         (Emalg.Online_select.summary srv.session).Emalg.Online_select.queries
         (Emalg.Online_select.summary srv.session).Emalg.Online_select.leaves
     else "")

(* Graceful shutdown, step one: persist (unless the machine crashed — then
   the last pre-crash checkpoint is the truth).  Kept separate from {!close}
   so the final summary can still read the live session in between. *)
let shutdown_checkpoint srv =
  if (not srv.crashed) && Emalg.Online_select.checkpoint_store srv.session <> None then
    checkpoint_now srv

let close srv = Emalg.Online_select.close ~drop_cache:true srv.session
