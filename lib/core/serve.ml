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

module Os = Emalg.Online_select
module J = Em.Json

(* bench/perf escapes its own JSON output through this name. *)
let json_escape = J.escape

let ints a = J.List (Array.fold_right (fun x acc -> J.Int x :: acc) a [])

(* Field shorthands for the JSON views. *)
let int key v = (key, J.Int v)
let str key v = (key, J.Str v)

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
  mutable session : int Os.t;
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
  reply_buf : Buffer.t;  (* every reply is rendered here, then emitted *)
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

let state_magic = "em_repro-serve-state-v3"

let persisted_of_session meta by_kind session =
  let snap = Os.snapshot session in
  let leaves =
    List.map
      (fun (lo, len, h) ->
        let payload =
          match h with
          | Os.H_raw -> P_raw
          | Os.H_unsorted tv -> P_unsorted (Em.Vec.Oracle.to_array tv)
          | Os.H_sorted sv -> P_sorted (Em.Vec.Oracle.to_array sv)
        in
        (lo, len, payload))
      snap.Os.s_leaves
  in
  {
    p_meta = meta;
    p_queries = snap.Os.s_queries;
    p_refine_ios = snap.Os.s_refine_ios;
    p_answer_ios = snap.Os.s_answer_ios;
    p_splits = snap.Os.s_splits;
    p_by_kind = by_kind;
    p_leaves = leaves;
  }

let by_kind_json (select, quantile, range) =
  J.Obj [ int "select" select; int "quantile" quantile; int "range" range ]

(* Format v3: one JSON document.  Leaves carry their payload under
   "sorted" (keys) or "unsorted" (flattened key/index pairs); a raw leaf
   carries neither. *)
let state_to_json (p : persisted) =
  let m = p.p_meta in
  let payload = function
    | P_raw -> []
    | P_sorted keys -> [ ("sorted", ints keys) ]
    | P_unsorted pairs ->
        let flat = Array.fold_right (fun (k, i) acc -> J.Int k :: J.Int i :: acc) pairs [] in
        [ ("unsorted", J.List flat) ]
  in
  let leaf (lo, len, p) = J.Obj (int "lo" lo :: int "len" len :: payload p) in
  J.Obj
    [
      str "magic" state_magic;
      ( "meta",
        J.Obj
          [ int "n" m.m_n; int "mem" m.m_mem; int "block" m.m_block; int "disks" m.m_disks;
            str "workload" m.m_workload; int "seed" m.m_seed ] );
      int "queries" p.p_queries; int "refine_ios" p.p_refine_ios;
      int "answer_ios" p.p_answer_ios; int "splits" p.p_splits;
      ("by_kind", by_kind_json p.p_by_kind);
      ("leaves", J.List (List.map leaf p.p_leaves));
    ]

(* The decoder trusts nothing: wrong magic, a missing or mistyped field and
   a payload whose length disagrees with its leaf are all [Error]s.  Leaf
   tiling is checked by [Online_select.restore]. *)
let state_of_json v : (persisted, string) result =
  let ( let* ) = Result.bind in
  let field conv key v =
    match Option.bind (J.member key v) conv with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "missing or mistyped field %S" key)
  in
  let obj = function J.Obj _ as o -> Some o | _ -> None in
  let int_array = function
    | J.List l ->
        let a = Array.of_list (List.filter_map J.int l) in
        if Array.length a = List.length l then Some a else None
    | _ -> None
  in
  let rec all f = function
    | [] -> Ok []
    | x :: rest ->
        let* y = f x in
        let* ys = all f rest in
        Ok (y :: ys)
  in
  let leaf l =
    let* lo = field J.int "lo" l in
    let* len = field J.int "len" l in
    let* payload =
      match (J.member "sorted" l, J.member "unsorted" l) with
      | None, None -> Ok P_raw
      | Some keys, None -> (
          match int_array keys with
          | Some a when Array.length a = len -> Ok (P_sorted a)
          | _ -> Error "bad sorted payload")
      | None, Some pairs -> (
          match int_array pairs with
          | Some a when Array.length a = 2 * len ->
              Ok (P_unsorted (Array.init len (fun i -> (a.(2 * i), a.((2 * i) + 1)))))
          | _ -> Error "bad unsorted payload")
      | Some _, Some _ -> Error "leaf with two payloads"
    in
    Ok (lo, len, payload)
  in
  let* magic = field J.str "magic" v in
  if magic <> state_magic then Error "not a serve state file"
  else
    let* m = field obj "meta" v in
    let* m_n = field J.int "n" m in
    let* m_mem = field J.int "mem" m in
    let* m_block = field J.int "block" m in
    let* m_disks = field J.int "disks" m in
    let* m_workload = field J.str "workload" m in
    let* m_seed = field J.int "seed" m in
    let* p_queries = field J.int "queries" v in
    let* p_refine_ios = field J.int "refine_ios" v in
    let* p_answer_ios = field J.int "answer_ios" v in
    let* p_splits = field J.int "splits" v in
    let* k = field obj "by_kind" v in
    let* select = field J.int "select" k in
    let* quantile = field J.int "quantile" k in
    let* range = field J.int "range" k in
    let* leaves = field (function J.List l -> Some l | _ -> None) "leaves" v in
    let* p_leaves = all leaf leaves in
    Ok
      {
        p_meta = { m_n; m_mem; m_block; m_disks; m_workload; m_seed };
        p_queries;
        p_refine_ios;
        p_answer_ios;
        p_splits;
        p_by_kind = (select, quantile, range);
        p_leaves;
      }

let write_state path (p : persisted) =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (J.to_string (state_to_json p)));
  Sys.rename tmp path

let read_state path : (persisted, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text ->
      (match J.parse text with
      | Error msg -> Error (Printf.sprintf "not a serve state file (%s)" msg)
      | Ok v -> state_of_json v)
      |> Result.map_error (fun msg -> path ^ ": " ^ msg)

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
          | P_raw -> Os.H_raw
          | P_unsorted pairs -> Os.H_unsorted (Em.Vec.of_array pctx pairs)
          | P_sorted keys -> Os.H_sorted (Em.Vec.of_array ctx keys)
        in
        (lo, len, h))
      p.p_leaves
  in
  let snap =
    {
      Os.s_leaves = leaves;
      s_queries = p.p_queries;
      s_refine_ios = p.p_refine_ios;
      s_answer_ios = p.p_answer_ios;
      s_splits = p.p_splits;
    }
  in
  let store = Em.Checkpoint.create ctx in
  Em.Checkpoint.install store ~words:(Os.snapshot_words snap) snap;
  Os.restore ?batch_plan ?every_splits cmp ctx v store

let by_kind srv = (srv.n_select, srv.n_quantile, srv.n_range)

let save_state srv =
  match srv.state_path with
  | None -> ()
  | Some path ->
      write_state path (persisted_of_session srv.meta (by_kind srv) srv.session);
      (match Os.checkpoint_store srv.session with
      | Some store -> srv.last_saves <- Em.Checkpoint.saves store
      | None -> ())

(* Automatic policy saves happen inside the session; mirror them to the
   state file whenever the store's save counter has advanced, so the file
   on disk is as fresh as the in-process checkpoint. *)
let mirror_state srv =
  match (srv.state_path, Os.checkpoint_store srv.session) with
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
            | None -> (
                match session_of_persisted ?every_splits:checkpoint_every ctx v p with
                | session ->
                    restored := true;
                    restored_by_kind := p.p_by_kind;
                    session
                | exception Invalid_argument msg ->
                    failwith (Printf.sprintf "serve --restore: %s: %s" path msg))))
    | _ ->
        let s = Os.open_session cmp ctx v in
        if checkpoint_every <> None || state_path <> None then
          Os.enable_checkpoints ?every_splits:checkpoint_every s;
        s
  in
  Os.set_io_budget session io_budget;
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
      reply_buf = Buffer.create 1024;
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

let reply_json ~id label (r : int Os.reply) =
  let d = r.Os.cost in
  let cost =
    (int "ios" (Em.Stats.delta_ios d) :: Em.Stats.json_fields d)
    @ [ int "refine_ios" (Em.Stats.delta_ios r.Os.refine); int "answer_ios" r.Os.answer_ios;
        int "splits" r.Os.splits ]
  in
  J.Obj [ int "id" id; str "query" label; ("values", ints r.Os.values); ("cost", J.Obj cost) ]

let uptime_ms srv = (srv.clock () -. srv.started) *. 1000.
let wall_uptime srv = ("wall", J.Obj [ ("uptime_ms", J.Fixed (0, uptime_ms srv)) ])

let summary_json srv =
  let s = Os.summary srv.session in
  let st = srv.ctx.Em.Ctx.stats in
  let session =
    [ int "queries" s.Os.queries; ("by_kind", by_kind_json (by_kind srv));
      int "refine_ios" s.Os.refine_ios; int "answer_ios" s.Os.answer_ios;
      int "total_ios" (s.Os.refine_ios + s.Os.answer_ios); int "splits" s.Os.splits;
      int "leaves" s.Os.leaves; int "sorted_leaves" s.Os.sorted_leaves ]
  in
  let machine =
    Em.Stats.json_fields (Em.Stats.snapshot st) @ [ int "mem_peak" st.Em.Stats.mem_peak ]
  in
  J.Obj [ ("session", J.Obj session); ("machine", J.Obj machine); wall_uptime srv ]

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
  let s = Os.summary srv.session in
  let g name help v =
    Em.Metrics.set (Em.Metrics.gauge reg ~help name) (float_of_int v)
  in
  g "session_queries" "queries answered by this session" s.Os.queries;
  g "session_refine_ios" "cumulative refinement I/Os" s.Os.refine_ios;
  g "session_answer_ios" "cumulative lookup I/Os" s.Os.answer_ios;
  g "session_splits" "cumulative interval splits" s.Os.splits;
  g "session_leaves" "current leaf intervals" s.Os.leaves;
  g "session_sorted_leaves" "leaves holding sorted runs" s.Os.sorted_leaves;
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
  (match Os.checkpoint_store srv.session with
  | None -> ()
  | Some store ->
      g "session_checkpoint_saves" "checkpoint saves taken" (Em.Checkpoint.saves store);
      g "session_checkpoint_save_ios" "metered checkpoint writes"
        (Em.Checkpoint.save_ios store);
      g "session_resume_loads" "checkpoint resume loads" (Em.Checkpoint.loads store);
      g "session_resume_load_ios" "metered resume reads" (Em.Checkpoint.load_ios store));
  Em.Metrics.to_json reg

let intervals_json srv =
  let interval (lo, len, sorted) =
    J.Obj [ int "lo" lo; int "len" len; ("sorted", J.Bool sorted) ]
  in
  J.Obj [ ("intervals", J.List (List.map interval (Os.intervals srv.session))) ]

(* Span tree of the attached profiler, I/O counts only (wall-clock excluded
   so transcripts stay deterministic). *)
let profile_json srv =
  let span (s : Em.Profile.span) =
    J.Obj
      [ str "path" (Em.Profile.path_name s.path); int "ios" (Em.Profile.span_ios s);
        int "calls" s.calls; int "comparisons" s.cost.Em.Stats.d_comparisons ]
  in
  J.Obj [ ("spans", J.List (List.map span (Em.Profile.spans srv.profiler))) ]

let checkpoint_json srv =
  match Os.checkpoint_store srv.session with
  | None -> J.Obj [ ("checkpointed", J.Bool false) ]
  | Some store ->
      J.Obj
        ([ ("checkpointed", J.Bool true); int "saves" (Em.Checkpoint.saves store);
           int "save_ios" (Em.Checkpoint.save_ios store);
           int "leaves" (Os.summary srv.session).Os.leaves ]
        @ Option.to_list (Option.map (str "state_file") srv.state_path))

let checkpoint_now srv =
  Os.checkpoint srv.session;
  save_state srv

let error_code = function
  | Em.Em_error.Io_fault _ -> "io_fault"
  | Em.Em_error.Read_failed _ -> "read_failed"
  | Em.Em_error.Write_failed _ -> "write_failed"
  | Em.Em_error.Corrupt_block _ -> "corrupt_block"
  | Em.Em_error.Crashed _ -> "crashed"
  | Em.Em_error.Budget_exceeded _ -> "budget_exceeded"

let em_error_json ~id ~retries e =
  J.Obj
    (int "id" id
    ::
    (match e with
    | Em.Em_error.Budget_exceeded { budget; spent } ->
        [ str "error" "budget_exceeded"; int "budget" budget; int "spent" spent ]
    | e ->
        [ str "error" (error_code e); str "detail" (Em.Em_error.to_string e);
          int "retries" retries ]))

(* ---- telemetry frames ---- *)

(* The "cost" payload of a telemetry frame: cumulative session/machine
   simulated costs — byte-deterministic by construction. *)
let cost_json srv =
  let s = Os.summary srv.session in
  let st = srv.ctx.Em.Ctx.stats in
  (* Communication counters are simulated costs, so they belong in this
     compartment — but a serve session's machine only accrues them when it
     runs as a cluster shard, so they are emitted gated (like the shard id
     on trace events): absent when zero, keeping the frame goldens of every
     single-machine session byte-identical. *)
  let comm =
    if st.Em.Stats.comm_rounds > 0 || st.Em.Stats.comm_words > 0 then
      [ int "comm_rounds" (Em.Stats.effective_comm_rounds st);
        int "comm_words" st.Em.Stats.comm_words ]
    else []
  in
  J.Obj
    ([ int "ios" (s.Os.refine_ios + s.Os.answer_ios); int "refine_ios" s.Os.refine_ios;
       int "answer_ios" s.Os.answer_ios; int "splits" s.Os.splits; int "leaves" s.Os.leaves;
       int "sorted_leaves" s.Os.sorted_leaves ]
    @ Em.Stats.json_fields (Em.Stats.snapshot st)
    @ [ int "cache_hits" st.Em.Stats.cache_hits; int "cache_misses" st.Em.Stats.cache_misses ]
    @ comm
    @ [ ("by_kind", by_kind_json (by_kind srv));
        ("drift_ratio", J.Fixed (4, Drift.ratio srv.drift)) ])

(* The "wall" payload: everything wall-clock-derived, and nothing else. *)
let wall_json srv =
  let up_s = srv.clock () -. srv.started in
  let quant p =
    let v = Em.Metrics.quantile srv.lat_hist p in
    J.Fixed (3, if Float.is_nan v then 0. else v /. 1e6)
  in
  J.Obj
    [ ("ts_ms", J.Fixed (0, srv.clock () *. 1000.)); ("uptime_ms", J.Fixed (0, up_s *. 1000.));
      ("qps", J.Fixed (2, if up_s > 0. then float_of_int (queries_admitted srv) /. up_s else 0.));
      ("p50_ms", quant 0.5); ("p99_ms", quant 0.99) ]

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
  | Query of Os.query
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
      | Some k -> Ok (Query (Os.Select k))
      | None -> Error "select needs an integer rank")
  | [ "quantile"; phi ] -> (
      (* float_of_string_opt happily parses "nan" and "inf"; reject anything
         outside (0, 1] here so malformed input never reaches the session. *)
      match float_of_string_opt phi with
      | Some phi when Float.is_finite phi && phi > 0. && phi <= 1. ->
          Ok (Query (Os.Quantile phi))
      | Some _ -> Error "quantile must satisfy 0 < phi <= 1"
      | None -> Error "quantile needs a float")
  | [ "range"; a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when b < a -> Error "range needs a <= b"
      | Some a, Some b -> Ok (Query (Os.Range (a, b)))
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
  | Os.Select _ -> "select"
  | Os.Quantile _ -> "quantile"
  | Os.Range _ -> "range"

(* One query, with Resilient-style bounded retries at the query level: a
   typed failure that escapes the per-I/O recovery re-runs the query (each
   re-run metered as a retry; monotone refinement means only the unfinished
   tail is redone). *)
let exec_query srv ~retries q =
  Em.Resilient.with_retries ~max_retries:srv.max_retries
    ~on_retry:(fun ~attempt:_ _ -> incr retries)
    srv.ctx.Em.Ctx.dev
    (fun () -> Os.query srv.session q)

let run_command srv emit line =
  let reply v =
    Buffer.clear srv.reply_buf;
    J.to_buffer srv.reply_buf v;
    emit (Buffer.contents srv.reply_buf);
    true
  in
  match parse_command line with
  | Error msg -> reply (J.Obj [ str "error" msg ])
  | Ok Quit -> false
  | Ok Stats -> reply (summary_json srv)
  | Ok Metrics -> reply (metrics_json srv)
  | Ok Intervals -> reply (intervals_json srv)
  | Ok Profile -> reply (profile_json srv)
  | Ok Checkpoint ->
      checkpoint_now srv;
      reply (checkpoint_json srv)
  | Ok (Query q) -> (
      (* Admit the query: assign its id and open its request span. *)
      let id = srv.next_id in
      srv.next_id <- id + 1;
      (match q with
      | Os.Select _ -> srv.n_select <- srv.n_select + 1
      | Os.Quantile _ -> srv.n_quantile <- srv.n_quantile + 1
      | Os.Range _ -> srv.n_range <- srv.n_range + 1);
      let label = String.trim line in
      let seq_lo = Em.Trace.total srv.ctx.Em.Ctx.trace in
      let before = Em.Stats.snapshot srv.ctx.Em.Ctx.stats in
      let splits0 = (Os.summary srv.session).Os.splits in
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
        let s = Os.summary srv.session in
        let verdict =
          Drift.observe srv.drift ~queries:(queries_admitted srv)
            ~total_ios:
              (s.Os.refine_ios + s.Os.answer_ios)
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
          (Os.summary srv.session).Os.splits - splits0
        in
        finish ~ios:(Em.Stats.delta_ios d) ~rounds:d.Em.Stats.d_rounds ~splits ~outcome
      in
      let retries = ref 0 in
      match exec_query srv ~retries q with
      | r ->
          finish
            ~ios:(Em.Stats.delta_ios r.Os.cost)
            ~rounds:r.Os.cost.Em.Stats.d_rounds
            ~splits:r.Os.splits ~outcome:"ok";
          let ok = reply (reply_json ~id label r) in
          mirror_state srv;
          ok
      | exception Invalid_argument msg ->
          err_span ~outcome:"invalid";
          reply (J.Obj [ int "id" id; str "error" msg ])
      | exception Em.Em_error.Error (Em.Em_error.Crashed _ as e) ->
          (* A crash halts the machine: reply, then stop serving.  The state
             file (if any) still holds the last checkpoint for --restore;
             deliberately nothing is saved now — a crashed process does not
             get to write.  The flight recorder, being pure observability,
             does get to leave its post-mortem. *)
          err_span ~outcome:(error_code e);
          ignore (flight_dump srv ~reason:(error_code e));
          ignore (reply (em_error_json ~id ~retries:!retries e));
          srv.crashed <- true;
          false
      | exception Em.Em_error.Error e ->
          err_span ~outcome:(error_code e);
          ignore (flight_dump srv ~reason:(error_code e));
          let ok = reply (em_error_json ~id ~retries:!retries e) in
          mirror_state srv;
          ok
      | exception e ->
          (* Programming errors must not kill the loop either; reply and
             keep serving. *)
          err_span ~outcome:"internal";
          reply
            (J.Obj [ int "id" id; str "error" "internal"; str "detail" (Printexc.to_string e) ]))

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
  let s = Os.summary srv.session in
  let pool_pages =
    Option.fold ~none:0 ~some:Em.Backend.Pool.resident (Em.Ctx.backend_pool srv.ctx)
  in
  let drift =
    [ ("ratio", J.Fixed (4, Drift.ratio srv.drift)); ("tripped", J.Bool (Drift.tripped srv.drift)) ]
  in
  J.Obj
    ([ ("closed", J.Bool true); int "queries" s.Os.queries;
       int "total_ios" (s.Os.refine_ios + s.Os.answer_ios); int "pool_pages" pool_pages;
       ("drift", J.Obj drift) ]
    @ Option.to_list (Option.map (str "shutdown") shutdown)
    @ [ wall_uptime srv ])

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
  let m = srv.meta and s = Os.summary srv.session in
  let restored =
    if not srv.restored then []
    else [ ("restored", J.Bool true); int "queries" s.Os.queries; int "leaves" s.Os.leaves ]
  in
  J.Obj
    [ ( "serving",
        J.Obj
          ([ int "n" m.m_n; int "mem" m.m_mem; int "block" m.m_block; int "disks" m.m_disks;
             str "backend" (Em.Ctx.backend_name srv.ctx); str "workload" m.m_workload;
             int "seed" m.m_seed ]
          @ restored) ) ]

(* Graceful shutdown, step one: persist (unless the machine crashed — then
   the last pre-crash checkpoint is the truth).  Kept separate from {!close}
   so the final summary can still read the live session in between. *)
let shutdown_checkpoint srv =
  if (not srv.crashed) && Os.checkpoint_store srv.session <> None then
    checkpoint_now srv

let close srv = Os.close ~drop_cache:true srv.session
