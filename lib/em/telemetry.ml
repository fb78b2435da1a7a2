(* Streaming serve-layer telemetry: periodic one-line JSON frames.

   A [t] wraps a sink (file, Unix socket, or callback) and an emission
   policy — every N queries and/or every T seconds.  The frame layout keeps
   the repo's determinism contract: every simulated-cost field lives in the
   frame's "cost" object and is byte-deterministic for a fixed
   geometry/workload/seed, while every wall-clock-derived field (timestamps,
   qps, latency quantiles) is confined to the "wall" object, so smoke tests
   normalise exactly one sub-object and diff the rest byte-for-byte.

   Frame grammar (one frame per line):

     {"frame":"telemetry","seq":S,"queries":Q,"cost":{...},"wall":{...}}
     {"frame":"alert",    "seq":S,"queries":Q,"cost":{...},"wall":{...}}
     {"frame":"final",    "seq":S,"queries":Q,"cost":{...},"wall":{...}}

   The cost/wall payloads are provided by the caller (Core.Serve) as
   {!Json.t} objects; the wall side is a thunk so frames that are not due
   never touch the clock.  `em_repro top` reads frames back with
   {!Json.parse}. *)

(* Em.Telemetry.Json is kept as an alias of the codec for bench/perf,
   which reads BENCHMARK.json and checks serve replies through it. *)
module Json = Json

(* ---- sinks ---- *)

type sink = Chan of { oc : out_channel; owned : bool } | Fn of (string -> unit)

let channel_sink oc = Chan { oc; owned = false }
let file_sink path = Chan { oc = open_out path; owned = true }

let socket_sink path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     failwith
       (Printf.sprintf "telemetry socket %s: %s" path (Unix.error_message e)));
  Chan { oc = Unix.out_channel_of_descr fd; owned = true }

let fn_sink f = Fn f

(* ---- the emitter ---- *)

type t = {
  sink : sink;
  every_queries : int option;
  every_seconds : float option;
  now : unit -> float;
  mutable seq : int;
  mutable last_queries : int;
  mutable last_time : float;
  mutable closed : bool;
}

let create ?every_queries ?every_seconds ?(now = Unix.gettimeofday) sink =
  (match every_queries with
  | Some k when k < 1 -> invalid_arg "Telemetry.create: every_queries must be >= 1"
  | _ -> ());
  (match every_seconds with
  | Some s when not (s > 0.) -> invalid_arg "Telemetry.create: every_seconds must be > 0"
  | _ -> ());
  (* With no cadence at all, default to a frame per query: an emitter the
     caller bothered to attach should never be silent. *)
  let every_queries =
    match (every_queries, every_seconds) with None, None -> Some 1 | eq, _ -> eq
  in
  {
    sink;
    every_queries;
    every_seconds;
    now;
    seq = 0;
    last_queries = 0;
    last_time = now ();
    closed = false;
  }

let frames t = t.seq

let write t line =
  match t.sink with
  | Chan { oc; _ } ->
      output_string oc line;
      output_char oc '\n';
      flush oc
  | Fn f -> f line

let emit_frame t ~kind ~queries ~cost ~wall =
  if not t.closed then begin
    t.seq <- t.seq + 1;
    write t
      (Json.to_string
         (Json.Obj
            [ ("frame", Json.Str kind); ("seq", Json.Int t.seq); ("queries", Json.Int queries);
              ("cost", cost); ("wall", wall ()) ]))
  end

let due t ~queries =
  (match t.every_queries with
  | Some k -> queries - t.last_queries >= k
  | None -> false)
  ||
  match t.every_seconds with
  | Some s -> t.now () -. t.last_time >= s
  | None -> false

let tick t ~queries ~cost ~wall =
  if (not t.closed) && due t ~queries then begin
    emit_frame t ~kind:"telemetry" ~queries ~cost ~wall;
    t.last_queries <- queries;
    t.last_time <- t.now ()
  end

let alert t ~queries ~cost ~wall = emit_frame t ~kind:"alert" ~queries ~cost ~wall
let final t ~queries ~cost ~wall = emit_frame t ~kind:"final" ~queries ~cost ~wall

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.sink with
    | Chan { oc; owned = true } -> close_out_noerr oc
    | Chan { oc; owned = false } -> ( try flush oc with Sys_error _ -> ())
    | Fn _ -> ()
  end

(* ---- frame summarisation (the library half of `em_repro top`) ---- *)

let get_num v keys = Option.bind (Json.path keys v) Json.num
let fnum v keys = Option.value ~default:0. (get_num v keys)

let summarize ?prev line =
  match Json.parse line with
  | Error msg -> Error msg
  | Ok v -> (
      match Option.bind (Json.member "frame" v) Json.str with
      | None -> Error "not a telemetry frame (no \"frame\" field)"
      | Some kind ->
          let queries = fnum v [ "queries" ] in
          let ios = fnum v [ "cost"; "ios" ] in
          let hits = fnum v [ "cost"; "cache_hits" ] in
          let misses = fnum v [ "cost"; "cache_misses" ] in
          let leaves = fnum v [ "cost"; "leaves" ] in
          let sorted = fnum v [ "cost"; "sorted_leaves" ] in
          let splits = fnum v [ "cost"; "splits" ] in
          let drift = get_num v [ "cost"; "drift_ratio" ] in
          (* Interval qps from the previous frame's wall timestamp when
             available (a live rate); the session-lifetime average
             otherwise. *)
          let qps =
            let session_qps = fnum v [ "wall"; "qps" ] in
            match Option.bind prev (fun p -> Result.to_option (Json.parse p)) with
            | Some p ->
                let dq = queries -. fnum p [ "queries" ] in
                let dt = (fnum v [ "wall"; "ts_ms" ] -. fnum p [ "wall"; "ts_ms" ]) /. 1000. in
                if dt > 0. && dq >= 0. then dq /. dt else session_qps
            | None -> session_qps
          in
          let cache_line =
            if hits +. misses > 0. then
              Printf.sprintf "%.0f%% hit rate (%.0f hits, %.0f misses)"
                (100. *. hits /. (hits +. misses))
                hits misses
            else "no cached backend active"
          in
          let b = Buffer.create 256 in
          let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
          add "frame       #%.0f (%s)" (fnum v [ "seq" ]) kind;
          add "queries     %.0f" queries;
          add "qps         %.2f" qps;
          add "latency     p50 %.3f ms, p99 %.3f ms"
            (fnum v [ "wall"; "p50_ms" ])
            (fnum v [ "wall"; "p99_ms" ]);
          add "I/Os        %.0f total, %.1f per query" ios
            (if queries > 0. then ios /. queries else 0.);
          add "cache       %s" cache_line;
          add "refinement  %.0f/%.0f leaves sorted, %.0f splits" sorted leaves splits;
          (match drift with
          | Some r -> add "drift       running ratio %.4f%s" r
                        (if kind = "alert" then "  ** BOUND ALERT **" else "")
          | None -> ());
          Ok (Buffer.contents b))
