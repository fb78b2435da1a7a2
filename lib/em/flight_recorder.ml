(* Bounded journal of recent query records, joined on demand with the
   Trace ring into a self-contained post-mortem JSON.

   Each record remembers the [Trace.total] window ([seq_lo], [seq_hi])
   that was live while its query executed, so a dump can slice the trace
   ring down to exactly the events belonging to the retained queries.
   Everything wall-clock-derived stays under "wall" keys, matching the
   serve/telemetry determinism convention. *)

type record = {
  id : int;
  kind : string;
  query : string;
  ios : int;
  rounds : int;
  splits : int;
  wall_ns : int;
  outcome : string;
  seq_lo : int;  (* Trace.total before the query ran *)
  seq_hi : int;  (* Trace.total after it finished *)
}

type t = {
  capacity : int;
  mutable buf : record array;
  mutable len : int;
  mutable head : int;
  mutable total : int;  (* records ever pushed, independent of capacity *)
  mutable dumps : int;
}

let default_capacity = 64

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Flight_recorder.create: capacity must be >= 1";
  { capacity; buf = [||]; len = 0; head = 0; total = 0; dumps = 0 }

let record t r =
  if Array.length t.buf = 0 then t.buf <- Array.make t.capacity r;
  if t.len < t.capacity then begin
    t.buf.((t.head + t.len) mod t.capacity) <- r;
    t.len <- t.len + 1
  end
  else begin
    t.buf.(t.head) <- r;
    t.head <- (t.head + 1) mod t.capacity
  end;
  t.total <- t.total + 1

let records t = List.init t.len (fun i -> t.buf.((t.head + i) mod t.capacity))
let recorded t = t.total
let retained t = t.len
let dumps t = t.dumps

let record_to_json r =
  let int k v = (k, Json.Int v) and str k v = (k, Json.Str v) in
  Json.Obj
    [ int "id" r.id; str "kind" r.kind; str "query" r.query; str "outcome" r.outcome;
      ("cost", Json.Obj [ int "ios" r.ios; int "rounds" r.rounds; int "splits" r.splits ]);
      ("trace", Json.Obj [ int "lo" r.seq_lo; int "hi" r.seq_hi ]);
      ("wall", Json.Obj [ int "ns" r.wall_ns ]) ]

let dump ?trace ?metrics ?(now = Unix.gettimeofday) ~reason t =
  t.dumps <- t.dumps + 1;
  let rs = records t in
  (* Slice the trace ring to the events that belong to retained queries:
     everything at or after the oldest retained record's start. *)
  let events, dropped =
    match trace with
    | None -> ([], 0)
    | Some tr ->
        let lo = List.fold_left (fun acc r -> min acc r.seq_lo) max_int rs in
        ( Trace.events tr
          |> List.filter (fun (e : Trace.event) -> rs = [] || e.seq >= lo)
          |> List.map Trace.event_to_json,
          Trace.dropped tr )
  in
  let postmortem =
    [ ("reason", Json.Str reason); ("recorded", Json.Int t.total); ("retained", Json.Int t.len);
      ("queries", Json.List (List.map record_to_json rs)); ("trace_events", Json.List events);
      ("trace_dropped", Json.Int dropped);
      ("metrics", Option.fold ~none:Json.Null ~some:Metrics.to_json metrics);
      ("wall", Json.Obj [ ("ts_ms", Json.Fixed (0, now () *. 1000.)) ]) ]
  in
  Json.to_string (Json.Obj [ ("postmortem", Json.Obj postmortem) ])

let rec ensure_dir dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let dump_to_file ?trace ?metrics ?now ~reason t ~path =
  ensure_dir (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (dump ?trace ?metrics ?now ~reason t);
      output_char oc '\n')
