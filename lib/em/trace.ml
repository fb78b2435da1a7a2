type op = Read | Write
type locality = Sequential | Random
type kind = Io | Retry | Faulted of Fault.kind
type cache = Hit | Miss

type event = {
  seq : int;
  op : op;
  kind : kind;
  block : int;
  phase : string list;
  locality : locality;
  backend : string;
  cache : cache option;
  disk : int option;
  round : int option;
  shard : int option;
}

type ring = {
  capacity : int;
  mutable buf : event array;  (* physically empty until the first event *)
  mutable len : int;
  mutable head : int;  (* index of the oldest retained event *)
  mutable dropped : int;
}

type sink =
  | Ring of ring
  | Jsonl of out_channel
  | Custom of { push : event -> unit; on_reset : unit -> unit }

type t = {
  mutable sinks : sink list;
  mutable last_block : int;
  mutable next_seq : int;
  mutable seeks : int;
}

let default_ring_capacity = 8192
let ring_env_var = "EM_TRACE_RING"

let make_ring capacity =
  if capacity < 1 then invalid_arg "Trace.ring_sink: capacity must be >= 1";
  { capacity; buf = [||]; len = 0; head = 0; dropped = 0 }

let ring_sink ~capacity = Ring (make_ring capacity)
let jsonl_sink oc = Jsonl oc
let custom_sink ?(reset = fun () -> ()) f = Custom { push = f; on_reset = reset }

let create ?(ring_capacity = default_ring_capacity) () =
  { sinks = [ ring_sink ~capacity:ring_capacity ]; last_block = min_int; next_seq = 0; seeks = 0 }

let add_sink t sink = t.sinks <- t.sinks @ [ sink ]

let collector () =
  let acc = ref [] in
  ( Custom { push = (fun e -> acc := e :: !acc); on_reset = (fun () -> acc := []) },
    fun () -> List.rev !acc )

let op_name = function Read -> "read" | Write -> "write"
let locality_name = function Sequential -> "sequential" | Random -> "random"
let cache_name = function Hit -> "hit" | Miss -> "miss"

let kind_name = function
  | Io -> "io"
  | Retry -> "retry"
  | Faulted k -> "fault:" ^ Fault.kind_name k

(* Backend annotations are only emitted when they carry information
   ([sim] with no cache outcome is the counted-model default), so
   sim-backed traces keep the historical shape. *)
let event_to_json e =
  let opt key f = function None -> [] | Some x -> [ (key, f x) ] in
  let int i = Json.Int i and str s = Json.Str s in
  Json.Obj
    ([ ("seq", int e.seq); ("op", str (op_name e.op)); ("kind", str (kind_name e.kind));
       ("block", int e.block); ("phase", Json.List (List.map str e.phase));
       ("locality", str (locality_name e.locality)) ]
    @ (if e.backend = "sim" then [] else [ ("backend", str e.backend) ])
    @ opt "cache" (fun c -> str (cache_name c)) e.cache
    @ opt "disk" int e.disk
    @ (if e.disk = None then [] else opt "round" int e.round)
    @ opt "shard" int e.shard)

let ring_push r e =
  if Array.length r.buf = 0 then r.buf <- Array.make r.capacity e;
  if r.len < r.capacity then begin
    r.buf.((r.head + r.len) mod r.capacity) <- e;
    r.len <- r.len + 1
  end
  else begin
    r.buf.(r.head) <- e;
    r.head <- (r.head + 1) mod r.capacity;
    r.dropped <- r.dropped + 1
  end

let ring_events r = List.init r.len (fun i -> r.buf.((r.head + i) mod r.capacity))

let classify t block =
  if t.next_seq = 0 then Random
  else if block = t.last_block || block = t.last_block + 1 then Sequential
  else Random

let emit ?(kind = Io) ?(backend = "sim") ?cache ?disk ?round ?shard t op ~block ~phase =
  let locality = classify t block in
  (match locality with Random -> t.seeks <- t.seeks + 1 | Sequential -> ());
  let e =
    { seq = t.next_seq; op; kind; block; phase; locality; backend; cache; disk; round; shard }
  in
  t.next_seq <- t.next_seq + 1;
  t.last_block <- block;
  List.iter
    (function
      | Ring r -> ring_push r e
      | Jsonl oc ->
          output_string oc (Json.to_string (event_to_json e));
          output_char oc '\n'
      | Custom c -> c.push e)
    t.sinks

let first_ring t =
  List.find_map (function Ring r -> Some r | _ -> None) t.sinks

let events t = match first_ring t with None -> [] | Some r -> ring_events r
let dropped t = match first_ring t with None -> 0 | Some r -> r.dropped
let total t = t.next_seq
let seeks t = t.seeks

let reset t =
  t.last_block <- min_int;
  t.next_seq <- 0;
  t.seeks <- 0;
  List.iter
    (function
      | Ring r ->
          r.len <- 0;
          r.head <- 0;
          r.dropped <- 0
      | Custom c -> c.on_reset ()
      | Jsonl _ -> ())
    t.sinks
