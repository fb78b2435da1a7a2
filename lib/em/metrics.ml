(* Typed metrics registry: counters, gauges and log-scaled histograms with
   label sets, plus Prometheus / canonical-JSON exporters.  Pure host-side
   observability: registering or updating a metric performs no simulated I/O
   and never changes what an algorithm does. *)

type labels = (string * string) list

let canonical_labels labels =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if a = b then invalid_arg (Printf.sprintf "Metrics: duplicate label %S" a);
        check rest
    | _ -> ()
  in
  check sorted;
  sorted

(* ---- log-scaled histograms ---- *)

type hist = {
  base : float;  (* bucket i (i >= 1) covers (base^(i-1), base^i]; bucket 0 covers (-inf, 1] *)
  mutable buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let make_hist base =
  if not (base > 1.) then invalid_arg "Metrics.histogram: base must be > 1";
  { base; buckets = [||]; count = 0; sum = 0.; min_v = infinity; max_v = neg_infinity }

let bucket_index h v =
  if v <= 1. then 0
  else begin
    (* Smallest i with base^i >= v; recompute against the boundary to dodge
       log rounding on exact powers. *)
    let i = int_of_float (ceil (log v /. log h.base)) in
    let i = max 1 i in
    if Float.pow h.base (float_of_int (i - 1)) >= v then i - 1
    else if Float.pow h.base (float_of_int i) >= v then i
    else i + 1
  end

let bucket_le h i = if i = 0 then 1. else Float.pow h.base (float_of_int i)

let observe h v =
  if Float.is_nan v then invalid_arg "Metrics.observe: NaN";
  let i = bucket_index h v in
  if i >= Array.length h.buckets then begin
    let grown = Array.make (i + 1) 0 in
    Array.blit h.buckets 0 grown 0 (Array.length h.buckets);
    h.buckets <- grown
  end;
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v

let quantile h q =
  if not (0. <= q && q <= 1.) then invalid_arg "Metrics.quantile: q outside [0, 1]";
  if h.count = 0 then nan
  else begin
    (* Rank-based: the smallest bucket whose cumulative count reaches
       ceil(q * count), reported as the bucket's upper boundary clamped to
       the observed range (so a single sample reports itself exactly). *)
    let target = max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
    let rec find i acc =
      if i >= Array.length h.buckets then Array.length h.buckets - 1
      else
        let acc = acc + h.buckets.(i) in
        if acc >= target then i else find (i + 1) acc
    in
    let i = find 0 0 in
    Float.min h.max_v (Float.max h.min_v (bucket_le h i))
  end

let hist_buckets h =
  (* Cumulative counts per boundary, Prometheus-style, trailing +Inf
     implicit (equal to count). *)
  let acc = ref 0 in
  Array.to_list (Array.mapi
    (fun i c ->
      acc := !acc + c;
      (bucket_le h i, !acc))
    h.buckets)

(* ---- registry ---- *)

type value = Counter of int ref | Gauge of float ref | Histogram of hist

type metric = { name : string; labels : labels; help : string; value : value }

type t = { namespace : string; mutable metrics : metric list (* newest first *) }

let create ?(namespace = "em") () = { namespace; metrics = [] }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let check_name name =
  if name = "" then invalid_arg "Metrics: empty metric name";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
      | _ -> invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name))
    name

(* Find-or-register: one instance per (name, labels), [fresh] if new.
   [project] picks the kind the caller asked for out of the stored value;
   re-registering with a different kind is a programming error. *)
let register t ~name ~labels ~help project fresh =
  check_name name;
  let labels = canonical_labels labels in
  let value =
    match List.find_opt (fun m -> m.name = name && m.labels = labels) t.metrics with
    | Some m -> m.value
    | None ->
        let m = { name; labels; help; value = fresh } in
        t.metrics <- m :: t.metrics;
        m.value
  in
  match project value with
  | Some x -> x
  | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name value)
           (kind_name fresh))

type counter = int ref
type gauge = float ref
type histogram = hist

let counter t ?(help = "") ?(labels = []) name =
  register t ~name ~labels ~help
    (function Counter r -> Some r | _ -> None)
    (Counter (ref 0))

let gauge t ?(help = "") ?(labels = []) name =
  register t ~name ~labels ~help
    (function Gauge r -> Some r | _ -> None)
    (Gauge (ref 0.))

let histogram t ?(help = "") ?(base = 2.) ?(labels = []) name =
  register t ~name ~labels ~help
    (function Histogram h -> Some h | _ -> None)
    (Histogram (make_hist base))

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: counters only go up";
  c := !c + by

let counter_value c = !c
let set g v = g := v
let add g v = g := !g +. v
let gauge_value g = !g
let hist_count h = h.count
let hist_sum h = h.sum

(* Export order: by name, then by canonical labels — independent of
   registration order, so exports are diffable. *)
let sorted_metrics t =
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> compare a.labels b.labels
      | c -> c)
    t.metrics

(* %.12g keeps integers integral ("42") and is stable across runs. *)
let fmt_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.12g" x

(* ---- Prometheus text exposition ---- *)

let prom_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels = function
  | [] -> ""
  | labels ->
      Printf.sprintf "{%s}"
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) labels))

let to_prometheus t =
  let b = Buffer.create 1024 in
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun m ->
      let full = t.namespace ^ "_" ^ m.name in
      if not (Hashtbl.mem seen_header full) then begin
        Hashtbl.add seen_header full ();
        if m.help <> "" then
          Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" full (prom_escape m.help));
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" full (kind_name m.value))
      end;
      match m.value with
      | Counter r ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %d\n" full (prom_labels m.labels) !r)
      | Gauge r ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" full (prom_labels m.labels) (fmt_float !r))
      | Histogram h ->
          List.iter
            (fun (le, cum) ->
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" full
                   (prom_labels (m.labels @ [ ("le", fmt_float le) ]))
                   cum))
            (hist_buckets h);
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" full
               (prom_labels (m.labels @ [ ("le", "+Inf") ]))
               h.count);
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %s\n" full (prom_labels m.labels) (fmt_float h.sum));
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" full (prom_labels m.labels) h.count))
    (sorted_metrics t);
  Buffer.contents b

(* ---- canonical JSON ---- *)

let json_float x =
  if x = infinity then Json.Str "+Inf"
  else if x = neg_infinity then Json.Str "-Inf"
  else Json.Float x

let to_json t =
  let metric m =
    let value =
      match m.value with
      | Counter r -> [ ("value", Json.Int !r) ]
      | Gauge r -> [ ("value", json_float !r) ]
      | Histogram h ->
          let bucket (le, cum) = Json.Obj [ ("le", json_float le); ("count", Json.Int cum) ] in
          [ ("count", Json.Int h.count); ("sum", json_float h.sum);
            ("buckets", Json.List (List.map bucket (hist_buckets h))) ]
    in
    Json.Obj
      (("name", Json.Str (t.namespace ^ "_" ^ m.name))
      :: ("type", Json.Str (kind_name m.value))
      :: ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) m.labels))
      :: value)
  in
  Json.Obj
    [ ("namespace", Json.Str t.namespace);
      ("metrics", Json.List (List.map metric (sorted_metrics t))) ]

(* ---- bridging from the simulator's native counters ---- *)

let publish_stats t (s : Stats.t) =
  set (gauge t ~help:"Block reads" "reads_total") (float_of_int s.Stats.reads);
  set (gauge t ~help:"Block writes" "writes_total") (float_of_int s.Stats.writes);
  set (gauge t ~help:"Total I/Os" "ios_total") (float_of_int (Stats.ios s));
  set (gauge t ~help:"Comparisons" "comparisons_total") (float_of_int s.Stats.comparisons);
  set (gauge t ~help:"Faulted attempts" "faults_total") (float_of_int s.Stats.faults);
  set (gauge t ~help:"Recovery re-attempts" "retries_total") (float_of_int s.Stats.retries);
  set
    (gauge t ~help:"Peak memory words in use" "mem_peak_words")
    (float_of_int s.Stats.mem_peak);
  (* Round gauges appear only when parallel disks actually compressed the
     schedule (rounds < ios), so single-disk runs — and the pinned exporter
     goldens — keep their shape. *)
  if s.Stats.rounds < Stats.ios s then begin
    set
      (gauge t ~help:"Parallel I/O rounds (one block per disk per round)"
         "rounds_total")
      (float_of_int s.Stats.rounds);
    List.iter
      (fun (disk, ios) ->
        set
          (gauge t ~help:"I/Os landing per disk"
             ~labels:[ ("disk", string_of_int disk) ]
             "disk_ios")
          (float_of_int ios))
      (Stats.disk_report s)
  end;
  (* Buffer-pool gauges appear only once a cached backend has been active,
     so uncached runs (and the pinned exporter goldens) keep their shape. *)
  if s.Stats.cache_hits > 0 || s.Stats.cache_misses > 0 || s.Stats.cache_evictions > 0
  then begin
    set
      (gauge t ~help:"Buffer-pool hits on metered reads" "cache_hits_total")
      (float_of_int s.Stats.cache_hits);
    set
      (gauge t ~help:"Buffer-pool misses on metered reads" "cache_misses_total")
      (float_of_int s.Stats.cache_misses);
    set
      (gauge t ~help:"Buffer-pool page evictions" "cache_evictions_total")
      (float_of_int s.Stats.cache_evictions)
  end;
  (* Communication gauges appear only once the machine has actually moved
     words between shards, so single-machine runs — and the pinned exporter
     goldens — keep their shape. *)
  if s.Stats.comm_rounds > 0 || s.Stats.comm_words > 0 then begin
    set
      (gauge t ~help:"Communication rounds (one per BSP superstep)" "comm_rounds_total")
      (float_of_int s.Stats.comm_rounds);
    set
      (gauge t ~help:"Words moved between shards" "comm_words_total")
      (float_of_int s.Stats.comm_words);
    List.iter
      (fun (shard, words) ->
        set
          (gauge t ~help:"Words sent per source shard"
             ~labels:[ ("shard", string_of_int shard) ]
             "shard_sent_words")
          (float_of_int words))
      (Stats.sent_report s);
    List.iter
      (fun (shard, words) ->
        set
          (gauge t ~help:"Words received per destination shard"
             ~labels:[ ("shard", string_of_int shard) ]
             "shard_recv_words")
          (float_of_int words))
      (Stats.recv_report s)
  end
