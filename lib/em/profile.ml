(* Span-scoped profiler.  Attaches to a machine's [Stats] through the
   [span_hooks] observer interface: every [Phase.with_label] (and
   checkpoint/resume charge) becomes a span keyed on its full phase path,
   accumulating the I/Os, comparisons, fault/retry overhead, peak memory and
   host wall-clock time spent while the span was open.  Pure observation: no
   simulated I/O, no behavior change. *)

type span = {
  path : string list;  (* outermost label first *)
  mutable calls : int;
  mutable cost : Stats.delta;
  mutable wall_ns : float;
  mutable mem_peak : int;
}

type frame = {
  span : span;
  snap : Stats.delta;
  start : float;  (* host seconds *)
  mutable peak : int;
  counted : bool;
      (* Re-entrant spans (a phase label nested inside itself) only bump
         [calls]: the outermost open frame already covers their cost, so
         counting them again would double-charge the span. *)
}

type t = {
  spans : (string list, span) Hashtbl.t;
  mutable open_frames : frame list;  (* innermost first *)
  mutable source : Stats.t option;
}

let create () = { spans = Hashtbl.create 32; open_frames = []; source = None }

let now () = Unix.gettimeofday ()

let span_ios s = Stats.delta_ios s.cost
let zero_span path = { path; calls = 0; cost = Stats.zero; wall_ns = 0.; mem_peak = 0 }

let find_span t path =
  match Hashtbl.find_opt t.spans path with
  | Some s -> s
  | None ->
      let s = zero_span path in
      Hashtbl.add t.spans path s;
      s

let on_push t stats stack =
  let path = List.rev stack in
  let span = find_span t path in
  let counted =
    not (List.exists (fun f -> f.span == span) t.open_frames)
  in
  t.open_frames <-
    {
      span;
      snap = Stats.snapshot stats;
      start = now ();
      peak = stats.Stats.mem_in_use;
      counted;
    }
    :: t.open_frames

let on_pop t stats _stack =
  match t.open_frames with
  | [] -> ()  (* unbalanced pop after a crash wiped the stack: ignore *)
  | frame :: rest ->
      t.open_frames <- rest;
      let s = frame.span in
      s.calls <- s.calls + 1;
      if frame.counted then begin
        s.cost <- Stats.add s.cost (Stats.delta stats frame.snap);
        s.wall_ns <- s.wall_ns +. ((now () -. frame.start) *. 1e9);
        if frame.peak > s.mem_peak then s.mem_peak <- frame.peak
      end;
      (* The parent's peak must cover everything the child saw. *)
      (match rest with
      | parent :: _ -> if frame.peak > parent.peak then parent.peak <- frame.peak
      | [] -> ())

let on_mem t m =
  match t.open_frames with
  | [] -> ()
  | frame :: _ -> if m > frame.peak then frame.peak <- m

let attach t stats =
  t.source <- Some stats;
  Stats.set_hooks stats
    (Some
       {
         Stats.on_push = (fun stack -> on_push t stats stack);
         on_pop = (fun stack -> on_pop t stats stack);
         on_mem = (fun m -> on_mem t m);
       })

let detach stats = Stats.set_hooks stats None

let reset t =
  Hashtbl.reset t.spans;
  t.open_frames <- []

let spans t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.spans []
  |> List.sort (fun a b ->
         match Int.compare (span_ios b) (span_ios a) with
         | 0 -> compare a.path b.path
         | c -> c)

let path_name path = String.concat "/" path

(* ---- tree report ---- *)

type node = { label : string; mutable span : span option; mutable children : node list }

let make_node label = { label; span = None; children = [] }

let child_named node label =
  match List.find_opt (fun c -> c.label = label) node.children with
  | Some c -> c
  | None ->
      let c = make_node label in
      node.children <- node.children @ [ c ];
      c

let tree t =
  let root = make_node "(run)" in
  List.iter
    (fun s ->
      let node = List.fold_left child_named root s.path in
      node.span <- Some s)
    (List.sort (fun a b -> compare a.path b.path) (spans t));
  root

let node_span node = match node.span with Some s -> s | None -> zero_span []

(* Cost outside every top-level span, against the attached machine: the
   "(other)" row of both reports. *)
let other t =
  let top =
    Hashtbl.fold
      (fun path s acc -> match path with [ _ ] -> Stats.add acc s.cost | _ -> acc)
      t.spans Stats.zero
  in
  match t.source with Some stats -> Stats.delta stats top | None -> Stats.zero

let pp_cost ppf (c : Stats.delta) =
  Format.fprintf ppf "%8d I/O (r %d / w %d)  %9d cmp" (Stats.delta_ios c) c.Stats.d_reads
    c.Stats.d_writes c.Stats.d_comparisons

(* Round compression only when parallel disks actually shortened the
   schedule, so single-disk profiles keep their exact shape; likewise the
   fault and cache brackets appear only when non-zero. *)
let pp_brackets ppf (c : Stats.delta) =
  if c.Stats.d_rounds < Stats.delta_ios c then Format.fprintf ppf "  [rounds %d]" c.Stats.d_rounds;
  if c.Stats.d_faults > 0 || c.Stats.d_retries > 0 then
    Format.fprintf ppf "  [faulted %d / retried %d]" c.Stats.d_faults c.Stats.d_retries;
  if c.Stats.d_cache_hits > 0 || c.Stats.d_cache_misses > 0 then
    Format.fprintf ppf "  [hit %d / miss %d]" c.Stats.d_cache_hits c.Stats.d_cache_misses

let label_column ppf ~depth label =
  Format.fprintf ppf "%s%-*s " (String.make (2 * depth) ' ') (max 1 (28 - (2 * depth))) label

let heaviest_first nodes =
  List.sort (fun a b -> Int.compare (span_ios (node_span b)) (span_ios (node_span a))) nodes

let rec pp_node ppf ~depth node =
  let s = node_span node in
  let children = heaviest_first node.children in
  (* Self wall time: inclusive minus the direct children's, clamped so
     clock granularity never prints a negative. *)
  let self_ns =
    Float.max 0.
      (List.fold_left (fun acc c -> acc -. (node_span c).wall_ns) s.wall_ns children)
  in
  label_column ppf ~depth node.label;
  Format.fprintf ppf "%a  %8.2f ms  %8.2f self  x%d%a@." pp_cost s.cost (s.wall_ns /. 1e6)
    (self_ns /. 1e6) s.calls pp_brackets s.cost;
  List.iter (pp_node ppf ~depth:(depth + 1)) children

let pp ppf t =
  let other = other t in
  if Stats.delta_ios other <> 0 then begin
    label_column ppf ~depth:0 "(other)";
    Format.fprintf ppf "%a%a@." pp_cost other pp_brackets other
  end;
  List.iter (pp_node ppf ~depth:0) (heaviest_first (tree t).children)

(* ---- per-path report ---- *)

(* Spans are inclusive, so a path's own I/Os are its span's minus those of
   its direct children; whatever no top-level span covers is "(other)". *)
let phase_report t =
  let below = Hashtbl.create 16 in
  let below_of path = Option.value (Hashtbl.find_opt below path) ~default:0 in
  Hashtbl.iter
    (fun path s ->
      let parent = List.rev (List.tl (List.rev path)) in
      Hashtbl.replace below parent (below_of parent + span_ios s))
    t.spans;
  Hashtbl.fold
    (fun path s acc -> (path_name path, span_ios s - below_of path) :: acc)
    t.spans
    [ ("(other)", Stats.delta_ios (other t)) ]
  |> List.filter (fun (_, ios) -> ios <> 0)
  |> List.sort (fun (pa, a) (pb, b) ->
         match Int.compare b a with 0 -> String.compare pa pb | c -> c)

(* ---- metrics bridge ---- *)

let publish_phase_ios reg t =
  List.iter
    (fun (path, ios) ->
      Metrics.set
        (Metrics.gauge reg ~help:"I/Os attributed per phase path" ~labels:[ ("path", path) ]
           "phase_ios")
        (float_of_int ios))
    (phase_report t)

let publish reg t =
  List.iter
    (fun s ->
      let c = s.cost in
      let labels = [ ("span", path_name s.path) ] in
      let g name help v = Metrics.set (Metrics.gauge reg ~help ~labels name) v in
      let gi name help v = g name help (float_of_int v) in
      gi "span_ios" "I/Os inside the span (inclusive)" (span_ios s);
      gi "span_reads" "Reads inside the span" c.Stats.d_reads;
      gi "span_writes" "Writes inside the span" c.Stats.d_writes;
      if c.Stats.d_rounds < span_ios s then
        gi "span_rounds" "Parallel I/O rounds inside the span" c.Stats.d_rounds;
      gi "span_comparisons" "Comparisons inside the span" c.Stats.d_comparisons;
      gi "span_faults" "Faulted attempts inside the span" c.Stats.d_faults;
      gi "span_retries" "Recovery re-attempts inside the span" c.Stats.d_retries;
      if c.Stats.d_cache_hits > 0 || c.Stats.d_cache_misses > 0 then begin
        gi "span_cache_hits" "Buffer-pool hits inside the span" c.Stats.d_cache_hits;
        gi "span_cache_misses" "Buffer-pool misses inside the span" c.Stats.d_cache_misses
      end;
      gi "span_mem_peak_words" "Peak memory words while the span was open" s.mem_peak;
      g "span_wall_ns" "Host wall-clock nanoseconds inside the span" s.wall_ns;
      gi "span_calls" "Times the span was entered" s.calls)
    (spans t)
