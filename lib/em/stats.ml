type span_hooks = {
  on_push : string list -> unit;
  on_pop : string list -> unit;
  on_mem : int -> unit;
}

type t = {
  mutable reads : int;
  mutable writes : int;
  mutable comparisons : int;
  mutable faults : int;
  mutable retries : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
  mutable allocated_blocks : int;
  mutable freed_blocks : int;
  mutable rounds : int;
  disk_ios : (int, int) Hashtbl.t;
  mutable window_depth : int;
  window_counts : (int, int) Hashtbl.t;
  mutable comm_rounds : int;
  mutable comm_words : int;
  shard_sent : (int, int) Hashtbl.t;
  shard_recv : (int, int) Hashtbl.t;
  mutable comm_depth : int;
  mutable comm_pending : int;
  mutable mem_in_use : int;
  mutable pool_words : int;
  mutable mem_peak : int;
  mutable phase_stack : string list;
  mutable hooks : span_hooks option;
  mutable reclaimers : (int -> unit) option ref list;
}

let create () =
  {
    reads = 0;
    writes = 0;
    comparisons = 0;
    faults = 0;
    retries = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    allocated_blocks = 0;
    freed_blocks = 0;
    rounds = 0;
    disk_ios = Hashtbl.create 8;
    window_depth = 0;
    window_counts = Hashtbl.create 8;
    comm_rounds = 0;
    comm_words = 0;
    shard_sent = Hashtbl.create 8;
    shard_recv = Hashtbl.create 8;
    comm_depth = 0;
    comm_pending = 0;
    mem_in_use = 0;
    pool_words = 0;
    mem_peak = 0;
    phase_stack = [];
    hooks = None;
    reclaimers = [];
  }

let set_hooks s hooks = s.hooks <- hooks
let resident s = s.mem_in_use + s.pool_words

(* Memory-pressure registry, consulted by [Mem] before declaring overflow:
   holders of opportunistic charges (write-behind queues, the buffer pool)
   register a callback that gives words back under pressure.  Handles
   deregister by nulling the ref — cheap, order-independent — and dead
   handles are pruned on add. *)
let live_reclaimer h = match !h with Some _ -> true | None -> false

let add_reclaimer s f =
  let h = ref (Some f) in
  s.reclaimers <- h :: List.filter live_reclaimer s.reclaimers;
  h

let remove_reclaimer _s h = h := None

(* The excess is re-read from the ledger before each callback rather than
   derived from what earlier callbacks claim to have freed: a write-behind
   drain into a cached backend admits pool pages as it goes. *)
let run_reclaimers s ~limit =
  List.iter
    (fun h ->
      match !h with
      | Some f when resident s > limit -> f (resident s - limit)
      | _ -> ())
    s.reclaimers

let push_phase s label =
  s.phase_stack <- label :: s.phase_stack;
  match s.hooks with None -> () | Some h -> h.on_push s.phase_stack

let pop_phase s =
  match s.phase_stack with
  | [] -> ()
  | (_ :: rest) as before ->
      (match s.hooks with None -> () | Some h -> h.on_pop before);
      s.phase_stack <- rest

let notify_mem s =
  match s.hooks with None -> () | Some h -> h.on_mem s.mem_in_use

(* A crash wipes RAM: whatever the interrupted computation had charged to the
   ledger is gone.  The high-water mark survives — it already happened.  Open
   phases are unwound one by one so an attached profiler sees balanced
   enter/exit pairs. *)
let wipe_memory s =
  s.mem_in_use <- 0;
  while s.phase_stack <> [] do
    pop_phase s
  done

let ios s = s.reads + s.writes

(* Round accounting.  Outside a scheduling window every metered I/O is its
   own round.  Inside a window, I/Os pile up per disk and the window costs
   the maximum over the per-disk counts — the disks operate in parallel but
   each moves one block per round.  With a single disk the maximum equals
   the sum, so [rounds = ios] exactly at D = 1 regardless of windowing. *)
let tbl_incr tbl key =
  Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let record_io s ~write ~disk =
  if write then s.writes <- s.writes + 1 else s.reads <- s.reads + 1;
  tbl_incr s.disk_ios disk;
  if s.window_depth > 0 then tbl_incr s.window_counts disk
  else s.rounds <- s.rounds + 1

let begin_window s = s.window_depth <- s.window_depth + 1

let end_window s =
  if s.window_depth > 0 then begin
    s.window_depth <- s.window_depth - 1;
    if s.window_depth = 0 then begin
      let cost = Hashtbl.fold (fun _ c acc -> max c acc) s.window_counts 0 in
      s.rounds <- s.rounds + cost;
      Hashtbl.reset s.window_counts
    end
  end

let with_window s f =
  begin_window s;
  Fun.protect ~finally:(fun () -> end_window s) f

let disk_report s =
  Hashtbl.fold (fun disk n acc -> (disk, n) :: acc) s.disk_ios []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Rounds the currently-open outermost window would charge if it closed now.
   Snapshots taken inside a window must see them: otherwise a measurement that
   opens before the window and closes inside it (or vice versa) attributes the
   whole window's cost to whichever bracket happens to straddle the close,
   and a query that triggers refinement inside an already-open scheduling
   window at D > 1 reports d_rounds = 0. *)
let pending_window_rounds s =
  if s.window_depth = 0 then 0
  else Hashtbl.fold (fun _ c acc -> max c acc) s.window_counts 0

let effective_rounds s = s.rounds + pending_window_rounds s

(* Communication ledger.  The discipline mirrors the I/O scheduling windows:
   outside a superstep every transfer is its own communication round; inside
   one, transfers pile up and the outermost close charges exactly one round
   (BSP semantics: all messages posted in a superstep are delivered together).
   Volume ([comm_words], per-shard send/recv) is window-independent, like
   [reads]/[writes] — supersteps change rounds, never words. *)
let tbl_add tbl key n =
  Hashtbl.replace tbl key (n + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let record_comm s ~src ~dst ~words =
  if src <> dst && words > 0 then begin
    s.comm_words <- s.comm_words + words;
    tbl_add s.shard_sent src words;
    tbl_add s.shard_recv dst words;
    if s.comm_depth > 0 then s.comm_pending <- s.comm_pending + 1
    else s.comm_rounds <- s.comm_rounds + 1
  end

let begin_comm_round s = s.comm_depth <- s.comm_depth + 1

let end_comm_round s =
  if s.comm_depth > 0 then begin
    s.comm_depth <- s.comm_depth - 1;
    if s.comm_depth = 0 then begin
      if s.comm_pending > 0 then s.comm_rounds <- s.comm_rounds + 1;
      s.comm_pending <- 0
    end
  end

let with_comm_round s f =
  begin_comm_round s;
  Fun.protect ~finally:(fun () -> end_comm_round s) f

(* Rounds the currently-open outermost superstep would charge if it closed
   now, so mid-superstep snapshots telescope just like mid-window ones. *)
let pending_comm_rounds s = if s.comm_depth > 0 && s.comm_pending > 0 then 1 else 0
let effective_comm_rounds s = s.comm_rounds + pending_comm_rounds s

let shard_report tbl =
  Hashtbl.fold (fun shard n acc -> (shard, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let sent_report s = shard_report s.shard_sent
let recv_report s = shard_report s.shard_recv

type delta = {
  d_reads : int;
  d_writes : int;
  d_comparisons : int;
  d_faults : int;
  d_retries : int;
  d_cache_hits : int;
  d_cache_misses : int;
  d_rounds : int;
  d_comm_rounds : int;
  d_comm_words : int;
}

(* A snapshot is the cost record of everything since [create]. *)
let snapshot s =
  {
    d_reads = s.reads;
    d_writes = s.writes;
    d_comparisons = s.comparisons;
    d_faults = s.faults;
    d_retries = s.retries;
    d_cache_hits = s.cache_hits;
    d_cache_misses = s.cache_misses;
    d_rounds = effective_rounds s;
    d_comm_rounds = effective_comm_rounds s;
    d_comm_words = s.comm_words;
  }

(* Written out field by field, not via [snapshot]: brackets close on every
   online query and profiler span, so [delta] allocates one record only. *)
let delta s snap =
  {
    d_reads = s.reads - snap.d_reads;
    d_writes = s.writes - snap.d_writes;
    d_comparisons = s.comparisons - snap.d_comparisons;
    d_faults = s.faults - snap.d_faults;
    d_retries = s.retries - snap.d_retries;
    d_cache_hits = s.cache_hits - snap.d_cache_hits;
    d_cache_misses = s.cache_misses - snap.d_cache_misses;
    d_rounds = effective_rounds s - snap.d_rounds;
    d_comm_rounds = effective_comm_rounds s - snap.d_comm_rounds;
    d_comm_words = s.comm_words - snap.d_comm_words;
  }

let add a b =
  {
    d_reads = a.d_reads + b.d_reads;
    d_writes = a.d_writes + b.d_writes;
    d_comparisons = a.d_comparisons + b.d_comparisons;
    d_faults = a.d_faults + b.d_faults;
    d_retries = a.d_retries + b.d_retries;
    d_cache_hits = a.d_cache_hits + b.d_cache_hits;
    d_cache_misses = a.d_cache_misses + b.d_cache_misses;
    d_rounds = a.d_rounds + b.d_rounds;
    d_comm_rounds = a.d_comm_rounds + b.d_comm_rounds;
    d_comm_words = a.d_comm_words + b.d_comm_words;
  }

let zero = snapshot (create ())
let delta_ios d = d.d_reads + d.d_writes
let ios_since s snap = ios s - delta_ios snap

let json_fields d =
  [ ("reads", Json.Int d.d_reads); ("writes", Json.Int d.d_writes);
    ("rounds", Json.Int d.d_rounds); ("comparisons", Json.Int d.d_comparisons) ]

let pp ppf s =
  Format.fprintf ppf
    "{ reads = %d; writes = %d; ios = %d; comparisons = %d; mem_peak = %d }"
    s.reads s.writes (ios s) s.comparisons s.mem_peak;
  if s.faults > 0 || s.retries > 0 then
    Format.fprintf ppf " [faults = %d; retries = %d]" s.faults s.retries;
  if s.cache_hits > 0 || s.cache_misses > 0 then
    Format.fprintf ppf " [cache hits = %d; misses = %d]" s.cache_hits s.cache_misses;
  if s.rounds <> ios s then Format.fprintf ppf " [rounds = %d]" s.rounds;
  if s.comm_rounds > 0 || s.comm_words > 0 then
    Format.fprintf ppf " [comm rounds = %d; words = %d]" s.comm_rounds s.comm_words
