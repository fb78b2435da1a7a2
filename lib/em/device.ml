(* The simulated block device: storage, metering, fault injection, and the
   per-device recovery state used by [Resilient].  The retry/verify/remap
   *logic* lives in [Resilient]; this module only provides single metered
   attempts plus the bookkeeping those policies need. *)

type recovery_policy = {
  max_retries : int;
  verify_reads : bool;
  verify_writes : bool;
  remap_bad : bool;
}

let default_policy =
  { max_retries = 3; verify_reads = true; verify_writes = false; remap_bad = true }

type recovery_counters = {
  mutable recovered : int;
  mutable remapped : int;
  mutable quarantined : int;
  mutable checksum_failures : int;
}

type recovery = {
  policy : recovery_policy;
  counters : recovery_counters;
  checksums : (int, int) Hashtbl.t;
  quarantine : (int, Fault.kind) Hashtbl.t;
  remap : (int, int) Hashtbl.t;
}

let make_counters () =
  { recovered = 0; remapped = 0; quarantined = 0; checksum_failures = 0 }

let make_recovery ?(policy = default_policy) ?counters () =
  let counters = match counters with Some c -> c | None -> make_counters () in
  {
    policy;
    counters;
    checksums = Hashtbl.create 64;
    quarantine = Hashtbl.create 8;
    remap = Hashtbl.create 8;
  }

type 'a t = {
  params : Params.t;
  stats : Stats.t;
  trace : Trace.t;
  backend : 'a Backend.t;  (* physical slot storage; see [Backend] *)
  shard : int option;  (* cluster shard identity; [None] on single machines *)
  mutable next_id : int;  (* watermark: every issued id is < next_id *)
  mutable live : int;
  freed : (int, unit) Hashtbl.t;  (* ids currently on the free list *)
  perm_faults : (int, Fault.kind) Hashtbl.t;  (* sticky-bad physical blocks *)
  mutable injector : Fault.plan option;
  mutable recovery : recovery option;
}

let create ?trace ?backend ?shard params stats =
  let trace = match trace with Some t -> t | None -> Trace.create () in
  let backend =
    match backend with
    | Some b -> b
    | None -> Backend.sim ~slots:(Backend.default_slots params) ()
  in
  {
    params;
    stats;
    trace;
    backend;
    shard;
    next_id = 0;
    live = 0;
    freed = Hashtbl.create 64;
    perm_faults = Hashtbl.create 8;
    injector = None;
    recovery = None;
  }

let stats d = d.stats
let trace d = d.trace
let flush d = d.backend.Backend.flush ()
let close d = d.backend.Backend.close ()

(* Fault injection / recovery configuration. *)

let inject d plan = d.injector <- Some plan
let clear_injector d = d.injector <- None
let injector d = d.injector

let arm ?policy ?share d =
  match share with
  | Some r ->
      (* Linked devices have disjoint block-id spaces, so they need their own
         checksum/remap tables, but policy and counters are shared so that a
         fault report covers the whole linked family. *)
      d.recovery <- Some (make_recovery ~policy:r.policy ~counters:r.counters ())
  | None -> d.recovery <- Some (make_recovery ?policy ())

let recovery d = d.recovery

(* Remap translation: logical block id -> physical slot.  Identity until
   [quarantine_and_remap] installs an entry. *)
let phys d id =
  match d.recovery with
  | None -> id
  | Some r -> ( match Hashtbl.find_opt r.remap id with None -> id | Some p -> p)

(* Advisory and unmetered: stage the blocks' bytes on the async pool (a
   no-op on every synchronous backend).  No charge, no trace, no fault
   decision — those all happen at the [read] that later consumes the bytes,
   so counted costs cannot depend on prefetch placement. *)
let prefetch d ids =
  Array.iter (fun id -> d.backend.Backend.prefetch (phys d id)) ids

(* Order-sensitive polymorphic checksum, seeded with the length so torn
   writes (prefix truncation) always change it. *)
let checksum payload =
  Array.fold_left
    (fun acc e -> ((acc * 1000003) + Hashtbl.hash e) land max_int)
    (Array.length payload) payload

let record_checksum d p payload =
  match d.recovery with
  | None -> ()
  | Some r -> Hashtbl.replace r.checksums p (checksum payload)

let expected_checksum d id =
  match d.recovery with
  | None -> None
  | Some r -> Hashtbl.find_opt r.checksums (phys d id)

let verify_payload d id payload =
  match expected_checksum d id with
  | None -> true  (* nothing recorded: nothing to verify against *)
  | Some expected -> checksum payload = expected

(* Allocation.

   Slot recycling lives in the backend's allocator (same LIFO discipline the
   in-device free list used); the device keeps only the [next_id] watermark
   for id validation and the [freed] table for double-free detection. *)

(* Grab a storage slot without touching the liveness accounting (shared by
   [alloc] and remapping, which replaces a slot rather than adding a block).
   Quarantined slots are never handed back to the backend, so anything the
   allocator returns is healthy. *)
let fresh_slot d =
  let p = d.backend.Backend.alloc () in
  if p >= d.next_id then d.next_id <- p + 1;
  Hashtbl.remove d.freed p;
  p

let alloc d =
  d.live <- d.live + 1;
  d.stats.Stats.allocated_blocks <- d.stats.Stats.allocated_blocks + 1;
  fresh_slot d

let free d id =
  if id < 0 || id >= d.next_id then raise (Em_error.Bad_block_id { op = "free"; id });
  if Hashtbl.mem d.freed id then raise (Em_error.Double_free { id });
  let p = phys d id in
  (match d.recovery with
  | None -> ()
  | Some r ->
      Hashtbl.remove r.checksums p;
      Hashtbl.remove r.remap id);
  (* Recycle the physical slot; remember the logical id as freed.  When the
     block was remapped the logical id is retired for good (only the healthy
     physical slot goes back into circulation). *)
  d.backend.Backend.free p;
  Hashtbl.replace d.freed p ();
  if p <> id then Hashtbl.replace d.freed id ();
  d.live <- d.live - 1;
  d.stats.Stats.freed_blocks <- d.stats.Stats.freed_blocks + 1

let live_blocks d = d.live

(* Quarantine the (permanently bad) physical slot behind [id] and remap the
   logical id onto a fresh healthy slot.  Returns the new physical slot.  The
   caller ([Resilient.write]) is responsible for rewriting the payload. *)
let quarantine_and_remap d id kind =
  match d.recovery with
  | None -> invalid_arg "Device.quarantine_and_remap: device is not armed"
  | Some r ->
      let p = phys d id in
      Hashtbl.replace r.quarantine p kind;
      r.counters.quarantined <- r.counters.quarantined + 1;
      Hashtbl.remove r.checksums p;
      let q = fresh_slot d in
      Hashtbl.replace r.remap id q;
      r.counters.remapped <- r.counters.remapped + 1;
      q

let quarantined_blocks d =
  match d.recovery with
  | None -> []
  | Some r -> Hashtbl.fold (fun p kind acc -> (p, kind) :: acc) r.quarantine []

(* Raw (unmetered, fault-free) store access. *)

let check_payload d payload =
  let len = Array.length payload in
  if len > d.params.Params.block then
    raise (Em_error.Payload_overflow { len; block = d.params.Params.block })

let check_id op d id =
  if id < 0 || id >= d.next_id then raise (Em_error.Bad_block_id { op; id })

let unmetered_write d id payload =
  check_id "write" d id;
  check_payload d payload;
  let p = phys d id in
  d.backend.Backend.store p payload;
  record_checksum d p payload

let unmetered_read d id =
  check_id "read" d id;
  match d.backend.Backend.load (phys d id) with
  | None -> raise (Em_error.Never_written { id })
  | Some payload -> Array.copy payload

(* Metered attempts.

   Every attempt — including faulted ones and retries — charges one I/O to
   the stats and emits one trace event whose [kind] says what happened.
   [attempt] > 1 marks a recovery re-attempt. *)

let trace_kind fault attempt =
  match fault with
  | Some k -> Trace.Faulted k
  | None -> if attempt > 1 then Trace.Retry else Trace.Io

let disk_of_slot d p = p mod d.params.Params.disks
let disk_of_block d id = disk_of_slot d (phys d id)

let charge ?cache d (op : Trace.op) ~block ~fault ~attempt =
  if attempt > 1 then d.stats.Stats.retries <- d.stats.Stats.retries + 1;
  if fault <> None then d.stats.Stats.faults <- d.stats.Stats.faults + 1;
  (* Hit/miss accounting covers exactly the metered reads, so the invariant
     [reads = cache_hits + cache_misses] holds on cached backends (Oracle
     accesses are invisible here, as everywhere). *)
  (match cache with
  | Some Trace.Hit -> d.stats.Stats.cache_hits <- d.stats.Stats.cache_hits + 1
  | Some Trace.Miss -> d.stats.Stats.cache_misses <- d.stats.Stats.cache_misses + 1
  | None -> ());
  let disk = disk_of_slot d block in
  (* The round id is read before [record_io]: an unbatched I/O becomes round
     [rounds], and every I/O inside one scheduling window shares the round
     counter as it stood when the window opened. *)
  let round = d.stats.Stats.rounds in
  Stats.record_io d.stats ~write:(op = Trace.Write) ~disk;
  let multi = d.params.Params.disks > 1 in
  Trace.emit ~kind:(trace_kind fault attempt) ~backend:d.backend.Backend.name ?cache
    ?disk:(if multi then Some disk else None)
    ?round:(if multi then Some round else None)
    ?shard:d.shard d.trace op ~block ~phase:d.stats.Stats.phase_stack

(* A sticky fault fires before the injector is even consulted; permanent
   faults injected by the plan become sticky on their physical slot. *)
let decide_fault d (op : Fault.op) p =
  match Hashtbl.find_opt d.perm_faults p with
  | Some kind when Fault.applies kind op -> Some kind
  | _ -> (
      match d.injector with
      | None -> None
      | Some plan -> (
          match Fault.decide plan ~op ~block:p ~phase:d.stats.Stats.phase_stack with
          | Some kind when Fault.applies kind op ->
              if Fault.is_permanent kind then Hashtbl.replace d.perm_faults p kind;
              Some kind
          | Some _ | None -> None))

let crash d = Em_error.raise_error (Em_error.Crashed { after_ios = Stats.ios d.stats })

(* Generic data corruption: swap the ends of the payload, or lose it entirely
   when it is too short to scramble. *)
let corrupt_payload payload =
  let n = Array.length payload in
  if n >= 2 then begin
    let c = Array.copy payload in
    let t = c.(0) in
    c.(0) <- c.(n - 1);
    c.(n - 1) <- t;
    c
  end
  else [||]

let write ?(attempt = 1) d id payload =
  check_id "write" d id;
  check_payload d payload;
  let p = phys d id in
  let fault = decide_fault d `Write p in
  charge d Trace.Write ~block:p ~fault ~attempt;
  match fault with
  | None ->
      d.backend.Backend.store p payload;
      record_checksum d p payload
  | Some Fault.Crash -> crash d
  | Some (Fault.Transient_write as kind) | Some (Fault.Permanent_write as kind) ->
      Em_error.raise_error (Em_error.Io_fault { op = `Write; kind; block = id })
  | Some Fault.Torn_write ->
      (* The I/O "succeeds" but only a prefix reaches the platter.  The
         checksum records what *should* be there, so verification catches
         the tear on the next read. *)
      d.backend.Backend.store p (Array.sub payload 0 (Array.length payload / 2));
      record_checksum d p payload
  | Some Fault.Bit_corruption ->
      d.backend.Backend.store p (corrupt_payload payload);
      record_checksum d p payload
  | Some (Fault.Transient_read | Fault.Permanent_read) ->
      (* Filtered by [applies]; unreachable. *)
      assert false

let read ?(attempt = 1) d id =
  check_id "read" d id;
  let p = phys d id in
  (* Residency must be probed before [load]: loading through a cached
     backend admits the page, which would turn every miss into a hit. *)
  let cache = d.backend.Backend.probe p in
  let stored =
    match d.backend.Backend.load p with
    | None -> raise (Em_error.Never_written { id })
    | Some payload -> payload
  in
  let fault = decide_fault d `Read p in
  charge ?cache d Trace.Read ~block:p ~fault ~attempt;
  match fault with
  | None -> Array.copy stored
  | Some Fault.Crash -> crash d
  | Some (Fault.Transient_read as kind) | Some (Fault.Permanent_read as kind) ->
      Em_error.raise_error (Em_error.Io_fault { op = `Read; kind; block = id })
  | Some Fault.Bit_corruption ->
      (* Read-side corruption garbles the returned copy only: the platter is
         intact, so a (metered) re-read recovers. *)
      corrupt_payload stored
  | Some (Fault.Transient_write | Fault.Permanent_write | Fault.Torn_write) -> assert false

module Oracle = struct
  let read = unmetered_read
  let write = unmetered_write
end
