(* Physical block storage behind [Device].

   [Device] keeps everything the EM model cares about — metering, fault
   injection, checksums, remapping — and delegates the actual byte shuffling
   to a backend: a record of closures over *physical* slot numbers.  Three
   implementations ship: [sim] (the historical in-memory option array),
   [file] (fixed-size marshalled slots on a real Unix file), and [cached]
   (a buffer-pool LRU wrapper over any other backend whose resident pages
   are charged against the [Mem] ledger).

   Closures rather than a functor because a linked device family mixes
   element types but must share one buffer pool; each typed backend's page
   table is the only residency table, and the pool keeps just the untyped
   recency list its pages link into. *)

type 'a t = {
  name : string;
  alloc : unit -> int;  (* grab a fresh (or recycled) physical slot *)
  load : int -> 'a array option;  (* [None] = never written / freed *)
  store : int -> 'a array -> unit;  (* owns copying: caller's array is not retained *)
  free : int -> unit;  (* recycle the slot; subsequent [load] is [None] *)
  probe : int -> Trace.cache option;  (* pre-read residency check; [None] = uncached *)
  prefetch : int -> unit;  (* advisory: start fetching a slot's bytes early *)
  flush : unit -> unit;  (* write back dirty pages / fsync to stable storage *)
  close : unit -> unit;  (* release OS resources; idempotent *)
}

(* Initial slot-table sizing: enough for a few streams of M/B blocks each, so
   large sweeps don't pay repeated regrowth (the historical store doubled from
   a hardcoded 64-slot seed regardless of geometry). *)
let default_slots p = max 64 (8 * Params.fanout p)

(* Dense physical-slot allocator with LIFO recycling — the same discipline the
   historical in-device free list used, so allocation traces (and therefore
   golden I/O counts, which mention block ids) are byte-identical.

   With D > 1 disks the slot space is striped: slot [s] lives on disk
   [s mod D], the k-th fresh slot of disk [d] is [k * D + d], and each disk
   keeps its own LIFO free list.  Allocation round-robins across the disks,
   so any run of consecutively allocated slots (e.g. one [Vec]) is balanced
   to within one block per disk.  At D = 1 all of this degenerates to the
   historical single free list: same slots, same order. *)
type allocator = {
  disks : int;
  next_slot : int array;  (* per-disk fresh watermark *)
  recycled : int list array;  (* per-disk LIFO free lists *)
  mutable next_disk : int;  (* round-robin cursor *)
}

let allocator ?(disks = 1) () =
  if disks < 1 then invalid_arg "Backend.allocator: disks must be >= 1";
  {
    disks;
    next_slot = Array.make disks 0;
    recycled = Array.make disks [];
    next_disk = 0;
  }

let alloc_slot a =
  let d = a.next_disk in
  a.next_disk <- (d + 1) mod a.disks;
  match a.recycled.(d) with
  | s :: rest ->
      a.recycled.(d) <- rest;
      s
  | [] ->
      let k = a.next_slot.(d) in
      a.next_slot.(d) <- k + 1;
      (k * a.disks) + d

let free_slot a s = a.recycled.(s mod a.disks) <- s :: a.recycled.(s mod a.disks)

(* ------------------------------------------------------------------ *)
(* Sim: the in-memory store, extracted verbatim from Device.          *)
(* ------------------------------------------------------------------ *)

let sim ?(slots = 64) ?disks () =
  let store = ref (Array.make (max 1 slots) None) in
  let a = allocator ?disks () in
  let ensure_capacity s =
    let n = Array.length !store in
    if s >= n then begin
      let grown = Array.make (max (2 * n) (s + 1)) None in
      Array.blit !store 0 grown 0 n;
      store := grown
    end
  in
  {
    name = "sim";
    alloc =
      (fun () ->
        let s = alloc_slot a in
        ensure_capacity s;
        s);
    load = (fun s -> !store.(s));
    store =
      (fun s payload ->
        ensure_capacity s;
        !store.(s) <- Some (Array.copy payload));
    free =
      (fun s ->
        ensure_capacity s;
        !store.(s) <- None;
        free_slot a s);
    probe = (fun _ -> None);
    prefetch = (fun _ -> ());
    flush = (fun () -> ());
    close = (fun () -> ());
  }

(* ------------------------------------------------------------------ *)
(* File: fixed-size marshalled slots on a real Unix file.             *)
(* ------------------------------------------------------------------ *)

let really_write fd buf =
  let len = Bytes.length buf in
  let n = ref 0 in
  while !n < len do
    n := !n + Unix.write fd buf !n (len - !n)
  done

let really_read fd len =
  let buf = Bytes.create len in
  let n = ref 0 in
  while !n < len do
    let k = Unix.read fd buf !n (len - !n) in
    if k = 0 then failwith "Backend.file: unexpected end of block file";
    n := !n + k
  done;
  buf

let slot_header = 8  (* little-endian marshalled-payload byte count *)
let env_dir_var = "EM_BACKEND_DIR"

let backing_dir dir =
  match dir with
  | Some d -> d
  | None -> (
      match Sys.getenv_opt env_dir_var with
      | Some d when d <> "" -> d
      | _ -> Filename.get_temp_dir_name ())

let latency_env_var = "EM_FILE_LATENCY_US"

let default_file_delay () =
  match Sys.getenv_opt latency_env_var with
  | None | Some "" -> None
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some us when us = 0. -> None
      | Some us when us > 0. -> Some (fun () -> Unix.sleepf (us *. 1e-6))
      | _ ->
          invalid_arg
            (Printf.sprintf
               "Backend: %s must be a non-negative number of microseconds (got %S)"
               latency_env_var s))

let file (type elt) ?dir ?delay ?io ?(disks = 1) ~slot_bytes () : elt t =
  if slot_bytes < slot_header + 8 then
    invalid_arg "Backend.file: slot_bytes is too small to hold any payload";
  if disks < 1 then invalid_arg "Backend.file: disks must be >= 1";
  let temp_dir = backing_dir dir in
  (* One backing file per disk: slot [s] lives on disk [s mod D] at offset
     [(s / D) * slot_bytes], so each "spindle" is its own dense file. *)
  let fds =
    Array.init disks (fun _ ->
        let path = Filename.temp_file ~temp_dir "em-blocks-" ".dat" in
        let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
        (* Unlink immediately: the kernel keeps the inode alive while the fd
           is open and reclaims the space on close, so block files can never
           leak — not across a bench sweep, not even on a crash. *)
        (try Sys.remove path with Sys_error _ -> ());
        fd)
  in
  let closed = ref false in
  let close_fds () =
    Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds
  in
  let check_open () = if !closed then invalid_arg "Backend.file: backend is closed" in
  let a = allocator ~disks () in
  let written : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  (* [delay] models per-access device latency (bench gates, stress jitter).
     It runs on whichever domain executes the raw I/O — the caller under the
     synchronous assembly, a pool worker under the asynchronous one — which
     is exactly what lets the async path overlap it. *)
  let pause () = match delay with Some f -> f () | None -> () in
  let seek s =
    let fd = fds.(s mod disks) in
    ignore (Unix.lseek fd (s / disks * slot_bytes) Unix.SEEK_SET);
    fd
  in
  (* Marshalling (and the [Slot_overflow] check) always happens on the
     caller's domain so oversized payloads raise synchronously under either
     assembly; only the raw pread/pwrite-equivalents below are offloadable. *)
  let encode s (payload : elt array) =
    let data = Marshal.to_bytes payload [] in
    let len = Bytes.length data in
    if len + slot_header > slot_bytes then
      raise (Em_error.Slot_overflow { bytes = len + slot_header; capacity = slot_bytes; slot = s });
    let buf = Bytes.create (len + slot_header) in
    Bytes.set_int64_le buf 0 (Int64.of_int len);
    Bytes.blit data 0 buf slot_header len;
    buf
  in
  let write_raw s buf =
    pause ();
    really_write (seek s) buf
  in
  let read_raw s : elt array =
    pause ();
    let fd = seek s in
    let len = Int64.to_int (Bytes.get_int64_le (really_read fd slot_header) 0) in
    Marshal.from_bytes (really_read fd len) 0
  in
  match io with
  | None ->
      (* Synchronous assembly: the exact historical code path. *)
      let close () =
        if not !closed then begin
          closed := true;
          close_fds ()
        end
      in
      (* Backstop for backends dropped without an explicit close (tests,
         bench iterations): release the fds once the backend is unreachable.
         The finaliser hangs off [written] — captured by the closures below,
         so it stays alive as long as *any* copy of the record does (the
         record itself may be functionally updated, e.g. renamed by
         [make]). *)
      Gc.finalise (fun (_ : (int, unit) Hashtbl.t) -> close ()) written;
      {
        name = "file";
        alloc = (fun () -> alloc_slot a);
        load =
          (fun s ->
            check_open ();
            if Hashtbl.mem written s then Some (read_raw s) else None);
        store =
          (fun s payload ->
            check_open ();
            let buf = encode s payload in
            write_raw s buf;
            Hashtbl.replace written s ());
        free =
          (fun s ->
            Hashtbl.remove written s;
            free_slot a s);
        probe = (fun _ -> None);
        prefetch = (fun _ -> ());
        flush =
          (fun () ->
            check_open ();
            Array.iter Unix.fsync fds);
        close;
      }
  | Some pool ->
      (* Asynchronous assembly over the same raw primitives.  All bookkeeping
         the model observes — the [written] set, the allocator, overflow
         checks — stays on the caller's domain in the same order as the
         synchronous path; only raw slot reads/writes cross into the pool.
         Routing key [key_base + (s mod disks)] pins each disk's fd to one
         worker, so shared seek offsets are never raced and two requests on
         one slot retire in submission order (that worker's FIFO). *)
      let key_base = Io_pool.fresh_key_base () in
      let key s = key_base + (s mod disks) in
      (* Reads staged by [prefetch], consumed (or discarded) exactly once. *)
      let staged : (int, elt array Io_pool.task) Hashtbl.t = Hashtbl.create 64 in
      (* Latest write-behind ticket per slot: an older ticket replaced here
         targets the same worker FIFO, so awaiting only the newest one at
         flush time still covers it. *)
      let pending_stores : (int, Io_pool.ticket) Hashtbl.t = Hashtbl.create 64 in
      let discard_staged s =
        match Hashtbl.find_opt staged s with
        | None -> ()
        | Some task ->
            Hashtbl.remove staged s;
            (try ignore (Io_pool.wait task) with _ -> ())
      in
      let close_async ~await_pending () =
        if not !closed then begin
          if await_pending then begin
            Hashtbl.iter (fun _ tk -> try Io_pool.await tk with _ -> ()) pending_stores;
            Hashtbl.iter (fun _ task -> try ignore (Io_pool.wait task) with _ -> ()) staged
          end;
          closed := true;
          Hashtbl.reset pending_stores;
          Hashtbl.reset staged;
          close_fds ()
        end
      in
      (* The GC backstop must not [await]: finalisers can run on a worker
         domain mid-allocation, where waiting on that worker's own queue
         would deadlock.  Jobs re-check [closed] so a backstopped close (the
         backend is unreachable — nobody will read the data) degrades to
         dropped byte shuffling, never I/O on a recycled fd number. *)
      Gc.finalise
        (fun (_ : (int, unit) Hashtbl.t) -> close_async ~await_pending:false ())
        written;
      {
        name = "file";
        alloc = (fun () -> alloc_slot a);
        load =
          (fun s ->
            check_open ();
            if not (Hashtbl.mem written s) then None
            else
              match Hashtbl.find_opt staged s with
              | Some task ->
                  Hashtbl.remove staged s;
                  Some (Io_pool.wait task)
              | None ->
                  (* Demand reads also route through the owning worker: fd
                     offsets are only ever used on one domain. *)
                  Some
                    (Io_pool.wait
                       (Io_pool.run pool ~key:(key s) (fun () ->
                            if !closed then failwith "Backend.file: backend is closed"
                            else read_raw s))));
        store =
          (fun s payload ->
            check_open ();
            let buf = encode s payload in
            Hashtbl.replace written s ();
            (* A read staged before this write holds the slot's *old* bytes;
               retire it now so no later load can observe them. *)
            discard_staged s;
            let tk =
              Io_pool.submit pool ~key:(key s) (fun () ->
                  if not !closed then write_raw s buf)
            in
            Hashtbl.replace pending_stores s tk);
        free =
          (fun s ->
            Hashtbl.remove written s;
            discard_staged s;
            free_slot a s);
        probe = (fun _ -> None);
        prefetch =
          (fun s ->
            if (not !closed) && Hashtbl.mem written s && not (Hashtbl.mem staged s)
            then
              Hashtbl.replace staged s
                (Io_pool.run pool ~key:(key s) (fun () ->
                     if !closed then failwith "Backend.file: backend is closed"
                     else read_raw s)));
        flush =
          (fun () ->
            check_open ();
            let tickets = Hashtbl.fold (fun _ tk acc -> tk :: acc) pending_stores [] in
            Hashtbl.reset pending_stores;
            List.iter Io_pool.await tickets;
            Array.iter Unix.fsync fds);
        close = (fun () -> close_async ~await_pending:true ());
      }

(* ------------------------------------------------------------------ *)
(* Pool: a buffer pool shared by a linked device family.              *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  (* Frames sit on a circular doubly-linked recency list through the
     sentinel [lru]: [lru.next] is the least recently used frame (the next
     victim), [lru.prev] the most recent.  Each frame is owned by one cached
     backend's page, which carries it; the pool itself keeps no table. *)
  type frame = {
    mutable prev : frame;
    mutable next : frame;
    slot : int;
    evict : int -> unit;  (* the owner's write-back-and-drop for [slot] *)
  }

  type t = {
    params : Params.t;
    stats : Stats.t;
    capacity : int;  (* max resident frames *)
    lru : frame;  (* sentinel *)
    mutable resident : int;
  }

  let default_pages p = max 2 (Params.fanout p / 2)

  let unlink f =
    f.prev.next <- f.next;
    f.next.prev <- f.prev

  let push_newest t f =
    f.prev <- t.lru.prev;
    f.next <- t.lru;
    t.lru.prev.next <- f;
    t.lru.prev <- f

  (* Unlink the frame before running its eviction callback so a reentrant
     admission (nested cached backends) cannot pick the same victim twice. *)
  let evict_oldest t =
    let f = t.lru.next in
    unlink f;
    t.resident <- t.resident - 1;
    f.evict f.slot;
    Mem.release_pool t.params t.stats t.params.Params.block;
    t.stats.Stats.cache_evictions <- t.stats.Stats.cache_evictions + 1

  let reclaim_words t deficit =
    let freed = ref 0 in
    while !freed < deficit && t.lru.next != t.lru do
      evict_oldest t;
      freed := !freed + t.params.Params.block
    done

  let create ?pages params stats =
    let capacity = match pages with Some n -> max 1 n | None -> default_pages params in
    let rec lru = { prev = lru; next = lru; slot = -1; evict = ignore } in
    let t = { params; stats; capacity; lru; resident = 0 } in
    (* Under memory pressure the algorithm's ledger charge wins over cache
       residency.  [Ctx.create] builds the pool before any writer registers
       on the ledger, so the pool is the last reclaimer asked. *)
    ignore (Stats.add_reclaimer stats (reclaim_words t));
    t

  let capacity t = t.capacity
  let resident t = t.resident

  let touch t f =
    unlink f;
    push_newest t f

  (* Admission is opportunistic: when even after reclaim the ledger cannot
     absorb one more page, the caller simply bypasses the cache
     (pass-through I/O) instead of failing — the [mem_peak <= M] property
     must hold whatever the backend. *)
  let admit t ~evict slot =
    while t.resident >= t.capacity do
      evict_oldest t
    done;
    match Mem.charge_pool t.params t.stats t.params.Params.block with
    | () ->
        let f = { prev = t.lru; next = t.lru; slot; evict } in
        push_newest t f;
        t.resident <- t.resident + 1;
        Some f
    | exception Mem.Memory_exceeded _ -> None

  let drop_all t = reclaim_words t max_int

  let forget t f =
    unlink f;
    t.resident <- t.resident - 1;
    Mem.release_pool t.params t.stats t.params.Params.block
end

(* ------------------------------------------------------------------ *)
(* Cached: write-back / write-allocate LRU pages over any backend.    *)
(* ------------------------------------------------------------------ *)

type 'a page = { mutable payload : 'a array; mutable dirty : bool; frame : Pool.frame }

let cached ~pool inner =
  let pages : (int, 'a page) Hashtbl.t = Hashtbl.create 64 in
  let evict slot =
    match Hashtbl.find_opt pages slot with
    | None -> ()
    | Some pg ->
        Hashtbl.remove pages slot;
        if pg.dirty then inner.store slot pg.payload
  in
  let admit slot payload ~dirty =
    match Pool.admit pool ~evict slot with
    | Some frame -> Hashtbl.replace pages slot { payload = Array.copy payload; dirty; frame }
    | None -> if dirty then inner.store slot payload
  in
  {
    name = "cached:" ^ inner.name;
    alloc = inner.alloc;
    load =
      (fun slot ->
        match Hashtbl.find_opt pages slot with
        | Some pg ->
            Pool.touch pool pg.frame;
            Some pg.payload
        | None -> (
            match inner.load slot with
            | None -> None
            | Some payload ->
                admit slot payload ~dirty:false;
                Some payload));
    store =
      (fun slot payload ->
        match Hashtbl.find_opt pages slot with
        | Some pg ->
            pg.payload <- Array.copy payload;
            pg.dirty <- true;
            Pool.touch pool pg.frame
        | None -> admit slot payload ~dirty:true);
    free =
      (fun slot ->
        (match Hashtbl.find_opt pages slot with
        | Some pg ->
            Hashtbl.remove pages slot;
            Pool.forget pool pg.frame
        | None -> ());
        inner.free slot);
    probe = (fun slot -> Some (if Hashtbl.mem pages slot then Trace.Hit else Trace.Miss));
    prefetch =
      (fun slot -> if not (Hashtbl.mem pages slot) then inner.prefetch slot);
    flush =
      (fun () ->
        Hashtbl.iter
          (fun slot pg ->
            if pg.dirty then begin
              inner.store slot pg.payload;
              pg.dirty <- false
            end)
          pages;
        inner.flush ());
    close =
      (fun () ->
        Hashtbl.iter (fun _ pg -> Pool.forget pool pg.frame) pages;
        Hashtbl.reset pages;
        inner.close ());
  }

(* ------------------------------------------------------------------ *)
(* Specs and instances: family-level backend configuration.           *)
(* ------------------------------------------------------------------ *)

type spec = Sim | File | Cached of spec

let rec spec_name = function
  | Sim -> "sim"
  | File -> "file"
  | Cached Sim -> "cached"
  | Cached inner -> "cached:" ^ spec_name inner

let spec_of_string s =
  let rec go t =
    match t with
    | "sim" -> Ok Sim
    | "file" -> Ok File
    | "cached" -> Ok (Cached Sim)
    | _ ->
        let prefix = "cached:" in
        let plen = String.length prefix in
        if String.length t > plen && String.sub t 0 plen = prefix then
          Result.map (fun i -> Cached i) (go (String.sub t plen (String.length t - plen)))
        else
          Error
            (Printf.sprintf "unknown backend %S (expected sim, file, cached or cached:BACKEND)" s)
  in
  go (String.lowercase_ascii (String.trim s))

let env_var = "EM_BACKEND"

let default_spec () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> Sim
  | Some s -> (
      match spec_of_string s with
      | Ok spec -> spec
      | Error msg -> invalid_arg (env_var ^ ": " ^ msg))

let uses_pool = function Cached _ -> true | Sim | File -> false

let rec spec_uses_file = function
  | File -> true
  | Sim -> false
  | Cached inner -> spec_uses_file inner

(* Generous per-slot budget for the file backend: B boxed words marshal to a
   few dozen bytes each for the scalar payloads the algorithms move around. *)
let default_slot_bytes p = (32 * p.Params.block) + 512

type instance = {
  spec : spec;
  params : Params.t;
  stats : Stats.t;
  dir : string option;
  slot_bytes : int;
  pool : Pool.t option;
  io : Io_pool.t option;  (* Some = async file I/O via this pool *)
  file_delay : (unit -> unit) option;  (* modeled per-access device latency *)
}

let instance ?dir ?slot_bytes ?pool_pages ?async ?io_pool ?file_delay spec params
    stats =
  let slot_bytes =
    match slot_bytes with Some n -> n | None -> default_slot_bytes params
  in
  let pool =
    if uses_pool spec then Some (Pool.create ?pages:pool_pages params stats) else None
  in
  let file_delay =
    match file_delay with Some _ as d -> d | None -> default_file_delay ()
  in
  (* Async execution only concerns real file I/O: a pure sim family has
     nothing to offload, so it never touches (or spawns) the domain pool. *)
  let io =
    if not (spec_uses_file spec) then None
    else
      match io_pool with
      | Some _ as p -> p
      | None ->
          let enabled =
            match async with Some b -> b | None -> Params.default_async ()
          in
          if enabled then Some (Io_pool.global ()) else None
  in
  { spec; params; stats; dir; slot_bytes; pool; io; file_delay }

let name i = spec_name i.spec
let pool i = i.pool
let async_enabled i = match i.io with Some _ -> true | None -> false

(* One typed backend per device.  Within a linked family every call shares
   the instance — and therefore the buffer pool — while each device gets its
   own slot space (its own file, its own page table). *)
let make i =
  let disks = i.params.Params.disks in
  let rec build = function
    | Sim -> sim ~slots:(default_slots i.params) ~disks ()
    | File ->
        file ?dir:i.dir ?delay:i.file_delay ?io:i.io ~disks
          ~slot_bytes:i.slot_bytes ()
    | Cached inner ->
        let pool =
          match i.pool with
          | Some p -> p
          | None -> invalid_arg "Backend.make: cached spec without a pool"
        in
        cached ~pool (build inner)
  in
  { (build i.spec) with name = spec_name i.spec }
