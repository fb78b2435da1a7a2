(* Physical block storage behind [Device].

   [Device] keeps everything the EM model cares about — metering, fault
   injection, checksums, remapping — and delegates the actual byte shuffling
   to a backend: a record of closures over *physical* slot numbers.  Three
   implementations ship: [sim] (the historical in-memory option array),
   [file] (fixed-size slots of a memory-mapped Unix file), and [cached]
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
  flush : unit -> unit;  (* write back dirty pages, retire write-behind stores *)
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
(* File: fixed-size slots of a memory-mapped Unix file per disk.      *)
(* ------------------------------------------------------------------ *)

type mapping = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external map_get64 : mapping -> int -> int64 = "%caml_bigstring_get64u"
external map_set64 : mapping -> int -> int64 -> unit = "%caml_bigstring_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* The primitives are native-endian and unchecked; slot bytes are
   little-endian on every host, and callers stay inside the mapping. *)
let get_int m off =
  Int64.to_int (if Sys.big_endian then swap64 (map_get64 m off) else map_get64 m off)

let set_int m off v =
  let x = Int64.of_int v in
  map_set64 m off (if Sys.big_endian then swap64 x else x)

(* A slot is an 8-byte little-endian header and its payload.  A payload of
   n immediates has header [(n lsl 1) lor 1] and n int64s; any other
   payload is a [Marshal] blob of len bytes under header [len lsl 1].  A
   shorter payload overwriting a longer one leaves stale bytes past its
   end, which the header keeps unread. *)
let slot_header = 8

type encoded = Ints of int array | Blob of Bytes.t

(* Every element is an immediate (an int, a char, a bool, a constant
   constructor) exactly when the array is an ordinary block, not a flat
   float array, whose fields are all ints. *)
let all_immediate (payload : 'a array) =
  let r = Obj.repr payload in
  Obj.tag r <> Obj.double_array_tag
  &&
  let rec from i = i < 0 || (Obj.is_int (Obj.field r i) && from (i - 1)) in
  from (Array.length payload - 1)

(* The codec's two casts, both sound for the same reason: an array of
   immediates has the same representation as an [int array] of the same
   words.  [encode] reads such a payload as ints; [read_slot] hands the
   decoded ints back at the caller's element type, where [Marshal.from_bytes]
   makes the same unchecked cast for every other payload. *)
let encode ~slot_bytes s (payload : 'a array) =
  let enc =
    if all_immediate payload then Ints (Obj.magic payload : int array)
    else Blob (Marshal.to_bytes payload [])
  in
  let bytes =
    slot_header + match enc with Ints a -> 8 * Array.length a | Blob b -> Bytes.length b
  in
  if bytes > slot_bytes then
    raise (Em_error.Slot_overflow { bytes; capacity = slot_bytes; slot = s });
  enc

let write_slot (m : mapping) off = function
  | Ints a ->
      let n = Array.length a in
      set_int m off ((n lsl 1) lor 1);
      for i = 0 to n - 1 do
        set_int m (off + slot_header + (8 * i)) (Array.unsafe_get a i)
      done
  | Blob b ->
      let len = Bytes.length b and base = off + slot_header in
      set_int m off (len lsl 1);
      let words = len / 8 in
      for i = 0 to words - 1 do
        map_set64 m (base + (8 * i)) (Bytes.get_int64_ne b (8 * i))
      done;
      for i = 8 * words to len - 1 do
        Bigarray.Array1.unsafe_set m (base + i) (Bytes.unsafe_get b i)
      done

let read_slot (m : mapping) off : 'a array =
  let h = get_int m off in
  let n = h lsr 1 and base = off + slot_header in
  if h land 1 = 1 then begin
    let a = Array.make n 0 in
    for i = 0 to n - 1 do
      Array.unsafe_set a i (get_int m (base + (8 * i)))
    done;
    (Obj.magic a : 'a array)
  end
  else begin
    let b = Bytes.create n in
    let words = n / 8 in
    for i = 0 to words - 1 do
      Bytes.set_int64_ne b (8 * i) (map_get64 m (base + (8 * i)))
    done;
    for i = 8 * words to n - 1 do
      Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get m (base + i))
    done;
    Marshal.from_bytes b 0
  end

let zeros = Bytes.make 65536 '\000'

(* Extend [fd]'s file from [from] to [size] bytes with written zeros, so the
   blocks are allocated now: a full disk raises [Unix_error] here, not
   SIGBUS at a later store into a hole of the mapping. *)
let extend fd ~from size =
  ignore (Unix.lseek fd from Unix.SEEK_SET);
  let n = ref from in
  while !n < size do
    n := !n + Unix.write fd zeros 0 (min (Bytes.length zeros) (size - !n))
  done

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

let file (type elt) ?dir ?delay ?io ?(disks = 1) ?(slots = 64) ~slot_bytes () : elt t =
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
           (or a mapping) is open and reclaims the space after, so block
           files can never leak — not across a bench sweep, not even on a
           crash.  Nothing can reopen them either, which is why [flush]
           never syncs them: no process could read the synced bytes. *)
        (try Sys.remove path with Sys_error _ -> ());
        fd)
  in
  (* [maps.(d)] maps all [sizes.(d)] bytes of disk [d]'s file.  Growth
     happens on the caller's domain, into a fresh mapping of the extended
     file; a job still holding the old mapping reaches the same file pages
     through it, so the old one stays valid until the GC unmaps it. *)
  let maps = Array.make disks (Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0) in
  let sizes = Array.make disks 0 in
  let first_size = (slots + disks - 1) / disks * slot_bytes in
  let offset s = s / disks * slot_bytes in
  let closed = ref false in
  let ensure s =
    let d = s mod disks in
    let need = offset s + slot_bytes in
    if need > sizes.(d) && not !closed then begin
      let size = max need (max first_size (2 * sizes.(d))) in
      extend fds.(d) ~from:sizes.(d) size;
      maps.(d) <-
        Bigarray.array1_of_genarray
          (Unix.map_file fds.(d) Bigarray.char Bigarray.c_layout true [| size |]);
      sizes.(d) <- size
    end
  in
  (* Truncating first gives the disk space back now rather than when the GC
     finalises the last mapping; it is only safe once no job can touch a
     mapping again (a store past the end of the file would raise SIGBUS). *)
  let release ~truncate =
    if not !closed then begin
      closed := true;
      Array.iter
        (fun fd ->
          (if truncate then try Unix.ftruncate fd 0 with Unix.Unix_error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ())
        fds
    end
  in
  let check_open () = if !closed then invalid_arg "Backend.file: backend is closed" in
  let a = allocator ~disks () in
  let alloc () =
    let s = alloc_slot a in
    ensure s;
    s
  in
  let written : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  (* [delay] models per-access device latency (bench gates, stress jitter).
     It runs on whichever domain executes the raw I/O — the caller under the
     synchronous assembly, a pool worker under the asynchronous one — which
     is exactly what lets the async path overlap it. *)
  let pause () = match delay with Some f -> f () | None -> () in
  (* Encoding (and the [Slot_overflow] check) always happens on the caller's
     domain so oversized payloads raise synchronously under either assembly;
     only the copies into and out of a mapping are offloadable. *)
  let write_raw m off enc =
    pause ();
    write_slot m off enc
  in
  let read_raw m off : elt array =
    pause ();
    read_slot m off
  in
  match io with
  | None ->
      (* Backstop for backends dropped without an explicit close (tests,
         bench iterations): release the fds once the backend is unreachable.
         The finaliser hangs off [written] — captured by the closures below,
         so it stays alive as long as *any* copy of the record does (the
         record itself may be functionally updated, e.g. renamed by
         [make]). *)
      Gc.finalise (fun (_ : (int, unit) Hashtbl.t) -> release ~truncate:true) written;
      {
        name = "file";
        alloc;
        load =
          (fun s ->
            check_open ();
            if Hashtbl.mem written s then Some (read_raw maps.(s mod disks) (offset s))
            else None);
        store =
          (fun s payload ->
            check_open ();
            let enc = encode ~slot_bytes s payload in
            ensure s;
            write_raw maps.(s mod disks) (offset s) enc;
            Hashtbl.replace written s ());
        free =
          (fun s ->
            Hashtbl.remove written s;
            free_slot a s);
        probe = (fun _ -> None);
        prefetch = (fun _ -> ());
        flush = check_open;
        close = (fun () -> release ~truncate:true);
      }
  | Some pool ->
      (* Asynchronous assembly over the same raw primitives.  All bookkeeping
         the model observes — the [written] set, the allocator, overflow
         checks, mapping growth — stays on the caller's domain in the same
         order as the synchronous path; only the copies cross into the pool,
         each over the mapping current at submission.  Routing key
         [key_base + (s mod disks)] sends each disk's requests to one worker,
         so two requests on one slot retire in submission order (that
         worker's FIFO). *)
      let key_base = Io_pool.fresh_key_base () in
      let key s = key_base + (s mod disks) in
      let read_job s =
        let m = maps.(s mod disks) and off = offset s in
        Io_pool.submit pool ~key:(key s) (fun () ->
            if !closed then failwith "Backend.file: backend is closed" else read_raw m off)
      in
      (* Reads staged by [prefetch], consumed (or discarded) exactly once. *)
      let staged : (int, elt array Io_pool.ticket) Hashtbl.t = Hashtbl.create 64 in
      (* Latest write-behind ticket per slot: an older ticket replaced here
         targets the same worker FIFO, so awaiting only the newest one at
         flush time still covers it. *)
      let pending_stores : (int, unit Io_pool.ticket) Hashtbl.t = Hashtbl.create 64 in
      let discard_staged s =
        match Hashtbl.find_opt staged s with
        | None -> ()
        | Some tk ->
            Hashtbl.remove staged s;
            (try ignore (Io_pool.await tk) with _ -> ())
      in
      (* Only an explicit close awaits every job, so only it may truncate.
         The GC backstop must not [await]: finalisers can run on a worker
         domain mid-allocation, where waiting on that worker's own queue
         would deadlock.  Jobs re-check [closed] so a backstopped close (the
         backend is unreachable — nobody will read the data) mostly drops
         its remaining copies; one already running copies into a mapping of
         an untruncated file, which stays valid. *)
      let close_async ~await_pending () =
        if not !closed then begin
          if await_pending then begin
            Hashtbl.iter (fun _ tk -> try Io_pool.await tk with _ -> ()) pending_stores;
            Hashtbl.iter (fun _ tk -> try ignore (Io_pool.await tk) with _ -> ()) staged
          end;
          Hashtbl.reset pending_stores;
          Hashtbl.reset staged;
          release ~truncate:await_pending
        end
      in
      Gc.finalise
        (fun (_ : (int, unit) Hashtbl.t) -> close_async ~await_pending:false ())
        written;
      {
        name = "file";
        alloc;
        load =
          (fun s ->
            check_open ();
            if not (Hashtbl.mem written s) then None
            else
              match Hashtbl.find_opt staged s with
              | Some tk ->
                  Hashtbl.remove staged s;
                  Some (Io_pool.await tk)
              | None ->
                  (* Demand reads also route through the owning worker, so
                     they retire after every write submitted before them. *)
                  Some (Io_pool.await (read_job s)));
        store =
          (fun s payload ->
            check_open ();
            (* The job runs after [store] returns: it copies the caller's
               ints now, as [Marshal] already does for a blob. *)
            let enc =
              match encode ~slot_bytes s payload with Ints a -> Ints (Array.copy a) | b -> b
            in
            ensure s;
            Hashtbl.replace written s ();
            (* A read staged before this write holds the slot's *old* bytes;
               retire it now so no later load can observe them. *)
            discard_staged s;
            let m = maps.(s mod disks) and off = offset s in
            let tk =
              Io_pool.submit pool ~key:(key s) (fun () ->
                  if not !closed then write_raw m off enc)
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
            then Hashtbl.replace staged s (read_job s));
        flush =
          (fun () ->
            check_open ();
            let tickets = Hashtbl.fold (fun _ tk acc -> tk :: acc) pending_stores [] in
            Hashtbl.reset pending_stores;
            List.iter Io_pool.await tickets);
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

(* Generous per-slot budget for the file backend: B immediates take 8 bytes
   each, and B boxed words marshal to a few dozen bytes each for the scalar
   payloads the algorithms move around. *)
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
          ~slots:(default_slots i.params) ~slot_bytes:i.slot_bytes ()
    | Cached inner ->
        let pool =
          match i.pool with
          | Some p -> p
          | None -> invalid_arg "Backend.make: cached spec without a pool"
        in
        cached ~pool (build inner)
  in
  { (build i.spec) with name = spec_name i.spec }
