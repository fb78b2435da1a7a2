(* Storage backends: the same algorithms, byte-identical outputs and counted
   I/Os whether blocks live in the sim array, on a real file, or behind the
   buffer pool — plus the pool/file mechanics themselves (LRU residency,
   ledger accounting, temp-file hygiene, slot overflow). *)

let all_specs =
  [
    Em.Backend.Sim;
    Em.Backend.File;
    Em.Backend.Cached Em.Backend.Sim;
    Em.Backend.Cached Em.Backend.File;
  ]

let ctx_on ?pool_pages spec : int Em.Ctx.t =
  Em.Ctx.create ~backend:spec ?pool_pages (Tu.params ~mem:256 ~block:16 ())

(* ---- backend record mechanics ---- *)

let roundtrip_backend name (b : int Em.Backend.t) =
  let s = b.Em.Backend.alloc () in
  Tu.check_bool (name ^ ": unwritten slot loads None") true (b.Em.Backend.load s = None);
  b.Em.Backend.store s [| 7; 8; 9 |];
  (match b.Em.Backend.load s with
  | Some a -> Tu.check_int_array (name ^ ": roundtrip") [| 7; 8; 9 |] a
  | None -> Alcotest.failf "%s: stored slot loads None" name);
  b.Em.Backend.store s [| 1 |];
  (match b.Em.Backend.load s with
  | Some a -> Tu.check_int_array (name ^ ": overwrite") [| 1 |] a
  | None -> Alcotest.failf "%s: overwritten slot loads None" name);
  b.Em.Backend.free s;
  Tu.check_bool (name ^ ": freed slot loads None") true (b.Em.Backend.load s = None);
  (* Recycling is LIFO: the historical Device free-list discipline that the
     golden I/O counts were recorded under. *)
  let a1 = b.Em.Backend.alloc () and a2 = b.Em.Backend.alloc () in
  b.Em.Backend.free a1;
  b.Em.Backend.free a2;
  Tu.check_int (name ^ ": LIFO recycling") a2 (b.Em.Backend.alloc ());
  b.Em.Backend.flush ();
  b.Em.Backend.close ();
  b.Em.Backend.close () (* idempotent *)

let test_sim_roundtrip () = roundtrip_backend "sim" (Em.Backend.sim ())

let test_file_roundtrip () =
  roundtrip_backend "file" (Em.Backend.file ~slot_bytes:4096 ())

let test_cached_roundtrip () =
  let p = Tu.params () in
  let stats = Em.Stats.create () in
  let pool = Em.Backend.Pool.create p stats in
  roundtrip_backend "cached" (Em.Backend.cached ~pool (Em.Backend.sim ()))

let test_store_owns_copy () =
  List.iter
    (fun spec ->
      let ctx = ctx_on spec in
      let b = Em.Backend.make ctx.Em.Ctx.backend in
      let s = b.Em.Backend.alloc () in
      let payload = [| 1; 2; 3 |] in
      b.Em.Backend.store s payload;
      payload.(0) <- 99;
      (match b.Em.Backend.load s with
      | Some a ->
          Tu.check_int
            (Em.Backend.spec_name spec ^ ": stored copy is insulated from the caller")
            1 a.(0)
      | None -> Alcotest.fail "stored slot loads None");
      Em.Ctx.close ctx;
      b.Em.Backend.close ())
    all_specs

let test_file_slot_overflow () =
  let b : int Em.Backend.t = Em.Backend.file ~slot_bytes:64 () in
  let s = b.Em.Backend.alloc () in
  (try
     b.Em.Backend.store s (Array.init 4096 Fun.id);
     Alcotest.fail "expected Slot_overflow"
   with Em.Em_error.Slot_overflow { bytes; capacity; slot } ->
     Tu.check_int "overflowing slot id" s slot;
     Tu.check_int "slot capacity reported" 64 capacity;
     Tu.check_bool "oversize payload reported" true (bytes > 64));
  b.Em.Backend.close ()

(* On the raw-int path a slot of [8 + 8n] bytes holds exactly [n] ints, and
   one more raises with the exact byte count, under either assembly; the
   store that raises leaves the slot's old contents in place. *)
let test_file_slot_overflow_boundary () =
  let n = 16 in
  let slot_bytes = 8 + (8 * n) in
  List.iter
    (fun io ->
      let label = if io = None then "sync" else "async" in
      let b : int Em.Backend.t = Em.Backend.file ?io ~slot_bytes () in
      let s = b.Em.Backend.alloc () in
      let full = Array.init n (fun i -> max_int - i) in
      b.Em.Backend.store s full;
      (match Array.make (n + 1) 0 |> b.Em.Backend.store s with
      | () -> Alcotest.failf "%s: n + 1 ints must overflow an 8 + 8n byte slot" label
      | exception Em.Em_error.Slot_overflow { bytes; capacity; slot } ->
          Tu.check_int (label ^ ": exact byte count") (8 + (8 * (n + 1))) bytes;
          Tu.check_int (label ^ ": capacity") slot_bytes capacity;
          Tu.check_int (label ^ ": slot") s slot);
      Tu.check_bool (label ^ ": n ints fit and survive the failed store") true
        (b.Em.Backend.load s = Some full);
      b.Em.Backend.close ())
    [ None; Some (Em.Io_pool.global ()) ];
  (* The Marshal path reports its blob plus the header. *)
  let b : string Em.Backend.t = Em.Backend.file ~slot_bytes () in
  let s = b.Em.Backend.alloc () in
  let payload = Array.init n (Printf.sprintf "boxed string %d") in
  (match b.Em.Backend.store s payload with
  | () -> Alcotest.fail "16 marshalled strings must overflow a 136-byte slot"
  | exception Em.Em_error.Slot_overflow { bytes; capacity; _ } ->
      Tu.check_int "marshal path: blob + header"
        (8 + Bytes.length (Marshal.to_bytes payload []))
        bytes;
      Tu.check_int "marshal path: capacity" slot_bytes capacity);
  b.Em.Backend.close ()

let test_default_slots_scale () =
  (* Satellite fix: the initial slot table is sized from the machine's
     fanout instead of the historical hardcoded 64. *)
  Tu.check_int "small fanout keeps the historical floor" 64
    (Em.Backend.default_slots (Em.Params.create ~mem:64 ~block:16));
  Tu.check_int "large fanout scales the table" 2048
    (Em.Backend.default_slots (Em.Params.create ~mem:4096 ~block:16))

(* ---- spec parsing ---- *)

let test_spec_parsing () =
  let ok s spec =
    match Em.Backend.spec_of_string s with
    | Ok got -> Tu.check_bool (Printf.sprintf "parse %S" s) true (got = spec)
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
  in
  ok "sim" Em.Backend.Sim;
  ok "FILE" Em.Backend.File;
  ok " cached " (Em.Backend.Cached Em.Backend.Sim);
  ok "cached:file" (Em.Backend.Cached Em.Backend.File);
  ok "cached:cached:file" (Em.Backend.Cached (Em.Backend.Cached Em.Backend.File));
  (match Em.Backend.spec_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse \"bogus\" should fail");
  List.iter
    (fun spec ->
      match Em.Backend.spec_of_string (Em.Backend.spec_name spec) with
      | Ok got -> Tu.check_bool ("name roundtrip " ^ Em.Backend.spec_name spec) true (got = spec)
      | Error e -> Alcotest.failf "name roundtrip failed: %s" e)
    all_specs

(* ---- the algorithm matrix: identical outputs, identical counted I/Os ---- *)

type outcome = { label : string; output : int array; d : Em.Stats.delta; peak : int }

let run_algo ?(disks = 1) spec (label, algo) =
  let ctx : int Em.Ctx.t =
    Em.Ctx.create ~backend:spec ~disks (Tu.params ~mem:256 ~block:16 ())
  in
  let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed:11 ~n:1500 in
  let cmp = Em.Ctx.counted ctx Tu.icmp in
  let output, d = Em.Ctx.measured ctx (fun () -> algo cmp v) in
  let peak = ctx.Em.Ctx.stats.Em.Stats.mem_peak in
  Em.Ctx.close ctx;
  { label; output; d; peak }

let algos =
  let spec = { Core.Problem.n = 1500; k = 8; a = 40; b = 400 } in
  let ranks = [| 1; 17; 750; 1499 |] in
  [
    ("sort", fun cmp v -> Em.Vec.Oracle.to_array (Emalg.External_sort.sort cmp v));
    ("multiselect", fun cmp v -> Core.Multi_select.select cmp v ~ranks);
    ("splitters", fun cmp v -> Em.Vec.Oracle.to_array (Core.Splitters.solve cmp v spec));
    ( "partitioning",
      fun cmp v ->
        (* Flatten the partition family: sizes prefix + concatenated data
           makes block-level divergence between backends visible. *)
        let parts = Core.Partitioning.solve cmp v spec in
        Array.concat
          (Array.to_list (Array.map (fun p -> [| Em.Vec.length p |]) parts)
          @ Array.to_list (Array.map Em.Vec.Oracle.to_array parts)) );
  ]

let test_matrix () =
  List.iter
    (fun algo ->
      let reference = run_algo Em.Backend.Sim algo in
      List.iter
        (fun spec ->
          let got = run_algo spec algo in
          let on = Printf.sprintf "%s on %s" got.label (Em.Backend.spec_name spec) in
          Tu.check_int_array (on ^ ": output identical to sim") reference.output got.output;
          Tu.check_int (on ^ ": counted reads identical") reference.d.Em.Stats.d_reads
            got.d.Em.Stats.d_reads;
          Tu.check_int (on ^ ": counted writes identical") reference.d.Em.Stats.d_writes
            got.d.Em.Stats.d_writes;
          Tu.check_int (on ^ ": comparisons identical") reference.d.Em.Stats.d_comparisons
            got.d.Em.Stats.d_comparisons;
          Tu.check_bool (on ^ ": mem_peak within M") true (got.peak <= 256))
        (List.tl all_specs))
    algos

(* Same matrix on a 4-disk machine: striping and the scheduling-window
   pipelines are backend-independent too.  Rounds agree exactly on
   uncached backends (same metered stream, same windows); behind a buffer
   pool the resident pages share the [M]-word capacity check with the
   algorithm ledger, so the opportunistic prefetch/write-behind charges
   land less often and the round count sits somewhere else in the
   [ceil(ios / D), ios] band — still compressed, just not identical. *)
let test_matrix_multi_disk () =
  List.iter
    (fun algo ->
      let reference = run_algo ~disks:4 Em.Backend.Sim algo in
      List.iter
        (fun spec ->
          let got = run_algo ~disks:4 spec algo in
          let on =
            Printf.sprintf "%s on %s at D=4" got.label (Em.Backend.spec_name spec)
          in
          Tu.check_int_array (on ^ ": output identical to sim") reference.output got.output;
          Tu.check_int (on ^ ": counted reads identical") reference.d.Em.Stats.d_reads
            got.d.Em.Stats.d_reads;
          Tu.check_int (on ^ ": counted writes identical") reference.d.Em.Stats.d_writes
            got.d.Em.Stats.d_writes;
          (match spec with
          | Em.Backend.Cached _ ->
              let ios = Em.Stats.delta_ios got.d in
              Tu.check_bool (on ^ ": rounds within [ceil(ios/D), ios]") true
                (got.d.Em.Stats.d_rounds >= (ios + 3) / 4
                && got.d.Em.Stats.d_rounds <= ios)
          | _ ->
              Tu.check_int (on ^ ": rounds identical") reference.d.Em.Stats.d_rounds
                got.d.Em.Stats.d_rounds);
          Tu.check_bool (on ^ ": rounds compressed below I/Os") true
            (got.d.Em.Stats.d_rounds < Em.Stats.delta_ios got.d);
          Tu.check_bool (on ^ ": mem_peak within M") true (got.peak <= 256))
        (List.tl all_specs))
    algos

(* ---- linked families inherit the backend ---- *)

let test_linked_inherits_backend () =
  List.iter
    (fun spec ->
      let parent = ctx_on spec in
      let child : string Em.Ctx.t = Em.Ctx.linked parent in
      Tu.check_bool
        (Em.Backend.spec_name spec ^ ": linked device inherits the backend")
        true
        (Em.Ctx.backend_name child = Em.Ctx.backend_name parent);
      Em.Ctx.close child;
      Em.Ctx.close parent)
    all_specs

let test_linked_shares_pool () =
  let parent = ctx_on (Em.Backend.Cached Em.Backend.Sim) in
  let child : int Em.Ctx.t = Em.Ctx.linked parent in
  let pool =
    match (Em.Ctx.backend_pool parent, Em.Ctx.backend_pool child) with
    | Some p, Some c ->
        Tu.check_bool "parent and child share one pool object" true (p == c);
        p
    | _ -> Alcotest.fail "cached family without a pool"
  in
  (* Blocks written through either member land in the same pool. *)
  let v1 = Tu.int_vec parent (Array.init 64 Fun.id) in
  let before = Em.Backend.Pool.resident pool in
  let v2 = Tu.int_vec child (Array.init 64 (fun i -> -i)) in
  Tu.check_bool "child I/O populates the shared pool" true
    (Em.Backend.Pool.resident pool > before);
  Tu.check_bool "residency bounded by capacity" true
    (Em.Backend.Pool.resident pool <= Em.Backend.Pool.capacity pool);
  Em.Vec.free v1;
  Em.Vec.free v2;
  Em.Ctx.close child;
  Em.Ctx.close parent;
  Tu.check_int "closing the family empties the pool" 0 (Em.Backend.Pool.resident pool);
  Tu.check_int "pool words returned to the ledger" 0
    parent.Em.Ctx.stats.Em.Stats.pool_words

let test_uncached_has_no_pool () =
  List.iter
    (fun spec ->
      let ctx = ctx_on spec in
      Tu.check_bool
        (Em.Backend.spec_name spec ^ ": no pool on uncached backends")
        true
        (Em.Ctx.backend_pool ctx = None);
      Em.Ctx.close ctx)
    [ Em.Backend.Sim; Em.Backend.File ]

(* ---- file hygiene: no backing files outlive (or are even visible to)
        a sweep ---- *)

let test_file_hygiene () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "em-backend-hygiene-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () -> Unix.rmdir dir)
    (fun () ->
      for seed = 0 to 4 do
        let ctx : int Em.Ctx.t =
          Em.Ctx.create ~backend:Em.Backend.File ~backend_dir:dir
            (Tu.params ~mem:256 ~block:16 ())
        in
        let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed ~n:600 in
        let sorted = Emalg.External_sort.sort Tu.icmp v in
        Tu.check_int "sorted on disk" 600 (Em.Vec.length sorted);
        Em.Vec.free sorted;
        (* Unlink-after-open: the backing file is invisible even while the
           device is live, so a crash can't leak it either. *)
        Tu.check_int "no visible backing file mid-run" 0 (Array.length (Sys.readdir dir));
        Em.Ctx.close ctx
      done;
      Tu.check_int "no backing files leaked across the sweep" 0
        (Array.length (Sys.readdir dir)))

(* ---- cache accounting properties ---- *)

let prop_reads_hits_misses =
  Tu.qcheck_case ~count:30 "cached: reads = hits + misses; resident <= capacity"
    QCheck2.Gen.(
      triple (int_range 64 900) (int_range 0 1000) (int_range 2 12))
    (fun (n, seed, pages) ->
      let ctx = ctx_on ~pool_pages:pages (Em.Backend.Cached Em.Backend.Sim) in
      let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed ~n in
      let ranks = [| 1; (n / 2) + 1; n |] in
      ignore (Core.Multi_select.select (Em.Ctx.counted ctx Tu.icmp) v ~ranks);
      let s = ctx.Em.Ctx.stats in
      let pool = Option.get (Em.Ctx.backend_pool ctx) in
      let ok =
        s.Em.Stats.reads = s.Em.Stats.cache_hits + s.Em.Stats.cache_misses
        && Em.Backend.Pool.resident pool <= Em.Backend.Pool.capacity pool
        && Em.Backend.Pool.capacity pool = pages
        && s.Em.Stats.mem_peak <= 256
      in
      Em.Ctx.close ctx;
      ok)

(* ---- the pool's replacement policy against a reference LRU ----

   Two cached backends share one pool, as a linked family's do, so frames
   of two owners compete for the same capacity (their slot numbers
   coincide on purpose).  The reference model is a plain list of resident
   (owner, slot) keys, least recently used first, each with a dirty flag;
   it also tracks what every slot holds logically and what its inner store
   holds, so write-back timing is checked along with residency. *)

type lru_op =
  | Load of int * int
  | Store of int * int * int
  | Free of int * int
  | Flush of int
  | Drop_all

let lru_slots = 6

let gen_lru_op =
  QCheck2.Gen.(
    let owner = int_range 0 1 and slot = int_range 0 (lru_slots - 1) in
    frequency
      [
        (4, map2 (fun o s -> Load (o, s)) owner slot);
        (4, map3 (fun o s v -> Store (o, s, v)) owner slot (int_range 0 99));
        (1, map2 (fun o s -> Free (o, s)) owner slot);
        (1, map (fun o -> Flush o) owner);
        (1, pure Drop_all);
      ])

let prop_pool_is_lru =
  Tu.qcheck_case ~count:300 "cached: two owners share one LRU pool"
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 1 80) gen_lru_op))
    (fun (pages, ops) ->
      let block = 4 in
      let stats = Em.Stats.create () in
      let pool = Em.Backend.Pool.create ~pages (Tu.params ~mem:1024 ~block ()) stats in
      let inner = Array.init 2 (fun _ -> (Em.Backend.sim () : int Em.Backend.t)) in
      let be = Array.map (Em.Backend.cached ~pool) inner in
      Array.iter
        (fun b ->
          for _ = 1 to lru_slots do
            ignore (b.Em.Backend.alloc ())
          done)
        be;
      let lru = ref [] in
      let contents = Hashtbl.create 16 and stored = Hashtbl.create 16 in
      let evictions = ref 0 in
      let write_back (key, dirty) =
        if !dirty then begin
          Hashtbl.replace stored key (Hashtbl.find contents key);
          dirty := false
        end
      in
      let evict_oldest () =
        match !lru with
        | [] -> ()
        | victim :: rest ->
            lru := rest;
            write_back victim;
            incr evictions
      in
      let admit key ~dirty =
        while List.length !lru >= pages do
          evict_oldest ()
        done;
        lru := !lru @ [ (key, ref dirty) ]
      in
      let entry key = List.assoc_opt key !lru in
      let touch key =
        let e = (key, List.assoc key !lru) in
        lru := List.filter (fun (k, _) -> k <> key) !lru @ [ e ]
      in
      let payload tbl key = Option.map (fun v -> [| v |]) (Hashtbl.find_opt tbl key) in
      let step = function
        | Load (o, s) ->
            let key = (o, s) in
            let want = payload contents key in
            let probe = be.(o).Em.Backend.probe s in
            let got = be.(o).Em.Backend.load s in
            let hit = entry key <> None in
            if hit then touch key
            else if Hashtbl.mem stored key then admit key ~dirty:false;
            probe = Some (if hit then Em.Trace.Hit else Em.Trace.Miss) && got = want
        | Store (o, s, v) ->
            let key = (o, s) in
            be.(o).Em.Backend.store s [| v |];
            Hashtbl.replace contents key v;
            (match entry key with
            | Some dirty ->
                dirty := true;
                touch key
            | None -> admit key ~dirty:true);
            true
        | Free (o, s) ->
            let key = (o, s) in
            be.(o).Em.Backend.free s;
            lru := List.filter (fun (k, _) -> k <> key) !lru;
            Hashtbl.remove contents key;
            Hashtbl.remove stored key;
            (* LIFO recycling hands the freed slot straight back. *)
            be.(o).Em.Backend.alloc () = s
        | Flush o ->
            be.(o).Em.Backend.flush ();
            List.iter (fun (((o', _), _) as e) -> if o' = o then write_back e) !lru;
            List.for_all
              (fun s -> inner.(o).Em.Backend.load s = payload contents (o, s))
              (List.init lru_slots Fun.id)
        | Drop_all ->
            Em.Backend.Pool.drop_all pool;
            while !lru <> [] do
              evict_oldest ()
            done;
            true
      in
      let inner_matches () =
        List.for_all
          (fun o ->
            List.for_all
              (fun s -> inner.(o).Em.Backend.load s = payload stored (o, s))
              (List.init lru_slots Fun.id))
          [ 0; 1 ]
      in
      List.for_all
        (fun op ->
          let ok = step op in
          let resident = Em.Backend.Pool.resident pool in
          ok
          && resident = List.length !lru
          && stats.Em.Stats.pool_words = resident * block
          && stats.Em.Stats.cache_evictions = !evictions
          && inner_matches ())
        ops)

let prop_file_matches_sim =
  Tu.qcheck_case ~count:15 "file backend: sort output and I/Os match sim"
    QCheck2.Gen.(pair (int_range 32 800) (int_range 0 1000))
    (fun (n, seed) ->
      let run spec =
        let ctx = ctx_on spec in
        let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed ~n in
        let out, d =
          Em.Ctx.measured ctx (fun () ->
              Em.Vec.Oracle.to_array (Emalg.External_sort.sort Tu.icmp v))
        in
        Em.Ctx.close ctx;
        (out, Em.Stats.delta_ios d)
      in
      run Em.Backend.Sim = run Em.Backend.File)

(* ---- the file codec: every payload shape round-trips ----

   The file backend stores a block of immediates (ints, bools, chars,
   constant constructors, [None]s) as raw int64s and marshals every other
   block.  One case draws a machine (sync or async, D in {1, 2, 4}) and a
   seed; on that machine, one backend per element family replays a random
   script of allocs, stores and frees against a model of what every live
   slot holds.  The backends start with room for 4 slots, so the scripts
   grow the mappings several times. *)

type colour = Red | Green | Blue

type family = Family : string * 'a QCheck2.Gen.t -> family

let families =
  let open QCheck2.Gen in
  [
    Family ("int", oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
    Family ("bool", bool);
    Family ("char", char);
    Family ("constant constructor", oneofl [ Red; Green; Blue ]);
    Family ("boxed", pair small_int string_small);
    Family ("int option", option int);
    Family ("float", float);
  ]

type 'a op = Alloc | Store of int * 'a array | Free of int

let codec_block = 16

(* Empty, short (a vector's last block) and full blocks, half of them one
   repeated element so an [int option] block is often all [None]. *)
let gen_block elt =
  QCheck2.Gen.(
    frequency [ (1, pure 0); (2, int_range 1 3); (3, pure codec_block) ] >>= fun len ->
    oneof [ array_size (pure len) elt; map (Array.make len) elt ])

let gen_script elt =
  QCheck2.Gen.(
    list_size (int_range 20 60)
      (frequency
         [
           (2, pure Alloc);
           (5, map2 (fun i p -> Store (i, p)) nat (gen_block elt));
           (1, map (fun i -> Free i) nat);
         ]))

let codec_slot_bytes = 4096

let file_on ~io ~disks () =
  Em.Backend.file ?io ~disks ~slots:4 ~slot_bytes:codec_slot_bytes ()

(* Replays [ops] on a fresh backend; false at the first load that differs
   from the model. *)
let replay ~io ~disks ops =
  let b = file_on ~io ~disks () in
  let live = ref [] and model = Hashtbl.create 16 in
  let agrees s = compare (b.Em.Backend.load s) (Hashtbl.find_opt model s) = 0 in
  let nth i = List.nth !live (i mod List.length !live) in
  let step = function
    | Alloc ->
        let s = b.Em.Backend.alloc () in
        live := s :: !live;
        b.Em.Backend.load s = None
    | Store (_, _) | Free _ when !live = [] -> true
    | Store (i, p) ->
        let s = nth i in
        b.Em.Backend.store s p;
        Hashtbl.replace model s (Array.copy p);
        true
    | Free i ->
        let s = nth i in
        b.Em.Backend.free s;
        live := List.filter (( <> ) s) !live;
        Hashtbl.remove model s;
        b.Em.Backend.load s = None
  in
  let ok = List.for_all (fun op -> step op && List.for_all agrees !live) ops in
  b.Em.Backend.close ();
  ok

(* A slot rewritten with a shorter payload of the other encoding must load
   exactly the new payload, and [None] once freed. *)
let other_kind_overwrites ~io ~disks =
  let b : int option Em.Backend.t = file_on ~io ~disks () in
  let s = b.Em.Backend.alloc () in
  let loads p =
    b.Em.Backend.store s p;
    b.Em.Backend.load s = Some p
  in
  let ok =
    loads (Array.make codec_block None)
    && loads [| Some min_int; None |]
    && loads (Array.init codec_block (fun i -> Some i))
    && loads [| None |]
    && loads [||]
    &&
    (b.Em.Backend.free s;
     b.Em.Backend.load s = None)
  in
  b.Em.Backend.close ();
  ok

let prop_file_codec =
  Tu.qcheck_case ~count:25 "file codec: every payload round-trips, sync and async, D in {1,2,4}"
    ~print:(fun (disks, async, seed) ->
      Printf.sprintf "disks=%d async=%b seed=%d" disks async seed)
    QCheck2.Gen.(triple (oneofl [ 1; 2; 4 ]) bool nat)
    (fun (disks, async, seed) ->
      let io = if async then Some (Em.Io_pool.global ()) else None in
      let rand = Random.State.make [| seed |] in
      other_kind_overwrites ~io ~disks
      && List.for_all
           (fun (Family (name, elt)) ->
             replay ~io ~disks (QCheck2.Gen.generate1 ~rand (gen_script elt))
             || QCheck2.Test.fail_reportf "family %s diverged from the model" name)
           families)

let suite =
  [
    Alcotest.test_case "sim roundtrip" `Quick test_sim_roundtrip;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "cached roundtrip" `Quick test_cached_roundtrip;
    Alcotest.test_case "store owns the copy" `Quick test_store_owns_copy;
    Alcotest.test_case "file slot overflow is typed" `Quick test_file_slot_overflow;
    Alcotest.test_case "file slot overflow at the exact boundary" `Quick
      test_file_slot_overflow_boundary;
    Alcotest.test_case "initial slots scale with fanout" `Quick test_default_slots_scale;
    Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "algorithm matrix across backends" `Slow test_matrix;
    Alcotest.test_case "algorithm matrix across backends at D=4" `Slow
      test_matrix_multi_disk;
    Alcotest.test_case "linked inherits backend" `Quick test_linked_inherits_backend;
    Alcotest.test_case "linked shares the buffer pool" `Quick test_linked_shares_pool;
    Alcotest.test_case "no pool on uncached backends" `Quick test_uncached_has_no_pool;
    Alcotest.test_case "file temp hygiene across a sweep" `Quick test_file_hygiene;
    prop_reads_hits_misses;
    prop_pool_is_lru;
    prop_file_matches_sim;
    prop_file_codec;
  ]
