(* The layer ladder: each rung times calls into one layer's public functions
   from outside, on the workload's machine configuration, and verifies what
   the calls return.  [scale] shrinks every iteration count (the smoke run
   uses a tiny one). *)

open Util

(* A metric as reported: its value, and the median and quartiles of the [n]
   samples it came from.  Counts and ratios computed once carry [n = 1]. *)
type metric = { name : string; units : string; value : float; s : summary }

let once name units value =
  { name; units; value; s = { median = value; q1 = value; q3 = value; n = 1 } }

let over name units samples =
  let s = summarize samples in
  { name; units; value = s.median; s }

(* Best of k: the fastest sample.  Interference on a shared host only ever
   adds time, and it comes in stretches of seconds to minutes, so the best
   rep or window measures the code where a median would measure the host. *)
let best ~higher name units samples =
  let pick =
    if higher then Array.fold_left Float.max neg_infinity else Array.fold_left Float.min infinity
  in
  { name; units; value = pick samples; s = summarize samples }

let iters scale base = max 1 (int_of_float (scale *. float_of_int base))

(* ns per call of [f i] for i in [0, k), over [batches] batches. *)
let per_op ~batches ~k f =
  Array.init batches (fun _ ->
      let t0 = now_ns () in
      for i = 0 to k - 1 do
        f i
      done;
      float_of_int (now_ns () - t0) /. float_of_int k)

(* ---- Emalg.Mem_sort / Select_mem on one M-word Π_hard load ---- *)

let kernel ~scale t (m : Work.machine) ~seed =
  let n = m.Work.mem in
  let load = Core.Workload.generate Core.Workload.Pi_hard ~seed ~n ~block:m.Work.block in
  let sorted = Array.copy load in
  Array.sort Int.compare sorted;
  let reps = max 3 (iters scale (1 lsl 20) / n) in
  let time_on_copy f =
    Array.init reps (fun _ ->
        let a = Array.copy load in
        let t0 = now_ns () in
        let r = f a in
        let dt = now_ns () - t0 in
        (a, r, float_of_int dt /. float_of_int n))
  in
  let sorts = time_on_copy (Emalg.Mem_sort.sort Int.compare) in
  Array.iter
    (fun (a, (), _) ->
      Work.check t (if a = sorted then Ok () else Error "Mem_sort.sort: output not sorted"))
    sorts;
  let comparisons = ref 0 in
  Emalg.Mem_sort.sort
    (fun x y ->
      incr comparisons;
      Int.compare x y)
    (Array.copy load);
  let nlogn = float_of_int n *. Float.log2 (float_of_int n) in
  let med = sorted.(((n + 1) / 2) - 1) in
  let selects = time_on_copy (Emalg.Select_mem.median Int.compare) in
  Array.iter
    (fun (_, r, _) ->
      Work.check t (if r = med then Ok () else Error "Select_mem.median: wrong element"))
    selects;
  [
    over "mem_sort.ns_per_elem" "ns" (Array.map (fun (_, _, x) -> x) sorts);
    once "mem_sort.cmp_per_nlogn" "ratio" (float_of_int !comparisons /. nlogn);
    over "select_mem.ns_per_elem" "ns" (Array.map (fun (_, _, x) -> x) selects);
  ]

(* ---- Em.Device / Stats / Trace / Phase, and Em.Reader / Writer ---- *)

let device ~scale host t (m : Work.machine) ~seed =
  let ctx = Work.make_ctx host m in
  Fun.protect
    ~finally:(fun () -> Em.Ctx.close ctx)
    (fun () ->
      let blocks = 256 and b = m.Work.block in
      let len = blocks * b in
      let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed ~n:len in
      let expect = Em.Vec.Oracle.to_array v in
      let batches = iters scale 15 in
      let read_pass i = ignore (Em.Vec.block_io v i) in
      let stats = ctx.Em.Ctx.stats in
      let ios0 = Em.Stats.ios stats and ev0 = Em.Trace.total ctx.Em.Ctx.trace in
      let read_ns = per_op ~batches ~k:blocks read_pass in
      let events_per_io =
        float_of_int (Em.Trace.total ctx.Em.Ctx.trace - ev0)
        /. float_of_int (Em.Stats.ios stats - ios0)
      in
      let rec nest d f =
        if d = 0 then f () else Em.Phase.with_label ctx "ladder" (fun () -> nest (d - 1) f)
      in
      let depth4 = nest 4 (fun () -> per_op ~batches ~k:blocks read_pass) in
      let w0 = Gc.minor_words () in
      for i = 0 to blocks - 1 do
        read_pass i
      done;
      (* Words allocated per metered read beyond the returned B-word copy. *)
      let alloc = ((Gc.minor_words () -. w0) /. float_of_int blocks) -. float_of_int b in
      let wrong = ref 0 in
      for i = 0 to blocks - 1 do
        if Em.Vec.block_io v i <> Array.sub expect (i * b) b then incr wrong
      done;
      Work.check t (if !wrong = 0 then Ok () else Error "Vec.block_io: wrong block contents");
      let reader_ns =
        Array.init batches (fun _ ->
            let sum = ref 0 in
            let t0 = now_ns () in
            Em.Reader.with_reader v (fun r ->
                while Em.Reader.has_next r do
                  sum := !sum + Em.Reader.next r
                done);
            let dt = now_ns () - t0 in
            Work.check t
              (if !sum = len * (len - 1) / 2 then Ok () else Error "Reader: wrong element sum");
            float_of_int dt /. float_of_int len)
      in
      let writer_ns =
        Array.init batches (fun _ ->
            let t0 = now_ns () in
            let out =
              Em.Writer.with_writer ctx (fun w ->
                  for i = 0 to len - 1 do
                    Em.Writer.push w i
                  done)
            in
            let dt = now_ns () - t0 in
            let got = Em.Vec.Oracle.to_array out in
            Em.Vec.free out;
            Work.check t
              (if got = Array.init len Fun.id then Ok () else Error "Writer: wrong contents");
            float_of_int dt /. float_of_int len)
      in
      let tracer = Em.Trace.create ~ring_capacity:Em.Trace.default_ring_capacity () in
      let emit_ns =
        per_op ~batches ~k:4096 (fun i -> Em.Trace.emit tracer Em.Trace.Read ~block:i ~phase:[])
      in
      [
        over "device.read_ns" "ns" read_ns;
        over "device.read_ns_depth4" "ns" depth4;
        once "device.alloc_words_per_io" "words" alloc;
        over "trace.emit_ns" "ns" emit_ns;
        once "trace.events_per_io" "ratio" events_per_io;
        over "reader.ns_per_elem" "ns" reader_ns;
        over "writer.ns_per_elem" "ns" writer_ns;
      ])

(* ---- Em.Backend: raw closures from [Backend.make], unmetered ---- *)

let backend_ops ~scale host t ~prefix ?pool_pages ~async spec (m : Work.machine) =
  let params = Work.params m in
  let io_pool = if async then Some (Lazy.force host.Work.io_pool) else None in
  let inst =
    Em.Backend.instance ~dir:host.Work.dir ?pool_pages ~async ?io_pool spec params
      (Em.Stats.create ())
  in
  let be : int Em.Backend.t = Em.Backend.make inst in
  Fun.protect ~finally:be.Em.Backend.close (fun () ->
      let slots = Array.init 256 (fun _ -> be.Em.Backend.alloc ()) in
      let payload s = Array.init m.Work.block (fun i -> s + i) in
      let payloads = Array.map payload slots in
      let k = Array.length slots and batches = iters scale 9 in
      (* Stores include the final flush, so write-behind retires inside the
         clock. *)
      let store_ns =
        Array.init batches (fun _ ->
            let t0 = now_ns () in
            Array.iteri (fun i s -> be.Em.Backend.store s payloads.(i)) slots;
            be.Em.Backend.flush ();
            float_of_int (now_ns () - t0) /. float_of_int k)
      in
      let wrong = ref 0 in
      let load_ns =
        per_op ~batches ~k (fun i ->
            match be.Em.Backend.load slots.(i) with
            | Some a when a = payloads.(i) -> ()
            | _ -> incr wrong)
      in
      Work.check t
        (if !wrong = 0 then Ok () else Error (prefix ^ ": load returned the wrong block"));
      [ over (prefix ^ ".load_ns") "ns" load_ns; over (prefix ^ ".store_ns") "ns" store_ns ])

(* ---- Em.Backend.Pool: a store into a full pool evicts one frame ---- *)

let pool_evict ~scale t ~block pages =
  let params = Em.Params.create ~mem:(4 * pages * block) ~block in
  let stats = Em.Stats.create () in
  let pool = Em.Backend.Pool.create ~pages params stats in
  let be : int Em.Backend.t = Em.Backend.cached ~pool (Em.Backend.sim ()) in
  Fun.protect ~finally:be.Em.Backend.close (fun () ->
      let slots = Array.init (2 * pages) (fun _ -> be.Em.Backend.alloc ()) in
      let payload = Array.make block 7 in
      for i = 0 to pages - 1 do
        be.Em.Backend.store slots.(i) payload
      done;
      (* Cycling through twice the capacity, every store misses the pool. *)
      let next = ref pages in
      let ns =
        per_op ~batches:(iters scale 9) ~k:pages (fun _ ->
            be.Em.Backend.store slots.(!next mod (2 * pages)) payload;
            incr next)
      in
      Work.check t
        (if
           Em.Backend.Pool.resident pool <= pages
           && stats.Em.Stats.cache_evictions > 0
           && be.Em.Backend.load slots.(0) = Some payload
         then Ok ()
         else Error "Pool: eviction bookkeeping is off");
      over (Printf.sprintf "pool.evict_ns_%d" pages) "ns" ns)

(* ---- Em.Io_pool: one no-op job submitted and awaited ---- *)

let io_pool_roundtrip ~scale host t =
  let pool = Lazy.force host.Work.io_pool in
  let ns =
    per_op ~batches:(iters scale 9) ~k:2000 (fun _ ->
        Em.Io_pool.await (Em.Io_pool.submit pool ~key:0 ignore))
  in
  Work.check t
    (if Em.Io_pool.in_flight pool = 0 then Ok () else Error "Io_pool: jobs still in flight");
  over "io_pool.roundtrip_ns" "ns" ns

(* ---- Core.Serve.parse_command ---- *)

let parse ~scale t (stream : Work.query array) =
  let k = min 4096 (Array.length stream) in
  let lines = Array.init k (fun i -> stream.(i).Work.line) in
  Array.iteri
    (fun i line ->
      Work.check t
        (match Core.Serve.parse_command line with
        | Ok (Core.Serve.Query q) when q = stream.(i).Work.q -> Ok ()
        | _ -> Error ("parse_command: " ^ line)))
    lines;
  over "serve.parse_ns" "ns"
    (per_op ~batches:(iters scale 15) ~k (fun i -> ignore (Core.Serve.parse_command lines.(i))))

let all ~scale host t (m : Work.machine) ~seed ~stream =
  kernel ~scale t m ~seed
  @ device ~scale host t m ~seed
  @ backend_ops ~scale host t ~prefix:"backend" ?pool_pages:m.Work.pool_pages ~async:m.Work.async
      m.Work.backend m
  @ backend_ops ~scale host t ~prefix:"backend.file" ~async:false Em.Backend.File m
  @ backend_ops ~scale host t ~prefix:"backend.async" ~async:true Em.Backend.File m
  @ [
      pool_evict ~scale t ~block:m.Work.block 128;
      pool_evict ~scale t ~block:m.Work.block 1024;
      io_pool_roundtrip ~scale host t;
      parse ~scale t stream;
    ]
