(* The machines, inputs and operations the workloads are made of: a batch
   rep of the paper's five entry points, and serve / online-select sessions
   answering a seeded query stream.  Every output is verified outside the
   timed region. *)

open Util

type machine = {
  mem : int;
  block : int;
  disks : int;
  backend : Em.Backend.spec;
  pool_pages : int option;  (** frames of the buffer pool, cached backends only *)
  async : bool;  (** file I/O on a private one-worker {!Em.Io_pool} *)
}

let machine_json m =
  Obj
    [
      ("mem", Int m.mem);
      ("block", Int m.block);
      ("disks", Int m.disks);
      ("backend", Str (Em.Backend.spec_name m.backend));
      ("pool_pages", match m.pool_pages with Some p -> Int p | None -> Str "none");
      ("async", Bool m.async);
    ]

(* Where file backends put their (immediately unlinked) slot files, and the
   private I/O pool async machines share.  Both are fixed per process. *)
type host = { dir : string; io_pool : Em.Io_pool.t Lazy.t }

let params m = Em.Params.with_disks (Em.Params.create ~mem:m.mem ~block:m.block) m.disks

let make_ctx host m : int Em.Ctx.t =
  let io_pool = if m.async then Some (Lazy.force host.io_pool) else None in
  Em.Ctx.create
    ~trace:(Em.Trace.create ~ring_capacity:Em.Trace.default_ring_capacity ())
    ~backend:m.backend ~backend_dir:host.dir ?pool_pages:m.pool_pages ~async:m.async ?io_pool
    ~disks:m.disks (params m)

(* Counted work of a measured region, summed over reps or sessions. *)
type tally = {
  mutable ops : int;  (** outputs produced and verified *)
  mutable failed : int;
  mutable errors : string list;  (** first few failure messages *)
  mutable reads : int;
  mutable writes : int;
  mutable rounds : int;
  mutable comparisons : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable minor_words : float;  (** allocated inside timed regions only *)
  mutable mem_peak_frac : float;  (** max over machines of mem_peak / M *)
}

let tally () =
  {
    ops = 0;
    failed = 0;
    errors = [];
    reads = 0;
    writes = 0;
    rounds = 0;
    comparisons = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    minor_words = 0.;
    mem_peak_frac = 0.;
  }

let check t verdict =
  t.ops <- t.ops + 1;
  match verdict with
  | Ok () -> ()
  | Error msg ->
      t.failed <- t.failed + 1;
      if List.length t.errors < 5 then t.errors <- msg :: t.errors

let add_cost t (ctx : int Em.Ctx.t) (d : Em.Stats.delta) ~evictions =
  t.reads <- t.reads + d.Em.Stats.d_reads;
  t.writes <- t.writes + d.Em.Stats.d_writes;
  t.rounds <- t.rounds + d.Em.Stats.d_rounds;
  t.comparisons <- t.comparisons + d.Em.Stats.d_comparisons;
  t.hits <- t.hits + d.Em.Stats.d_cache_hits;
  t.misses <- t.misses + d.Em.Stats.d_cache_misses;
  t.evictions <- t.evictions + evictions;
  t.mem_peak_frac <-
    Float.max t.mem_peak_frac
      (float_of_int ctx.Em.Ctx.stats.Em.Stats.mem_peak /. float_of_int (Em.Ctx.mem_capacity ctx))

(* Time [f] on the monotonic clock, charging its allocation to [t]. *)
let timed t f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  t.minor_words <- t.minor_words +. (Gc.minor_words () -. w0);
  (r, t0, t1)

(* ---- batch: the paper's five entry points on one Π_hard input ---- *)

let job_names =
  [| "external_sort"; "partitioning"; "splitters"; "multi_select"; "multi_partition" |]

type rep = { rep_setup_ns : int; job_ns : int array; rep_cost : Em.Stats.delta }

let to_arrays parts =
  let arrs = Array.map Em.Vec.Oracle.to_array parts in
  Array.iter Em.Vec.free parts;
  arrs

(* One rep: a fresh machine holding a fresh input (set-up), then each job
   called and followed by [Ctx.flush] inside the clock, so write-back and
   write-behind retire before it stops.  Verification, frees and [close]
   run outside it. *)
let batch_rep host m t ~spans ~profile ~req ~n ~seed =
  let t0 = now_ns () in
  let ctx = make_ctx host m in
  let v = Core.Workload.vec ctx Core.Workload.Pi_hard ~seed ~n in
  let rep_setup_ns = now_ns () - t0 in
  Fun.protect
    ~finally:(fun () -> Em.Ctx.close ctx)
    (fun () ->
      Option.iter (fun p -> Em.Profile.attach p ctx.Em.Ctx.stats) profile;
      let input = Em.Vec.Oracle.to_array v in
      let sorted = Array.copy input in
      Array.sort Int.compare sorted;
      let cmp = Em.Ctx.counted ctx Int.compare in
      let icmp = Int.compare in
      let spec = { Core.Problem.n; k = 64; a = n / 256; b = n / 16 } in
      let ranks = Array.init 64 (fun i -> (i + 1) * (n / 64)) in
      let sizes = Array.make 16 (n / 16) in
      (* Each job returns the verification of its own output. *)
      let jobs =
        [|
          (fun () ->
            let out = Emalg.External_sort.sort cmp v in
            fun () ->
              let a = Em.Vec.Oracle.to_array out in
              Em.Vec.free out;
              if a = sorted then Ok () else Error "external_sort: output is not the sorted input");
          (fun () ->
            let parts = Core.Partitioning.solve cmp v spec in
            fun () -> Core.Verify.partitioning icmp ~input spec (to_arrays parts));
          (fun () ->
            let s = Core.Splitters.solve cmp v spec in
            fun () ->
              let a = Em.Vec.Oracle.to_array s in
              Em.Vec.free s;
              Core.Verify.splitters icmp ~input spec a);
          (fun () ->
            let out = Core.Multi_select.select cmp v ~ranks in
            fun () -> Core.Verify.multi_select icmp ~input ~ranks out);
          (fun () ->
            let parts = Core.Multi_partition.partition_sizes cmp v ~sizes in
            fun () -> Core.Verify.multi_partition icmp ~input ~sizes (to_arrays parts));
        |]
      in
      let stats = ctx.Em.Ctx.stats in
      let before = Em.Stats.snapshot stats in
      let ev0 = stats.Em.Stats.cache_evictions in
      let rep_span = Spans.start spans ~name:"rep" ~parent:Spans.root ~req in
      let verifications = ref [] in
      let job_ns =
        Array.mapi
          (fun j job ->
            let verify, t0, t1 =
              timed t (fun () ->
                  let verify = job () in
                  Em.Ctx.flush ctx;
                  verify)
            in
            Spans.record spans ~name:("job." ^ job_names.(j)) ~parent:rep_span.Spans.id ~req
              ~start_ns:t0 ~end_ns:t1;
            verifications := verify :: !verifications;
            t1 - t0)
          jobs
      in
      Spans.stop rep_span;
      let rep_cost = Em.Stats.delta stats before in
      add_cost t ctx rep_cost ~evictions:(stats.Em.Stats.cache_evictions - ev0);
      Option.iter (fun _ -> Em.Profile.detach stats) profile;
      List.iter (fun verify -> check t (verify ())) (List.rev !verifications);
      { rep_setup_ns; job_ns; rep_cost })

(* ---- the serve query stream ----

   70% select, 10% quantile, 20% range of width <= 2B.  90% of ranks fall
   within one block of one of 24 hot centres, chosen with Zipf-like weights,
   so the hot blocks fit a 128-frame pool; 10% are uniform.  The input is a
   random permutation of 0..n-1, so rank k holds k-1 and every reply checks
   against that oracle. *)

type query = { line : string; q : Emalg.Online_select.query; lo : int; len : int }

let hot_centres = 24

let query_stream ~seed ~n ~block ~queries =
  let rng = Core.Workload.Rng.create (seed lxor 0x5eed) in
  let centres = Array.init hot_centres (fun _ -> 1 + Core.Workload.Rng.int rng n) in
  (* Cumulative weights 1/(i+1), scaled to integers. *)
  let cum = Array.make hot_centres 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i _ ->
      acc := !acc + (1_000_000 / (i + 1));
      cum.(i) <- !acc)
    cum;
  let pick_centre () =
    let x = Core.Workload.Rng.int rng !acc in
    let i = ref 0 in
    while cum.(!i) <= x do incr i done;
    centres.(!i)
  in
  let clamp k = max 1 (min n k) in
  let rank () =
    if Core.Workload.Rng.int rng 10 = 0 then 1 + Core.Workload.Rng.int rng n
    else clamp (pick_centre () + Core.Workload.Rng.int rng (2 * block) - block)
  in
  Array.init queries (fun _ ->
      let k = rank () in
      match Core.Workload.Rng.int rng 10 with
      | 7 ->
          (* %.17g round-trips, so the session resolves the same phi. *)
          let phi = float_of_int k /. float_of_int n in
          let r = max 1 (int_of_float (Float.ceil (phi *. float_of_int n))) in
          {
            line = Printf.sprintf "quantile %.17g" phi;
            q = Emalg.Online_select.Quantile phi;
            lo = r - 1;
            len = 1;
          }
      | 8 | 9 ->
          let b = min n (k + Core.Workload.Rng.int rng (2 * block)) in
          {
            line = Printf.sprintf "range %d %d" k b;
            q = Emalg.Online_select.Range (k, b);
            lo = k - 1;
            len = b - k + 1;
          }
      | _ ->
          {
            line = Printf.sprintf "select %d" k;
            q = Emalg.Online_select.Select k;
            lo = k - 1;
            len = 1;
          })

let check_values q values =
  let ok = ref (Array.length values = q.len) in
  Array.iteri (fun i x -> if x <> q.lo + i then ok := false) values;
  if !ok then Ok () else Error (Printf.sprintf "wrong values for %S" q.line)

(* A reply line's "values" against the expected ranks.  Error replies carry
   no values and fail here. *)
let check_reply q reply =
  let module J = Em.Telemetry.Json in
  match Result.map (J.member "values") (J.parse reply) with
  | Ok (Some (J.List vs)) ->
      check_values q
        (Array.of_list (List.map (fun v -> Option.fold ~none:(-1) ~some:int_of_float (J.num v)) vs))
  | _ -> Error ("reply without values: " ^ reply)

type session = {
  sess_setup_ns : int;
  first_ns : int;  (** the cold first query: a full root refinement *)
  warm : Samples.t;  (** ns per later query *)
  reply_bytes : int;
  summary : Emalg.Online_select.summary;
  sess_cost : Em.Stats.delta;  (** counted work of all its queries *)
}

let monotonic_s () = float_of_int (now_ns ()) *. 1e-9

(* Drive one session over [stream]: [ask] answers one query and returns
   its verdict, called inside the clock; [verify] runs outside it. *)
let drive t ~spans ~req_base ~parent stream ask =
  let warm = Samples.create () in
  let first = ref 0 in
  Array.iteri
    (fun i q ->
      let verify, t0, t1 = timed t (fun () -> ask q) in
      Spans.record spans ~name:"query" ~parent ~req:(req_base + i) ~start_ns:t0 ~end_ns:t1;
      if i = 0 then first := t1 - t0 else Samples.add warm (float_of_int (t1 - t0));
      check t (verify ()))
    stream;
  (!first, warm)

let serve_session host m t ~spans ~profile ~req ~n ~seed stream =
  let t0 = now_ns () in
  let ctx = make_ctx host m in
  let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed ~n in
  let meta =
    {
      Core.Serve.m_n = n;
      m_mem = m.mem;
      m_block = m.block;
      m_disks = m.disks;
      m_workload = Core.Workload.kind_name Core.Workload.Random_perm;
      m_seed = seed;
    }
  in
  let srv = Core.Serve.create ~clock:monotonic_s ~meta ctx v in
  let sess_setup_ns = now_ns () - t0 in
  Fun.protect
    ~finally:(fun () ->
      Core.Serve.close srv;
      Em.Ctx.close ctx)
    (fun () ->
      (* A traced session's profiler replaces the one [Serve.create]
         attached, so both kinds of session run exactly one. *)
      Option.iter (fun p -> Em.Profile.attach p ctx.Em.Ctx.stats) profile;
      let stats = ctx.Em.Ctx.stats in
      let before = Em.Stats.snapshot stats in
      let ev0 = stats.Em.Stats.cache_evictions in
      let span = Spans.start spans ~name:"session" ~parent:Spans.root ~req in
      let reply = ref "" and reply_bytes = ref 0 in
      let emit line = reply := line in
      let first_ns, warm =
        drive t ~spans ~req_base:(req * Array.length stream) ~parent:span.Spans.id stream
          (fun q ->
            ignore (Core.Serve.run_batch srv emit q.line);
            let line = !reply in
            fun () ->
              reply_bytes := !reply_bytes + String.length line;
              check_reply q line)
      in
      Spans.stop span;
      let sess_cost = Em.Stats.delta stats before in
      add_cost t ctx sess_cost ~evictions:(stats.Em.Stats.cache_evictions - ev0);
      {
        sess_setup_ns;
        first_ns;
        warm;
        reply_bytes = !reply_bytes;
        summary = Emalg.Online_select.summary (Core.Serve.session srv);
        sess_cost;
      })

(* The same stream straight into an [Online_select] session: the serve
   loop's twin without parsing, replies, spans or telemetry. *)
let online_session host m t ~spans ~req ~n ~seed stream =
  let t0 = now_ns () in
  let ctx = make_ctx host m in
  let v = Core.Workload.vec ctx Core.Workload.Random_perm ~seed ~n in
  let s = Emalg.Online_select.open_session (Em.Ctx.counted ctx Int.compare) ctx v in
  let sess_setup_ns = now_ns () - t0 in
  Fun.protect
    ~finally:(fun () ->
      Emalg.Online_select.close ~drop_cache:true s;
      Em.Ctx.close ctx)
    (fun () ->
      let stats = ctx.Em.Ctx.stats in
      let before = Em.Stats.snapshot stats in
      let span = Spans.start spans ~name:"online_session" ~parent:Spans.root ~req in
      let first_ns, warm =
        drive t ~spans ~req_base:0 ~parent:span.Spans.id stream (fun q ->
            let r = Emalg.Online_select.query s q.q in
            fun () -> check_values q r.Emalg.Online_select.values)
      in
      Spans.stop span;
      let sess_cost = Em.Stats.delta stats before in
      add_cost t ctx sess_cost ~evictions:0;
      {
        sess_setup_ns;
        first_ns;
        warm;
        reply_bytes = 0;
        summary = Emalg.Online_select.summary s;
        sess_cost;
      })
