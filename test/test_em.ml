(* Tests for the EM machine simulator: params, stats, device, mem ledger,
   vec, reader, writer. *)

let test_params_valid () =
  let p = Em.Params.create ~mem:64 ~block:8 in
  Tu.check_int "mem" 64 p.Em.Params.mem;
  Tu.check_int "block" 8 p.Em.Params.block;
  Tu.check_int "fanout" 8 (Em.Params.fanout p)

let test_params_invalid () =
  Alcotest.check_raises "block 0" (Invalid_argument "Params.create: block size must be >= 1")
    (fun () -> ignore (Em.Params.create ~mem:64 ~block:0));
  Alcotest.check_raises "M < 2B"
    (Invalid_argument "Params.create: memory must hold at least two blocks (M >= 2B)")
    (fun () -> ignore (Em.Params.create ~mem:15 ~block:8))

let test_blocks_of_elems () =
  let p = Em.Params.create ~mem:64 ~block:8 in
  Tu.check_int "0 elems" 0 (Em.Params.blocks_of_elems p 0);
  Tu.check_int "1 elem" 1 (Em.Params.blocks_of_elems p 1);
  Tu.check_int "8 elems" 1 (Em.Params.blocks_of_elems p 8);
  Tu.check_int "9 elems" 2 (Em.Params.blocks_of_elems p 9)

let test_device_roundtrip () =
  let ctx = Tu.ctx () in
  let dev = ctx.Em.Ctx.dev in
  let id = Em.Device.alloc dev in
  Em.Device.write dev id [| 1; 2; 3 |];
  Tu.check_int_array "roundtrip" [| 1; 2; 3 |] (Em.Device.read dev id);
  Tu.check_int "one read" 1 ctx.Em.Ctx.stats.Em.Stats.reads;
  Tu.check_int "one write" 1 ctx.Em.Ctx.stats.Em.Stats.writes

let test_device_copy_semantics () =
  let ctx = Tu.ctx () in
  let dev = ctx.Em.Ctx.dev in
  let id = Em.Device.alloc dev in
  let payload = [| 1; 2 |] in
  Em.Device.write dev id payload;
  payload.(0) <- 99;
  Tu.check_int_array "payload copied on write" [| 1; 2 |] (Em.Device.read dev id);
  let out = Em.Device.read dev id in
  out.(0) <- 42;
  Tu.check_int_array "payload copied on read" [| 1; 2 |] (Em.Device.read dev id)

let test_device_free_recycles () =
  let ctx = Tu.ctx () in
  let dev = ctx.Em.Ctx.dev in
  let id = Em.Device.alloc dev in
  Em.Device.write dev id [| 7 |];
  Em.Device.free dev id;
  Tu.check_int "live count" 0 (Em.Device.live_blocks dev);
  (* The freed slot comes back from the next allocation that lands on its
     disk, so within one round-robin sweep of D allocations exactly one
     returns it (at D = 1 that is the very next allocation). *)
  let ids = Array.init (Em.Ctx.disks ctx) (fun _ -> Em.Device.alloc dev) in
  Tu.check_bool "id recycled" true (Array.exists (fun i -> i = id) ids);
  Alcotest.check_raises "freed block unreadable" (Em.Em_error.Never_written { id })
    (fun () -> ignore (Em.Device.read dev id))

let test_device_double_free () =
  (* Regression: freeing an id twice used to push it onto the free list twice
     and decrement [live] twice, so one block could later be handed out to
     two different allocations.  Now the second free raises. *)
  let ctx = Tu.ctx () in
  let dev = ctx.Em.Ctx.dev in
  let a = Em.Device.alloc dev in
  let b = Em.Device.alloc dev in
  Em.Device.free dev a;
  Alcotest.check_raises "double free detected" (Em.Em_error.Double_free { id = a }) (fun () ->
      Em.Device.free dev a);
  Tu.check_int "live unaffected by failed free" 1 (Em.Device.live_blocks dev);
  (* The free list must hold [a] exactly once: two allocations may not alias. *)
  let c = Em.Device.alloc dev in
  let d = Em.Device.alloc dev in
  Tu.check_bool "no aliased allocation" false (c = d);
  Em.Device.free dev b;
  Em.Device.free dev c;
  Em.Device.free dev d;
  Tu.check_int "all freed" 0 (Em.Device.live_blocks dev)

let test_device_bad_block_id () =
  let ctx = Tu.ctx () in
  let dev = ctx.Em.Ctx.dev in
  Alcotest.check_raises "read unknown id" (Em.Em_error.Bad_block_id { op = "read"; id = 99 })
    (fun () -> ignore (Em.Device.read dev 99));
  Alcotest.check_raises "write unknown id" (Em.Em_error.Bad_block_id { op = "write"; id = 99 })
    (fun () -> Em.Device.write dev 99 [| 1 |]);
  Alcotest.check_raises "free unknown id" (Em.Em_error.Bad_block_id { op = "free"; id = -1 })
    (fun () -> Em.Device.free dev (-1))

let test_device_oversize_payload () =
  let ctx = Tu.ctx ~mem:64 ~block:8 () in
  let dev = ctx.Em.Ctx.dev in
  let id = Em.Device.alloc dev in
  Alcotest.check_raises "payload too big" (Em.Em_error.Payload_overflow { len = 9; block = 8 })
    (fun () -> Em.Device.write dev id (Array.make 9 0))

let test_device_oracle_unmetered () =
  let ctx = Tu.ctx () in
  let dev = ctx.Em.Ctx.dev in
  let id = Em.Device.alloc dev in
  Em.Device.Oracle.write dev id [| 4; 5; 6 |];
  Tu.check_int_array "oracle roundtrip" [| 4; 5; 6 |] (Em.Device.Oracle.read dev id);
  Tu.check_int "no reads counted" 0 ctx.Em.Ctx.stats.Em.Stats.reads;
  Tu.check_int "no writes counted" 0 ctx.Em.Ctx.stats.Em.Stats.writes;
  Tu.check_int "no trace events" 0 (Em.Trace.total ctx.Em.Ctx.trace)

let test_ctx_measured () =
  let ctx = Tu.ctx ~mem:64 ~block:8 () in
  let v = Tu.int_vec ctx (Array.init 16 (fun i -> i)) in
  let total, d =
    Em.Ctx.measured ctx (fun () ->
        Em.Reader.with_reader v (fun r ->
            let acc = ref 0 in
            while Em.Reader.has_next r do
              acc := !acc + Em.Reader.next r
            done;
            !acc))
  in
  Tu.check_int "result passed through" 120 total;
  Tu.check_int "delta reads" 2 d.Em.Stats.d_reads;
  Tu.check_int "delta writes" 0 d.Em.Stats.d_writes;
  Tu.check_int "delta ios" 2 (Em.Stats.delta_ios d);
  (* The bracket reports without disturbing the cumulative counters. *)
  Tu.check_int "cumulative reads intact" 2 ctx.Em.Ctx.stats.Em.Stats.reads

let test_mem_ledger () =
  let p = Tu.params ~mem:64 ~block:8 () in
  let s = Em.Stats.create () in
  Em.Mem.charge p s 40;
  Em.Mem.charge p s 24;
  Tu.check_int "in use" 64 s.Em.Stats.mem_in_use;
  Tu.check_int "peak" 64 s.Em.Stats.mem_peak;
  Em.Mem.release p s 64;
  Tu.check_int "drained" 0 s.Em.Stats.mem_in_use;
  Tu.check_int "peak sticks" 64 s.Em.Stats.mem_peak

let test_mem_ledger_overflow () =
  let p = Tu.params ~mem:64 ~block:8 () in
  let s = Em.Stats.create () in
  Em.Mem.charge p s 60;
  (match Em.Mem.charge p s 5 with
  | () -> Alcotest.fail "expected Memory_exceeded"
  | exception Em.Mem.Memory_exceeded { requested; in_use; capacity } ->
      Tu.check_int "requested" 5 requested;
      Tu.check_int "in_use" 60 in_use;
      Tu.check_int "capacity" 64 capacity);
  Em.Mem.release p s 60

let test_mem_ledger_misuse () =
  let p = Tu.params ~mem:64 ~block:8 () in
  let s = Em.Stats.create () in
  Em.Mem.charge p s 10;
  Alcotest.check_raises "over-release" (Em.Em_error.Over_release { releasing = 11; in_use = 10 })
    (fun () -> Em.Mem.release p s 11);
  Alcotest.check_raises "negative charge" (Em.Em_error.Negative_words { op = "charge"; n = -3 })
    (fun () -> Em.Mem.charge p s (-3));
  Alcotest.check_raises "negative release"
    (Em.Em_error.Negative_words { op = "release"; n = -1 }) (fun () -> Em.Mem.release p s (-1));
  Tu.check_int "ledger unchanged by rejected calls" 10 s.Em.Stats.mem_in_use;
  Em.Mem.release p s 10

let test_mem_with_words_releases_on_raise () =
  let p = Tu.params () in
  let s = Em.Stats.create () in
  (match Em.Mem.with_words p s 10 (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected exception"
  | exception Failure _ -> ());
  Tu.check_int "released after raise" 0 s.Em.Stats.mem_in_use

let test_vec_of_array_costs_nothing () =
  let ctx = Tu.ctx () in
  let v = Tu.int_vec ctx (Array.init 100 (fun i -> i)) in
  Tu.check_int "no I/O for setup" 0 (Em.Stats.ios ctx.Em.Ctx.stats);
  Tu.check_int "length" 100 (Em.Vec.length v);
  Tu.check_int "blocks" 7 (Em.Vec.num_blocks v)

let test_vec_roundtrip () =
  let ctx = Tu.ctx () in
  let a = Tu.random_ints ~seed:7 ~bound:1000 123 in
  let v = Tu.int_vec ctx a in
  Tu.check_int_array "roundtrip" a (Em.Vec.Oracle.to_array v)

let test_vec_oracle_get () =
  let ctx = Tu.ctx () in
  let a = Array.init 50 (fun i -> i * 3) in
  let v = Tu.int_vec ctx a in
  Tu.check_int "get 0" 0 (Em.Vec.Oracle.get v 0);
  Tu.check_int "get 17" 51 (Em.Vec.Oracle.get v 17);
  Tu.check_int "get 49" 147 (Em.Vec.Oracle.get v 49);
  Alcotest.check_raises "oob" (Invalid_argument "Vec.Oracle.get: index out of bounds")
    (fun () -> ignore (Em.Vec.Oracle.get v 50))

let test_reader_sequential () =
  let ctx = Tu.ctx ~mem:64 ~block:8 () in
  let a = Array.init 20 (fun i -> i * i) in
  let v = Tu.int_vec ctx a in
  Em.Reader.with_reader v (fun r ->
      for i = 0 to 19 do
        Tu.check_int "peek" a.(i) (Em.Reader.peek r);
        Tu.check_int "next" a.(i) (Em.Reader.next r)
      done;
      Tu.check_bool "exhausted" false (Em.Reader.has_next r));
  Tu.check_int "reads = ceil(20/8)" 3 ctx.Em.Ctx.stats.Em.Stats.reads;
  Tu.check_no_leaks ~live:3 ctx

let test_reader_charges_buffer () =
  let ctx = Tu.ctx ~mem:64 ~block:8 () in
  let v = Tu.int_vec ctx [| 1; 2; 3 |] in
  let r = Em.Reader.open_vec v in
  Tu.check_int "buffer charged" 8 ctx.Em.Ctx.stats.Em.Stats.mem_in_use;
  Em.Reader.close r;
  Tu.check_int "buffer released" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

let test_reader_take () =
  let ctx = Tu.ctx () in
  let a = Array.init 37 (fun i -> i) in
  let v = Tu.int_vec ctx a in
  Em.Reader.with_reader v (fun r ->
      Tu.check_int_array "take 10" (Array.init 10 (fun i -> i)) (Em.Reader.take r 10);
      Tu.check_int "remaining" 27 (Em.Reader.remaining r);
      Tu.check_int_array "take rest" (Array.init 27 (fun i -> 10 + i)) (Em.Reader.take r 100);
      Tu.check_int_array "take at end" [||] (Em.Reader.take r 5))

let test_writer_roundtrip () =
  let ctx = Tu.ctx ~mem:64 ~block:8 () in
  let v =
    Em.Writer.with_writer ctx (fun w ->
        for i = 0 to 19 do
          Em.Writer.push w (i * 2)
        done)
  in
  Tu.check_int "writes = ceil(20/8)" 3 ctx.Em.Ctx.stats.Em.Stats.writes;
  Tu.check_int_array "contents" (Array.init 20 (fun i -> i * 2)) (Em.Vec.Oracle.to_array v);
  Tu.check_no_leaks ~live:3 ctx

let test_writer_empty () =
  let ctx = Tu.ctx () in
  let v = Em.Writer.with_writer ctx (fun _ -> ()) in
  Tu.check_int "empty vec" 0 (Em.Vec.length v);
  Tu.check_int "no I/O" 0 (Em.Stats.ios ctx.Em.Ctx.stats)

let test_writer_abandon_frees () =
  let ctx = Tu.ctx ~mem:64 ~block:8 () in
  let w = Em.Writer.create ctx in
  for i = 0 to 19 do
    Em.Writer.push w i
  done;
  Em.Writer.abandon w;
  Tu.check_int "no live blocks" 0 (Em.Device.live_blocks ctx.Em.Ctx.dev);
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

let test_vec_concat_free () =
  let ctx = Tu.ctx ~mem:64 ~block:8 () in
  let v1 = Tu.int_vec ctx (Array.init 16 (fun i -> i)) in
  let v2 = Tu.int_vec ctx (Array.init 5 (fun i -> 100 + i)) in
  let v = Em.Vec.concat_free [ v1; v2 ] in
  Tu.check_int "length" 21 (Em.Vec.length v);
  Tu.check_int_array "contents"
    (Array.append (Array.init 16 (fun i -> i)) (Array.init 5 (fun i -> 100 + i)))
    (Em.Vec.Oracle.to_array v);
  Alcotest.check_raises "partial non-final block rejected"
    (Invalid_argument "Vec.concat_free: non-final vector has a partial last block")
    (fun () -> ignore (Em.Vec.concat_free [ v2; v1 ]))

let test_stats_snapshot () =
  let ctx = Tu.ctx () in
  let v = Tu.int_vec ctx (Array.init 64 (fun i -> i)) in
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  Em.Reader.with_reader v (fun r -> while Em.Reader.has_next r do ignore (Em.Reader.next r) done);
  Tu.check_int "ios since" 4 (Em.Stats.ios_since ctx.Em.Ctx.stats snap)

let test_counted_comparator () =
  let ctx = Tu.ctx () in
  let cmp = Em.Ctx.counted ctx Tu.icmp in
  ignore (cmp 1 2);
  ignore (cmp 3 3);
  Tu.check_int "two comparisons" 2 ctx.Em.Ctx.stats.Em.Stats.comparisons

let test_linked_ctx_shares_meters () =
  let ctx = Tu.ctx ~mem:64 ~block:8 () in
  let pair_ctx : (int * int) Em.Ctx.t = Em.Ctx.linked ctx in
  let v = Em.Writer.with_writer pair_ctx (fun w -> Em.Writer.push w (1, 2)) in
  Tu.check_int "write counted on shared stats" 1 ctx.Em.Ctx.stats.Em.Stats.writes;
  Tu.check_int "pair vec length" 1 (Em.Vec.length v)

(* ---- streaming layer: linear-time scans ----

   A scan costs O(1) time and O(1) allocated words per element beyond its
   block payloads.  The gate is 8 words per element on a 4096-block vector
   (B = 16): a per-block copy of the N/B-entry block table alone would cost
   256. *)

let scan_words_per_elem what scan =
  let ctx : int Em.Ctx.t = Em.Ctx.create ~backend:Em.Backend.Sim (Tu.params ()) in
  let n = 4096 * 16 in
  let v = Tu.int_vec ctx (Array.init n Fun.id) in
  let sum = ref 0 in
  let w = Tu.words_allocated (fun () -> scan v sum) in
  Tu.check_int (what ^ ": every element delivered") (n * (n - 1) / 2) !sum;
  Tu.check_int (what ^ ": one read per block") 4096 ctx.Em.Ctx.stats.Em.Stats.reads;
  Em.Ctx.close ctx;
  let per_elem = w /. float_of_int n in
  if per_elem > 8. then
    Alcotest.failf "%s allocates %.1f words per element (gate: 8)" what per_elem

let test_scan_iter_linear () =
  scan_words_per_elem "Scan.iter" (fun v sum -> Emalg.Scan.iter (fun x -> sum := !sum + x) v)

let test_reader_take_linear () =
  scan_words_per_elem "Reader.take" (fun v sum ->
      Em.Reader.with_reader v (fun r ->
          while Em.Reader.has_next r do
            Array.iter (fun x -> sum := !sum + x) (Em.Reader.take r 24)
          done))

(* The forecasting calls a K-way merge makes at every refill. *)
let test_reader_forecast_linear () =
  scan_words_per_elem "prefetch_next/next_disk loop" (fun v sum ->
      Em.Reader.with_reader v (fun r ->
          while Em.Reader.has_next r do
            if Em.Reader.pending_io r then begin
              ignore (Em.Reader.next_disk r : int option);
              ignore (Em.Reader.prefetch_next r : bool);
              ignore (Em.Reader.prefetch_next r : bool)
            end;
            sum := !sum + Em.Reader.next r
          done))

(* ---- streaming layer: fast paths against a model ---- *)

type reader_op =
  | Peek
  | Next
  | Take of int
  | Prefetch_next
  | Buffered_blocks
  | Last_buffered
  | Next_disk
  | Pending_io

let gen_reader_op =
  QCheck2.Gen.(
    frequency
      [
        (6, return Next);
        (2, return Peek);
        (2, map (fun k -> Take k) (int_range 0 40));
        (2, return Prefetch_next);
        (1, return Buffered_blocks);
        (1, return Last_buffered);
        (1, return Next_disk);
        (1, return Pending_io);
      ])

let stream_block = 8

let traced_stream_ctx ~disks ~mem =
  let trace = Em.Trace.create () in
  let sink, events = Em.Trace.collector () in
  Em.Trace.add_sink trace sink;
  let ctx : int Em.Ctx.t = Em.Ctx.create ~trace ~disks (Em.Params.create ~mem ~block:stream_block) in
  (ctx, events)

(* Random interleavings deliver the input in order, read every block exactly
   once and in block-table order, keep the ledger within M, and leave it
   where it was once the reader is closed. *)
let prop_reader_model =
  Tu.qcheck_case ~count:300 "reader: random interleavings match the sequential model"
    QCheck2.Gen.(
      quad
        (pair (oneofl [ 1; 2; 4 ]) (oneofl [ 0; 1; 3 ]))
        (oneofl [ 32; 128 ])
        (int_range 0 200)
        (list_size (int_range 0 120) gen_reader_op))
    (fun ((disks, prefetch), mem, n, ops) ->
      let ctx, events = traced_stream_ctx ~disks ~mem in
      let stats = ctx.Em.Ctx.stats in
      let v = Tu.int_vec ctx (Array.init n Fun.id) in
      let nblocks = Em.Vec.num_blocks v in
      let before = stats.Em.Stats.mem_in_use in
      let r = Em.Reader.open_vec ~prefetch v in
      let pos = ref 0 in
      let expect what b = if not b then QCheck2.Test.fail_reportf "%s (pos %d)" what !pos in
      let at_end f = match f () with _ -> false | exception Invalid_argument _ -> true in
      List.iter
        (fun op ->
          (match op with
          | Peek ->
              if !pos < n then expect "peek" (Em.Reader.peek r = !pos)
              else expect "peek at end" (at_end (fun () -> Em.Reader.peek r))
          | Next ->
              if !pos < n then begin
                expect "next" (Em.Reader.next r = !pos);
                incr pos
              end
              else expect "next at end" (at_end (fun () -> Em.Reader.next r))
          | Take k ->
              let got = Em.Reader.take r k in
              expect "take" (got = Array.init (min k (n - !pos)) (fun i -> !pos + i));
              pos := !pos + Array.length got
          | Prefetch_next -> ignore (Em.Reader.prefetch_next r : bool)
          | Buffered_blocks ->
              let d = Em.Reader.buffered_blocks r in
              expect "buffered_blocks" (d >= 0 && d <= nblocks)
          | Last_buffered -> (
              match Em.Reader.last_buffered r with
              | None -> ()
              | Some x ->
                  (* A consumed partial final block stays buffered until close. *)
                  expect "last_buffered"
                    ((x >= !pos && (x + 1) mod stream_block = 0) || x = n - 1))
          | Next_disk -> (
              match Em.Reader.next_disk r with
              | None -> ()
              | Some d -> expect "next_disk" (d >= 0 && d < disks))
          | Pending_io -> if Em.Reader.pending_io r then expect "pending_io" (Em.Reader.has_next r));
          expect "remaining" (Em.Reader.remaining r = n - !pos);
          expect "ledger within M" (stats.Em.Stats.mem_in_use <= mem))
        ops;
      while Em.Reader.has_next r do
        expect "drain" (Em.Reader.next r = !pos);
        incr pos
      done;
      Em.Reader.close r;
      let reads =
        List.filter_map
          (fun e -> if e.Em.Trace.op = Em.Trace.Read then Some e.Em.Trace.block else None)
          (events ())
      in
      let ids = List.init nblocks (Em.Vec.block_id v) in
      let rec ascending = function a :: (b :: _ as rest) -> a < b && ascending rest | _ -> true in
      expect "all delivered" (!pos = n);
      let show l = String.concat "," (List.map string_of_int l) in
      expect ("reads " ^ show reads ^ " ids " ^ show ids) (reads = ids && ascending ids);
      expect "reads = blocks" (stats.Em.Stats.reads = nblocks);
      expect "ledger restored" (stats.Em.Stats.mem_in_use = before);
      Em.Ctx.close ctx;
      true)

(* A write-behind writer stages the next block while earlier payloads wait
   in its queue: the contents check fails if a later push ever reaches a
   queued payload.  Covers partial final blocks and [abandon] mid-block. *)
let prop_writer_model =
  Tu.qcheck_case ~count:300 "writer: staged payloads survive write-behind and abandon"
    QCheck2.Gen.(
      quad
        (pair (oneofl [ 1; 2; 4 ]) (oneofl [ 0; 1; 3 ]))
        (oneofl [ 32; 128 ])
        (list_size (int_range 0 30) (int_range 0 12))
        bool)
    (fun ((disks, write_behind), mem, chunks, abandon) ->
      let ctx, _ = traced_stream_ctx ~disks ~mem in
      let stats = ctx.Em.Ctx.stats in
      let before = stats.Em.Stats.mem_in_use in
      let w = Em.Writer.create ~write_behind ctx in
      let n = ref 0 in
      List.iteri
        (fun i k ->
          let a = Array.init k (fun j -> !n + j) in
          if i mod 2 = 0 then Em.Writer.push_array w a else Array.iter (Em.Writer.push w) a;
          n := !n + k)
        chunks;
      let n = !n in
      let ok =
        Em.Writer.length w = n
        &&
        if abandon then begin
          Em.Writer.abandon w;
          Em.Device.live_blocks ctx.Em.Ctx.dev = 0
        end
        else begin
          let v = Em.Writer.finish w in
          Em.Vec.Oracle.to_array v = Array.init n Fun.id
          && stats.Em.Stats.writes = Em.Vec.num_blocks v
          && Em.Vec.num_blocks v = (n + stream_block - 1) / stream_block
        end
      in
      let drained = stats.Em.Stats.mem_in_use = before && stats.Em.Stats.mem_peak <= mem in
      Em.Ctx.close ctx;
      ok && drained)

let suite =
  [
    Alcotest.test_case "params: valid" `Quick test_params_valid;
    Alcotest.test_case "params: invalid" `Quick test_params_invalid;
    Alcotest.test_case "params: blocks_of_elems" `Quick test_blocks_of_elems;
    Alcotest.test_case "device: roundtrip + counters" `Quick test_device_roundtrip;
    Alcotest.test_case "device: copy semantics" `Quick test_device_copy_semantics;
    Alcotest.test_case "device: free recycles ids" `Quick test_device_free_recycles;
    Alcotest.test_case "device: double free detected" `Quick test_device_double_free;
    Alcotest.test_case "device: bad block ids" `Quick test_device_bad_block_id;
    Alcotest.test_case "device: oversize payload" `Quick test_device_oversize_payload;
    Alcotest.test_case "device: Oracle is unmetered and untraced" `Quick
      test_device_oracle_unmetered;
    Alcotest.test_case "ctx: measured brackets costs" `Quick test_ctx_measured;
    Alcotest.test_case "mem: charge/release/peak" `Quick test_mem_ledger;
    Alcotest.test_case "mem: overflow raises" `Quick test_mem_ledger_overflow;
    Alcotest.test_case "mem: typed misuse errors" `Quick test_mem_ledger_misuse;
    Alcotest.test_case "mem: with_words releases on raise" `Quick
      test_mem_with_words_releases_on_raise;
    Alcotest.test_case "vec: of_array is free" `Quick test_vec_of_array_costs_nothing;
    Alcotest.test_case "vec: roundtrip" `Quick test_vec_roundtrip;
    Alcotest.test_case "vec: Oracle.get" `Quick test_vec_oracle_get;
    Alcotest.test_case "vec: concat_free" `Quick test_vec_concat_free;
    Alcotest.test_case "reader: sequential + I/O count" `Quick test_reader_sequential;
    Alcotest.test_case "reader: charges buffer" `Quick test_reader_charges_buffer;
    Alcotest.test_case "reader: take" `Quick test_reader_take;
    Alcotest.test_case "writer: roundtrip + I/O count" `Quick test_writer_roundtrip;
    Alcotest.test_case "writer: empty" `Quick test_writer_empty;
    Alcotest.test_case "writer: abandon frees blocks" `Quick test_writer_abandon_frees;
    Alcotest.test_case "stats: snapshot deltas" `Quick test_stats_snapshot;
    Alcotest.test_case "ctx: counted comparator" `Quick test_counted_comparator;
    Alcotest.test_case "ctx: linked shares meters" `Quick test_linked_ctx_shares_meters;
    Alcotest.test_case "scan: Scan.iter allocates O(1) words per element" `Quick
      test_scan_iter_linear;
    Alcotest.test_case "scan: Reader.take allocates O(1) words per element" `Quick
      test_reader_take_linear;
    Alcotest.test_case "scan: forecasting loop allocates O(1) words per element" `Quick
      test_reader_forecast_linear;
    prop_reader_model;
    prop_writer_model;
  ]
