(* Distribution-sort multi-partition; see the interface.  The recursion
   works on (key, position) pairs for distinctness and strips the tags as it
   emits elements into the per-partition writers. *)

let log_src = Logs.Src.create "core.multi_partition" ~doc:"Multi-partition recursion"

module Log = (val Logs.src_log log_src : Logs.LOG)

let seq_cmp = Emalg.Order.tagged

(* Output partitions are produced strictly in order, so a single writer is
   open at any moment.  Two output modes: [Separate] materialises one vector
   per partition (convenient; costs up to one partial block per partition);
   [Packed] streams everything into one caller-provided writer, partitions
   sharing blocks — the paper's linked-list format, needed to meet the bound
   when partitions are smaller than a block. *)
type 'a mode =
  | Separate of { mutable finished : 'a Em.Vec.t list (* newest first *) }
  | Packed  (* cuts are implied by the bounds the caller passed *)

type 'a out_state = {
  out_ctx : 'a Em.Ctx.t;
  mutable writer : 'a Em.Writer.t;
  mode : 'a mode;
}

(* Output writers queue up to D - 1 filled blocks so leaf emission drains in
   parallel windows on a multi-disk machine (a no-op queue at D = 1). *)
let out_writer ctx = Em.Writer.create ~write_behind:(Em.Ctx.disks ctx - 1) ctx

let out_create ctx = { out_ctx = ctx; writer = out_writer ctx; mode = Separate { finished = [] } }
let out_create_packed ctx writer = { out_ctx = ctx; writer; mode = Packed }
let out_push st key = Em.Writer.push st.writer key

let out_cut st =
  match st.mode with
  | Separate m ->
      m.finished <- Em.Writer.finish st.writer :: m.finished;
      st.writer <- out_writer st.out_ctx
  | Packed -> ()

let out_finish st =
  match st.mode with
  | Separate m ->
      m.finished <- Em.Writer.finish st.writer :: m.finished;
      Array.of_list (List.rev m.finished)
  | Packed -> invalid_arg "Multi_partition: out_finish on a packed stream"


(* Emit a sorted leaf: walk it, cutting at each local bound (local bounds
   are 1-based ranks within the leaf; a bound equal to the leaf size cuts
   right after its last element).  [proj] extracts the raw key to emit. *)
let emit_sorted_leaf ~proj st items local_bounds =
  let next = ref 0 in
  let nbounds = Array.length local_bounds in
  Array.iteri
    (fun i p ->
      out_push st (proj p);
      while !next < nbounds && local_bounds.(!next) = i + 1 do
        out_cut st;
        incr next
      done)
    items;
  if !next <> nbounds then
    invalid_arg "Multi_partition: internal error (bound beyond leaf)"

(* Split a sorted stream of local bounds into per-bucket streams, re-based
   against the bucket's cumulative start.  Bounds equal to a cumulative
   boundary land in the earlier bucket (local bound = bucket size). *)
let route_bounds ictx bounds_vec cumulative =
  let nbuckets = Array.length cumulative in
  let finished = ref [] (* newest first *) and current = ref 0 in
  let writer = ref (Em.Writer.create ictx) in
  let next_bucket () =
    finished := Em.Writer.finish !writer :: !finished;
    incr current;
    writer := Em.Writer.create ictx
  in
  Emalg.Scan.iter
    (fun r ->
      while r > cumulative.(!current) do
        next_bucket ()
      done;
      Em.Writer.push !writer (if !current = 0 then r else r - cumulative.(!current - 1)))
    bounds_vec;
  while !current < nbuckets - 1 do
    next_bucket ()
  done;
  Array.of_list (List.rev (Em.Writer.finish !writer :: !finished))

(* Route the bounds of freshly split buckets and recurse in order.  Buckets
   hold (key, position) pairs; [recurse] consumes each (bucket, bounds). *)
let split_and_recurse ctx buckets bounds_vec ~free_bounds recurse =
  let nbuckets = Array.length buckets in
  let ictx = Em.Vec.ctx bounds_vec in
  let bucket_bounds =
    Em.Ctx.with_words ctx nbuckets (fun () ->
        let cumulative = Array.make nbuckets 0 in
        let acc = ref 0 in
        Array.iteri
          (fun j b ->
            acc := !acc + Em.Vec.length b;
            cumulative.(j) <- !acc)
          buckets;
        route_bounds ictx bounds_vec cumulative)
  in
  if free_bounds then Em.Vec.free bounds_vec;
  Array.iteri (fun j b -> recurse b bucket_bounds.(j)) buckets

(* Recursion over tagged (key, position) buckets; consumes its inputs. *)
let rec go cmp ctx st tv bounds_vec =
  let kcmp = seq_cmp cmp in
  let n = Em.Vec.length tv in
  let nbounds = Em.Vec.length bounds_vec in
  let base = Emalg.Layout.big_load ctx in
  if nbounds = 0 then begin
    (* Entirely inside one output partition: stream it through. *)
    Em.Phase.with_label ctx "leaf-emit" (fun () ->
        Emalg.Scan.iter (fun (key, _) -> out_push st key) tv);
    Em.Vec.free tv;
    Em.Vec.free bounds_vec
  end
  else if n + nbounds <= base then begin
    Em.Phase.with_label ctx "leaf-emit" (fun () ->
        Em.Ctx.with_words ctx nbounds (fun () ->
            let local_bounds = Emalg.Scan.array_of_vec_io bounds_vec in
            Emalg.Scan.with_loaded tv (fun pairs ->
                Emalg.Mem_sort.sort kcmp pairs;
                emit_sorted_leaf ~proj:fst st pairs local_bounds)));
    Em.Vec.free tv;
    Em.Vec.free bounds_vec
  end
  else begin
    Log.debug (fun m -> m "level: n=%d interior-bounds=%d" n nbounds);
    let target = Emalg.Split_step.default_target ctx ~n in
    let buckets = Emalg.Split_step.split kcmp tv ~target_buckets:target in
    split_and_recurse ctx buckets bounds_vec ~free_bounds:true (go cmp ctx st)
  end

let check_bounds v bounds =
  let n = Em.Vec.length v in
  let prev = ref 0 in
  Emalg.Scan.iter
    (fun r ->
      if r <= !prev || r >= n then
        invalid_arg
          "Multi_partition.partition: bounds must be strictly increasing in (0, n)";
      prev := r)
    bounds

(* Shared driver: route everything into [st].  The output writer is open,
   so [one_merge] sees its buffer. *)
let run cmp st v ~bounds =
  let ctx = Em.Vec.ctx v in
  let n = Em.Vec.length v in
  let nbounds = Em.Vec.length bounds in
  let base = Emalg.Layout.big_load ctx in
  (* The first level works on the raw input (tagging inline where needed);
     deeper levels work on (key, position) pairs. *)
  if nbounds = 0 then
    Em.Phase.with_label ctx "leaf-emit" (fun () -> Emalg.Scan.iter (out_push st) v)
  else if n + nbounds <= base then
    Em.Phase.with_label ctx "leaf-emit" (fun () ->
        Em.Ctx.with_words ctx nbounds (fun () ->
            let local_bounds = Emalg.Scan.array_of_vec_io bounds in
            Emalg.Scan.with_loaded v (fun a ->
                (* Stable sort = positional tie-breaking, no tags needed. *)
                Emalg.Mem_sort.sort cmp a;
                emit_sorted_leaf ~proj:(fun x -> x) st a local_bounds)))
  else if Emalg.External_sort.one_merge ctx n then
    (* Sort in one merge pass and cut as the bounds stream past: four
       scans, below the sampling, distribution and leaf passes.  Stable,
       so ties stay positional. *)
    Emalg.External_sort.with_one_merge cmp v (fun merged ->
        Em.Reader.with_reader bounds (fun br ->
            let pos = ref 0 and next = ref (Em.Reader.next br) in
            merged (fun e ->
                out_push st e;
                incr pos;
                if !pos = !next then begin
                  out_cut st;
                  if Em.Reader.has_next br then next := Em.Reader.next br
                end)))
  else begin
    let target = Emalg.Split_step.default_target ctx ~n in
    let buckets = Emalg.Split_step.split_tagging cmp v ~target_buckets:target in
    split_and_recurse ctx buckets bounds ~free_bounds:false (go cmp ctx st)
  end

let partition cmp v ~bounds =
  let ctx = Em.Vec.ctx v in
  Emalg.Layout.require_min_geometry ctx;
  check_bounds v bounds;
  let st = out_create ctx in
  match
    run cmp st v ~bounds;
    out_finish st
  with
  | parts ->
      if Array.length parts <> Em.Vec.length bounds + 1 then
        invalid_arg "Multi_partition.partition: internal error (partition count)";
      parts
  | exception e ->
      (* A failed I/O mid-partition must not leak the open writer's buffer
         words or the already-finished partitions' blocks. *)
      (match st.mode with
      | Separate m -> List.iter Em.Vec.free m.finished
      | Packed -> ());
      (try Em.Writer.abandon st.writer with Invalid_argument _ -> ());
      raise e

let partition_packed_into cmp v ~bounds writer =
  let ctx = Em.Vec.ctx v in
  Emalg.Layout.require_min_geometry ctx;
  check_bounds v bounds;
  let st = out_create_packed ctx writer in
  run cmp st v ~bounds

let bounds_of_sizes ictx sizes =
  Em.Writer.with_writer ictx (fun w ->
      let acc = ref 0 in
      let k = Array.length sizes in
      Array.iteri
        (fun i s ->
          if s < 1 then invalid_arg "Multi_partition: sizes must be >= 1";
          acc := !acc + s;
          if i < k - 1 then Em.Writer.push w !acc)
        sizes)

let partition_sizes cmp v ~sizes =
  let total = Array.fold_left ( + ) 0 sizes in
  if total <> Em.Vec.length v then
    invalid_arg "Multi_partition.partition_sizes: sizes must sum to the input length";
  let ictx = Em.Ctx.linked (Em.Vec.ctx v) in
  let bounds = bounds_of_sizes ictx sizes in
  Fun.protect ~finally:(fun () -> Em.Vec.free bounds) (fun () -> partition cmp v ~bounds)
