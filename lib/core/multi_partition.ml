(* Multi-partition; see the interface. *)

(* Output partitions are produced strictly in order, so a single writer is
   open at any moment.  Two output modes: [Separate] materialises one vector
   per partition (convenient; costs up to one partial block per partition)
   from the open writer and [pieces], whole-block vectors a distribution
   wrote for it; [Packed] streams everything into one caller-provided
   writer, partitions sharing blocks — the paper's linked-list format,
   needed to meet the bound when partitions are smaller than a block.  The
   state counts the elements out ([pos]) against the next bound ([bound],
   [max_int] once [next] has none left) and cuts as they meet. *)
type 'a parts = {
  mutable finished : 'a Em.Vec.t list; (* newest first *)
  mutable pieces : 'a Em.Vec.t list;
}

type 'a mode = Separate of 'a parts | Packed

type 'a out_state = {
  out_ctx : 'a Em.Ctx.t;
  mutable writer : 'a Em.Writer.t;
  mode : 'a mode;
  mutable next : unit -> int;
  mutable pos : int;
  mutable bound : int;
}

(* Output writers queue up to D - 1 filled blocks so leaf emission drains in
   parallel windows on a multi-disk machine (a no-op queue at D = 1). *)
let out_writer ctx = Em.Writer.create ~write_behind:(Em.Ctx.disks ctx - 1) ctx

let out_state ctx writer mode =
  { out_ctx = ctx; writer; mode; next = (fun () -> max_int); pos = 0; bound = max_int }

(* Close the current partition: the open writer's vector goes last, so only
   it may end in a partial block. *)
let close_part st m =
  let w = Em.Writer.finish st.writer in
  let part = match m.pieces with [] -> w | ps -> Em.Vec.concat_free (List.rev_append ps [ w ]) in
  m.pieces <- [];
  m.finished <- part :: m.finished

(* [len] more elements went out: cut if a bound falls right after them. *)
let advance st len =
  st.pos <- st.pos + len;
  if st.pos = st.bound then begin
    (match st.mode with
    | Separate m ->
        close_part st m;
        st.writer <- out_writer st.out_ctx
    | Packed -> ());
    st.bound <- st.next ()
  end

let push st e =
  Em.Writer.push st.writer e;
  advance st 1

(* Cut at the bounds [next] yields from here on. *)
let cut_at st next =
  st.next <- next;
  st.bound <- next ()

let reader_bounds br () = if Em.Reader.has_next br then Em.Reader.next br else max_int

(* Push [u]'s elements to the writer a block at a time, in a block of words
   the caller holds: a reader opened in the middle of a merge could find
   the merge's read-ahead holding every spare word. *)
let stream st u =
  let b = Em.Ctx.block_size (Em.Vec.ctx u) in
  for i = 0 to Em.Vec.num_blocks u - 1 do
    let block = Em.Vec.block_io u i in
    for j = 0 to min b (Em.Vec.length u - (i * b)) - 1 do
      Em.Writer.push st.writer block.(j)
    done
  done

(* Append [v] (consumed) to the current partition.  [Packed] streams it
   through the writer.  [Separate] keeps its whole blocks as a piece and
   pushes only its partial last block, so no pass goes over its data. *)
let append st v =
  let len = Em.Vec.length v in
  (match st.mode with
  | Packed -> Fun.protect ~finally:(fun () -> Em.Vec.free v) (fun () -> stream st v)
  | Separate m ->
      let ctx = Em.Vec.ctx v in
      let b = Em.Ctx.block_size ctx in
      let full = len / b and ids = Em.Vec.block_ids v in
      if full > 0 then m.pieces <- Em.Vec.of_blocks ctx (Array.sub ids 0 full) (full * b) :: m.pieces;
      if len > full * b then begin
        let tail = Em.Vec.of_blocks ctx [| ids.(full) |] (len - (full * b)) in
        Fun.protect ~finally:(fun () -> Em.Vec.free tail) (fun () -> stream st tail)
      end);
  advance st len

(* One pass over the bounds against the bucket prefix sums [start], then
   one over the buckets.  A bucket is cut if a bound lies strictly inside
   it; consecutive uncut buckets of one part form one interior.  Sets
   [code.(j)] to [2i] for a bucket of interior [i] and to [2i + 1] for a cut
   bucket that follows [i] interiors; returns the interior count. *)
let plan start code bounds =
  let j = ref 0 in
  Emalg.Scan.iter
    (fun r ->
      while start.(!j + 1) < r do
        incr j
      done;
      if r < start.(!j + 1) then code.(!j) <- code.(!j) lor 1
      else (* a part starts at bucket j + 1 *) code.(!j + 1) <- code.(!j + 1) lor 2)
    bounds;
  let ni = ref 0 in
  Array.iteri
    (fun j c ->
      if c land 1 = 1 then code.(j) <- (2 * !ni) + 1
      else begin
        if j = 0 || code.(j - 1) land 1 = 1 || c land 2 = 2 then incr ni;
        code.(j) <- 2 * (!ni - 1)
      end)
    code;
  !ni

(* Above one merge pass, with at most as many parts as writers: one
   splitter sample and one counting scan give every bucket its rank range,
   [plan] codes the buckets, and one pass writes every interior to a vector
   of its own and every cut bucket's element, tagged with the number of
   interiors before it, to one boundary vector.  The splitters and codes
   are released; then the boundary is sorted (stable, so ties stay
   positional) and its elements go out as the last merge passes them, each
   interior appended whole just before the first boundary element above
   it. *)
let by_counting cmp st v ~bounds =
  let ctx = Em.Vec.ctx v in
  let n = Em.Vec.length v in
  let tcmp = Emalg.Order.tagged cmp in
  let splitters =
    Emalg.Sample_splitters.find_tagging cmp v ~k:(Emalg.Sample_splitters.splitter_count ctx ~n)
  in
  let nsplit = Array.length splitters in
  let interiors, boundary =
    Em.Ctx.with_words ctx ((2 * nsplit) + nsplit + 1) (fun () ->
        let code = Array.make (nsplit + 1) 0 in
        let ninteriors =
          Em.Ctx.with_words ctx (nsplit + 2) (fun () ->
              plan (Emalg.Distribute.bucket_starts tcmp splitters v) code bounds)
        in
        let boundary = Em.Writer.create (Em.Ctx.linked ctx) in
        match
          Emalg.Distribute.pass ctx ~nwriters:ninteriors (fun push ->
              let pos = ref (-1) in
              Emalg.Scan.iter
                (fun e ->
                  incr pos;
                  let c = code.(Emalg.Distribute.bucket_index tcmp splitters (e, !pos)) in
                  if c land 1 = 0 then push (c lsr 1) e else Em.Writer.push boundary (e, c lsr 1))
                v)
        with
        | interiors -> (
            match Em.Writer.finish boundary with
            | boundary -> (interiors, boundary)
            | exception e ->
                Em.Writer.abandon boundary;
                Array.iter Em.Vec.free interiors;
                raise e)
        | exception e ->
            Em.Writer.abandon boundary;
            raise e)
  in
  let next = ref 0 in
  (* Append the interiors below [upto]. *)
  let interiors_below upto =
    while !next < upto do
      incr next;
      append st interiors.(!next - 1)
    done
  in
  let emit merged =
    Em.Reader.with_reader bounds (fun br ->
        cut_at st (reader_bounds br);
        merged (fun (e, t) ->
            interiors_below t;
            push st e);
        interiors_below (Array.length interiors))
  in
  match
    (* The block [append] reads an interior through. *)
    Em.Ctx.with_words ctx (Em.Ctx.block_size ctx) (fun () ->
        if Em.Vec.length boundary = 0 then emit ignore
        else Emalg.External_sort.with_sorted (fun (x, _) (y, _) -> cmp x y) boundary emit)
  with
  | () -> Em.Vec.free boundary
  | exception e ->
      Em.Vec.free boundary;
      for i = !next to Array.length interiors - 1 do
        Em.Vec.free interiors.(i)
      done;
      raise e

(* The driver: route everything in [v] into [st], cutting at [bounds]
   (strictly increasing in (0, length v)).  The output writer is open, so
   [one_merge] sees its buffer. *)
let run cmp st v ~bounds =
  let ctx = Em.Vec.ctx v in
  let n = Em.Vec.length v in
  let nbounds = Em.Vec.length bounds in
  let base = Emalg.Layout.big_load ctx and b = Em.Ctx.block_size ctx in
  let free = Em.Ctx.mem_capacity ctx - ctx.Em.Ctx.stats.Em.Stats.mem_in_use in
  if nbounds = 0 then
    Em.Phase.with_label ctx "leaf-emit" (fun () -> Emalg.Scan.iter (Em.Writer.push st.writer) v)
  else if n + nbounds <= base then
    Em.Phase.with_label ctx "leaf-emit" (fun () ->
        Em.Ctx.with_words ctx nbounds (fun () ->
            let local_bounds = Emalg.Scan.array_of_vec_io bounds in
            Emalg.Scan.with_loaded v (fun a ->
                (* Stable sort = positional tie-breaking, no tags needed. *)
                Emalg.Mem_sort.sort_on ctx cmp a;
                let i = ref (-1) in
                cut_at st (fun () ->
                    incr i;
                    if !i < nbounds then local_bounds.(!i) else max_int);
                Array.iter (push st) a)))
  else if
    Emalg.External_sort.one_merge ctx n
    (* The writers left beside the counting step's 3k words of splitters and
       bucket codes and one reader: K + 1 must fit. *)
    || (nbounds + 3) * b > free - (3 * Emalg.Sample_splitters.splitter_count ctx ~n)
  then
    (* Sort and cut as the bounds stream past the last merge: four scans
       when the input sorts in one merge pass, and below a distribution
       that must run twice when the parts outnumber its writers.  Stable,
       so ties stay positional. *)
    Emalg.External_sort.with_sorted cmp v (fun merged ->
        Em.Reader.with_reader bounds (fun br ->
            cut_at st (reader_bounds br);
            merged (push st)))
  else by_counting cmp st v ~bounds

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

let partition cmp v ~bounds =
  let ctx = Em.Vec.ctx v in
  Emalg.Layout.require_min_geometry ctx;
  check_bounds v bounds;
  let parts = { finished = []; pieces = [] } in
  let st = out_state ctx (out_writer ctx) (Separate parts) in
  match
    run cmp st v ~bounds;
    close_part st parts;
    Array.of_list (List.rev parts.finished)
  with
  | parts ->
      if Array.length parts <> Em.Vec.length bounds + 1 then
        invalid_arg "Multi_partition.partition: internal error (partition count)";
      parts
  | exception e ->
      (* A failed I/O mid-partition must not leak the open writer's buffer
         words or the already-finished partitions' blocks. *)
      List.iter Em.Vec.free (parts.pieces @ parts.finished);
      (try Em.Writer.abandon st.writer with Invalid_argument _ -> ());
      raise e

let partition_packed_into cmp v ~bounds writer =
  let ctx = Em.Vec.ctx v in
  Emalg.Layout.require_min_geometry ctx;
  check_bounds v bounds;
  run cmp (out_state ctx writer Packed) v ~bounds

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
