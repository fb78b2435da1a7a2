(* Multi-selection (Theorem 4); see the interface for the structure. *)

let batch_size ctx = Intermixed.max_groups ctx

(* Base case: at most [batch_size] ranks, given in memory (strictly
   increasing, already validated, re-based to this vector).  The rank/target
   arrays the caller holds are covered by Intermixed's headroom discount.
   The in-memory threshold leaves room for the general case's stream buffers
   and rank arrays (up to four blocks plus a few rank batches). *)
let base_case cmp v ranks =
  let ctx = Em.Vec.ctx v in
  let n = Em.Vec.length v in
  let kcount = Array.length ranks in
  if kcount = 0 then [||]
  else if n <= Emalg.Layout.big_load ctx then
    Emalg.Scan.with_loaded v (fun a ->
        (* Stable sort = positional tie-breaking. *)
        Emalg.Mem_sort.sort cmp a;
        Array.map (fun r -> a.(r - 1)) ranks)
  else begin
    let tagged_splitters, spacing = Quantile.Mem_splitters.memory_splitters_tagged cmp v in
    let nsplit = Array.length tagged_splitters in
    let tcmp = Emalg.Order.tagged cmp in
    (* Bucket of a (key, position) pair: least splitter index it is <= of. *)
    let bucket_of pair =
      let lo = ref 0 and hi = ref nsplit in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if tcmp pair tagged_splitters.(mid) <= 0 then hi := mid else lo := mid + 1
      done;
      !lo
    in
    (* Ranks living in bucket j occupy the half-open index range
       [first_rank_beyond (j * spacing), first_rank_beyond ((j+1) * spacing)). *)
    let first_rank_beyond threshold =
      let lo = ref 0 and hi = ref kcount in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if ranks.(mid) > threshold then hi := mid else lo := mid + 1
      done;
      !lo
    in
    (* Build D while the splitter array is charged; release it before the
       intermixed selection runs (it only needs D and the targets). *)
    let d =
      Em.Ctx.with_words ctx (2 * nsplit) (fun () ->
          let dctx : ('a * int) Em.Ctx.t = Em.Ctx.linked ctx in
          let pos = ref (-1) in
          Em.Writer.with_writer dctx (fun w ->
              Emalg.Scan.iter
                (fun e ->
                  incr pos;
                  let j = bucket_of (e, !pos) in
                  let lo = first_rank_beyond (j * spacing) in
                  let hi = first_rank_beyond ((j + 1) * spacing) in
                  for i = lo to hi - 1 do
                    Em.Writer.push w (e, i)
                  done)
                v))
    in
    let targets = Array.map (fun r -> r - (((r - 1) / spacing) * spacing)) ranks in
    let selected =
      Em.Ctx.with_words ctx kcount (fun () -> Intermixed.select cmp d ~targets)
    in
    Em.Vec.free d;
    selected
  end

let check_ranks v ranks =
  let n = Em.Vec.length v in
  let prev = ref 0 in
  Emalg.Scan.iter
    (fun r ->
      if r <= !prev || r > n then
        invalid_arg
          "Multi_select: ranks must be strictly increasing in [1, length v]";
      prev := r)
    ranks

let select_vec cmp v ~ranks =
  let ctx = Em.Vec.ctx v in
  Emalg.Layout.require_min_geometry ctx;
  check_ranks v ranks;
  let kcount = Em.Vec.length ranks in
  let m = batch_size ctx in
  if kcount <= m then
    Em.Ctx.with_words ctx kcount (fun () ->
        let ranks_arr = Emalg.Scan.array_of_vec_io ranks in
        let results = base_case cmp v ranks_arr in
        Em.Writer.with_writer ctx (fun w -> Em.Writer.push_array w results))
  else begin
    (* General case: multi-partition at every m-th rank, then solve a base
       case inside each partition.  The partition boundary ranks are exactly
       the last rank of each batch, so offsets need no extra storage. *)
    let ictx : int Em.Ctx.t = Em.Ctx.linked ctx in
    let g = (kcount + m - 1) / m in
    let bounds =
      Em.Writer.with_writer ictx (fun w ->
          let idx = ref 0 in
          Emalg.Scan.iter
            (fun r ->
              incr idx;
              if !idx mod m = 0 && !idx < kcount then Em.Writer.push w r)
            ranks)
    in
    let partitions = Multi_partition.partition cmp v ~bounds in
    if Array.length partitions <> g then
      invalid_arg "Multi_select: internal error (batch count)";
    Em.Vec.free bounds;
    let out = Em.Writer.create ctx in
    let offset = ref 0 in
    Em.Reader.with_reader ranks (fun rr ->
        Array.iter
          (fun part ->
            let batch = Em.Reader.take rr m in
            Em.Ctx.with_words ctx (2 * Array.length batch) (fun () ->
                let rebased = Array.map (fun r -> r - !offset) batch in
                let results = base_case cmp part rebased in
                Array.iter (Em.Writer.push out) results;
                offset := batch.(Array.length batch - 1));
            Em.Vec.free part)
          partitions);
    Em.Writer.finish out
  end

let select cmp v ~ranks =
  let ctx = Em.Vec.ctx v in
  let ictx : int Em.Ctx.t = Em.Ctx.linked ctx in
  let ranks_vec = Emalg.Scan.vec_of_array_io ictx ranks in
  let out = select_vec cmp v ~ranks:ranks_vec in
  let results = Emalg.Scan.array_of_vec_io out in
  Em.Vec.free out;
  Em.Vec.free ranks_vec;
  results
