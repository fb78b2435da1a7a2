(* Multi-selection (Theorem 4); see the interface for the structure. *)

let batch_size ctx = Intermixed.max_groups ctx

(* Least index in the sorted int array [a] whose entry exceeds [x]. *)
let first_beyond a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) > x then hi := mid else lo := mid + 1
  done;
  !lo

(* The counting scan: bucket [j] of the sorted tagged [splitters] holds the
   pairs [p] with [splitters.(j-1) < p <= splitters.(j)].  Returns the
   prefix sums [start] ([nsplit + 2] entries): bucket [j] holds the
   positional ranks [start.(j) + 1 .. start.(j+1)]. *)
let bucket_starts tcmp splitters v =
  let nsplit = Array.length splitters in
  let bucket_of pair =
    let lo = ref 0 and hi = ref nsplit in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if tcmp pair splitters.(mid) <= 0 then hi := mid else lo := mid + 1
    done;
    !lo
  in
  let start = Array.make (nsplit + 2) 0 in
  Em.Phase.with_label (Em.Vec.ctx v) "bucket-count" (fun () ->
      let pos = ref (-1) in
      Emalg.Scan.iter
        (fun e ->
          incr pos;
          let j = bucket_of (e, !pos) + 1 in
          start.(j) <- start.(j) + 1)
        v);
  for j = 1 to nsplit + 1 do
    start.(j) <- start.(j) + start.(j - 1)
  done;
  start

(* Base case: at most [batch_size] ranks, given in memory (strictly
   increasing, already validated, re-based to this vector).  The rank array
   the caller holds is covered by Intermixed's headroom discount.  The
   in-memory threshold leaves room for the general case's stream buffers
   and rank arrays (up to four blocks plus a few rank batches).

   Above it, [Θ(M)] sample splitters cut the (key, position) order into
   buckets of at most [Sample_splitters.gap_bound] elements, and one
   counting scan gives every bucket its first rank.  D holds one copy of an
   element per rank in its bucket, and the rank's target is its rank within
   the bucket. *)
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
    let splitters =
      Emalg.Sample_splitters.find_tagging cmp v ~k:(min n (Emalg.Sample_splitters.max_k ctx))
    in
    let nsplit = Array.length splitters in
    let tcmp = Emalg.Order.tagged cmp in
    (* Charged: the targets through the intermixed selection; the splitters,
       the prefix array and the rank routing until D is built. *)
    Em.Ctx.with_words ctx kcount (fun () ->
        let targets = Array.make kcount 0 in
        let d =
          Em.Ctx.with_words ctx ((2 * nsplit) + (nsplit + 2) + ((2 * kcount) + 1)) (fun () ->
              let start = bucket_starts tcmp splitters v in
              (* The target buckets (those holding a rank), increasing: the
                 ranks of target [t] are [ranks.(first.(t)) ..
                 ranks.(first.(t+1) - 1)]. *)
              let tb = Array.make kcount 0 and first = Array.make (kcount + 1) 0 in
              let ntb = ref 0 in
              Array.iteri
                (fun i r ->
                  let j = first_beyond start (r - 1) - 1 in
                  if !ntb = 0 || tb.(!ntb - 1) <> j then begin
                    tb.(!ntb) <- j;
                    first.(!ntb) <- i;
                    incr ntb
                  end;
                  targets.(i) <- r - start.(j))
                ranks;
              let ntb = !ntb in
              first.(ntb) <- kcount;
              (* Target of a pair, or -1: binary search over the target
                 buckets' upper splitters, then one lower-splitter check,
                 skipped when the previous target bucket is adjacent (the
                 search already placed the pair above its upper splitter). *)
              let target_of pair =
                let lo = ref 0 and hi = ref ntb in
                while !lo < !hi do
                  let mid = (!lo + !hi) / 2 in
                  let j = tb.(mid) in
                  if j = nsplit || tcmp pair splitters.(j) <= 0 then hi := mid
                  else lo := mid + 1
                done;
                let t = !lo in
                if t = ntb then -1
                else
                  let j = tb.(t) in
                  if j = 0 || (t > 0 && tb.(t - 1) = j - 1) || tcmp pair splitters.(j - 1) > 0
                  then t
                  else -1
              in
              let dctx : ('a * int) Em.Ctx.t = Em.Ctx.linked ctx in
              let pos = ref (-1) in
              Em.Writer.with_writer dctx (fun w ->
                  Emalg.Scan.iter
                    (fun e ->
                      incr pos;
                      let t = target_of (e, !pos) in
                      if t >= 0 then
                        for i = first.(t) to first.(t + 1) - 1 do
                          Em.Writer.push w (e, i)
                        done)
                    v))
        in
        let selected = Intermixed.select cmp d ~targets in
        Em.Vec.free d;
        selected)
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
