let max_fanout ctx =
  let m = Em.Ctx.mem_capacity ctx and b = Em.Ctx.block_size ctx in
  max 1 ((m - b) / (b + 1))

(* Least index [i] with [e <= pivots.(i)], or [Array.length pivots] if none:
   binary search over the sorted pivot array. *)
let bucket_index cmp pivots e =
  let n = Array.length pivots in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp e pivots.(mid) <= 0 then hi := mid else lo := mid + 1
  done;
  !lo

(* Bucket [j] of the sorted tagged [splitters] holds the pairs [p] with
   [splitters.(j-1) < p <= splitters.(j)]; [start] has [nsplit + 2]
   entries. *)
let bucket_starts tcmp splitters v =
  let nsplit = Array.length splitters in
  let start = Array.make (nsplit + 2) 0 in
  Em.Phase.with_label (Em.Vec.ctx v) "bucket-count" (fun () ->
      let pos = ref (-1) in
      Scan.iter
        (fun e ->
          incr pos;
          let j = bucket_index tcmp splitters (e, !pos) + 1 in
          start.(j) <- start.(j) + 1)
        v);
  for j = 1 to nsplit + 1 do
    start.(j) <- start.(j) + start.(j - 1)
  done;
  start

let check_sorted cmp pivots =
  for i = 1 to Array.length pivots - 1 do
    if cmp pivots.(i - 1) pivots.(i) > 0 then
      invalid_arg "Distribute.by_pivots: pivots are not sorted"
  done

let by_pivots cmp ~pivots v =
  let ctx = Em.Vec.ctx v in
  let nbuckets = Array.length pivots + 1 in
  if nbuckets > max_fanout ctx then
    invalid_arg "Distribute.by_pivots: too many buckets for the memory budget";
  check_sorted cmp pivots;
  let writers = Array.init nbuckets (fun _ -> Em.Writer.create ctx) in
  (match
     Em.Phase.with_label ctx "distribute" (fun () ->
         Scan.iter (fun e -> Em.Writer.push writers.(bucket_index cmp pivots e) e) v)
   with
  | () -> ()
  | exception e ->
      Array.iter Em.Writer.abandon writers;
      raise e);
  Array.map Em.Writer.finish writers

(* Fanout affordable right now, given what the ledger already carries
   (e.g. a caller-charged pivot array): one reader buffer plus [f] writer
   buffers must fit in the free memory. *)
let free_fanout ctx =
  let m = Em.Ctx.mem_capacity ctx and b = Em.Ctx.block_size ctx in
  let free = m - ctx.Em.Ctx.stats.Em.Stats.mem_in_use in
  max 1 ((free - b) / b)

let rec by_pivots_deep cmp ~pivots ~owned v =
  let ctx = Em.Vec.ctx v in
  let nbuckets = Array.length pivots + 1 in
  let fanout = min (max_fanout ctx) (free_fanout ctx) in
  if fanout < 2 then
    invalid_arg "Distribute.by_pivots_deep: memory too small for fanout 2";
  if nbuckets <= fanout then begin
    let buckets = by_pivots cmp ~pivots v in
    if owned then Em.Vec.free v;
    buckets
  end
  else begin
    (* Group the target buckets into [<= fanout] super-buckets of [stride]
       consecutive buckets each, distribute once, then recurse per group. *)
    let stride = (nbuckets + fanout - 1) / fanout in
    let nsuper_pivots =
      let full_groups = (nbuckets / stride) - (if nbuckets mod stride = 0 then 1 else 0) in
      full_groups
    in
    let super_pivots =
      Array.init nsuper_pivots (fun j -> pivots.(((j + 1) * stride) - 1))
    in
    let super = by_pivots cmp ~pivots:super_pivots v in
    if owned then Em.Vec.free v;
    let parts =
      Array.mapi
        (fun j sub ->
          let lo = j * stride in
          let hi = min (lo + stride) nbuckets in
          let sub_pivots = Array.sub pivots lo (hi - 1 - lo) in
          by_pivots_deep cmp ~pivots:sub_pivots ~owned:true sub)
        super
    in
    Array.concat (Array.to_list parts)
  end

let pass ctx ~nwriters iter =
  let writers = Array.init nwriters (fun _ -> Em.Writer.create ctx) in
  let runs = Array.make nwriters None in
  match
    Em.Phase.with_label ctx "distribute" (fun () -> iter (fun w x -> Em.Writer.push writers.(w) x));
    Array.iteri (fun c w -> runs.(c) <- Some (Em.Writer.finish w)) writers
  with
  | () -> Array.map Option.get runs
  | exception e ->
      Array.iteri
        (fun c w -> match runs.(c) with Some run -> Em.Vec.free run | None -> Em.Writer.abandon w)
        writers;
      raise e

let three_way cmp v ~pivot =
  let ctx = Em.Vec.ctx v in
  let less = Em.Writer.create ctx and greater = Em.Writer.create ctx in
  let equal_count = ref 0 in
  (match
     Scan.iter
       (fun e ->
         let c = cmp e pivot in
         if c < 0 then Em.Writer.push less e
         else if c > 0 then Em.Writer.push greater e
         else incr equal_count)
       v
   with
  | () -> ()
  | exception e ->
      Em.Writer.abandon less;
      Em.Writer.abandon greater;
      raise e);
  (Em.Writer.finish less, !equal_count, Em.Writer.finish greater)
