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
