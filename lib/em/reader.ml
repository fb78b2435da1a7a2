type 'a t = {
  vec : 'a Vec.t;
  b : int;  (* block size *)
  len : int;  (* vector length *)
  prefetch : int;  (* max extra blocks read ahead of the cursor *)
  mutable pos : int;  (* absolute index of the next element to deliver *)
  bufs : (int * 'a array) Queue.t;  (* (block_index, payload), consecutive *)
  mutable extra : int;  (* block buffers charged beyond the base B words *)
  mutable closed : bool;
  (* The front buffer's payload and the absolute range [\[cur_lo, cur_hi)]
     it holds, cached so [peek]/[next] inside a block are one bounds check
     and one array read.  Valid while [pos < cur_hi]; [trim] and [close]
     reset [cur_hi] to 0 whenever the front buffer leaves the queue. *)
  mutable cur : 'a array;
  mutable cur_lo : int;
  mutable cur_hi : int;
}

let open_vec ?(prefetch = 0) vec =
  if prefetch < 0 then invalid_arg "Reader.open_vec: negative prefetch";
  let ctx = Vec.ctx vec in
  let b = Ctx.block_size ctx in
  Mem.charge ctx.Ctx.params ctx.Ctx.stats b;
  {
    vec;
    b;
    len = Vec.length vec;
    prefetch;
    pos = 0;
    bufs = Queue.create ();
    extra = 0;
    closed = false;
    cur = [||];
    cur_lo = 0;
    cur_hi = 0;
  }

let check_open r = if r.closed then invalid_arg "Reader: already closed"
let has_next r = (not r.closed) && r.pos < r.len
let remaining r = max 0 (r.len - r.pos)

(* Drop (and un-charge) buffers the cursor has fully consumed.  The front
   buffer runs on the base B-word charge; only read-ahead buffers beyond it
   hold an [extra] charge, so releasing eagerly here restores the ledger to
   the base charge before the caller charges memory for whatever it does
   with the elements (exactly as an unbuffered reader would leave it). *)
let trim r =
  let b = r.b in
  let consumed = ref true in
  while !consumed && not (Queue.is_empty r.bufs) do
    let bi, _ = Queue.peek r.bufs in
    if r.pos / b > bi then begin
      ignore (Queue.pop r.bufs);
      r.cur_hi <- 0;
      if r.extra > 0 then begin
        let ctx = Vec.ctx r.vec in
        Mem.release ctx.Ctx.params ctx.Ctx.stats b;
        r.extra <- r.extra - 1
      end
    end
    else consumed := false
  done

(* Load the cursor's block plus up to [prefetch] blocks ahead, as one
   scheduling window so a D-disk machine overlaps them into few rounds.
   Read-ahead is opportunistic: each extra buffer is charged to the ledger
   up front and the batch shrinks (down to the single mandatory block) when
   the budget has no room, so [mem_peak <= M] holds whatever the caller has
   charged.  Blocks are read in ascending order — exactly the blocks an
   unbuffered reader would read, in the same order, one I/O each. *)
let refill r =
  let ctx = Vec.ctx r.vec in
  let b = r.b in
  let bi = r.pos / b in
  let want = min (1 + r.prefetch) (Vec.num_blocks r.vec - bi) in
  let extra = ref 0 in
  (try
     while !extra < want - 1 do
       Mem.charge ctx.Ctx.params ctx.Ctx.stats b;
       incr extra
     done
   with Mem.Memory_exceeded _ -> ());
  r.extra <- r.extra + !extra;
  let batch = 1 + !extra in
  (* Unmetered hint: on an async backend the batch's raw reads start on the
     worker domains now and the metered reads below consume the staged
     bytes; on a sync backend this is a no-op.  Counted I/Os, their order,
     and the window shape are identical either way. *)
  Device.prefetch ctx.Ctx.dev (Array.init batch (fun i -> Vec.block_id r.vec (bi + i)));
  let read_all () =
    for i = bi to bi + batch - 1 do
      Queue.push (i, Resilient.read ctx.Ctx.dev (Vec.block_id r.vec i)) r.bufs
    done
  in
  if batch > 1 then Stats.with_window ctx.Ctx.stats read_all else read_all ()

let ensure_loaded r =
  check_open r;
  if r.pos >= r.len then invalid_arg "Reader: end of input";
  trim r;
  if Queue.is_empty r.bufs then refill r

(* ---- forecasting support (merge-style consumers) ----

   A K-way merge at D > 1 wants to batch the refills of several runs into
   one scheduling window, but it cannot know which runs will fault next
   without looking at the data: the run whose {e last buffered} element is
   smallest is the one the merge will drain first (its whole buffer
   precedes every other run's last element).  These accessors expose just
   enough state for that classical forecasting rule without giving callers
   the buffers themselves. *)

let queue_back r = Queue.fold (fun _ buf -> Some buf) None r.bufs

(* Unconsumed read-ahead depth, in blocks.  A comparison-free proxy for the
   forecasting need-order: under roughly uniform consumption the run with the
   shallowest buffer queue is the one that will fault soonest.  Schedulers
   that order by this instead of by [last_buffered] keys do no element
   comparisons, keeping comparison counts independent of D. *)
let buffered_blocks r =
  if r.closed then 0
  else begin
    trim r;
    Queue.length r.bufs
  end

let last_buffered r =
  if r.closed then None
  else
    Option.map
      (fun (_, payload) -> payload.(Array.length payload - 1))
      (queue_back r)

(* First block that is neither consumed nor buffered, if any.  An exhausted
   reader has none, even when [take] consumed a partial final block without
   buffering it ([pos / b] would name that block again). *)
let next_unread_block r =
  if r.closed || r.pos >= r.len then None
  else begin
    let next =
      match queue_back r with
      | Some (bi, _) -> bi + 1
      | None -> r.pos / r.b
    in
    if next >= Vec.num_blocks r.vec then None else Some next
  end

let next_disk r =
  Option.map
    (fun bi ->
      let ctx = Vec.ctx r.vec in
      Device.disk_of_block ctx.Ctx.dev (Vec.block_id r.vec bi))
    (next_unread_block r)

let pending_io r =
  has_next r
  && r.pos >= r.cur_hi
  && begin
       trim r;
       Queue.is_empty r.bufs
     end

let prefetch_next r =
  check_open r;
  trim r;
  match next_unread_block r with
  | None -> false
  | Some bi ->
      let ctx = Vec.ctx r.vec in
      let charged =
        (* An empty queue means the block becomes the cursor's current
           buffer and rides on the base charge; anything further is
           read-ahead and must find room in the ledger (opportunistic —
           a refusal is not an error, the merge just reads it later). *)
        Queue.is_empty r.bufs
        ||
        match Mem.charge ctx.Ctx.params ctx.Ctx.stats r.b with
        | () ->
            r.extra <- r.extra + 1;
            true
        | exception Mem.Memory_exceeded _ -> false
      in
      charged
      && begin
           Queue.push (bi, Resilient.read ctx.Ctx.dev (Vec.block_id r.vec bi)) r.bufs;
           true
         end

(* Off the fast path: the cursor has left the cached block (or none is
   cached yet).  Load through the queue, then cache the front buffer, which
   after [ensure_loaded] is the cursor's block. *)
let peek_slow r =
  ensure_loaded r;
  let bi, payload = Queue.peek r.bufs in
  r.cur <- payload;
  r.cur_lo <- bi * r.b;
  r.cur_hi <- r.cur_lo + Array.length payload;
  payload.(r.pos - r.cur_lo)

let peek r =
  let pos = r.pos in
  if pos < r.cur_hi then Array.unsafe_get r.cur (pos - r.cur_lo) else peek_slow r

(* The cursor can only reach a multiple of [b] at the end of the cached
   block, so testing [cur_hi] first still trims at every block boundary and
   skips the division inside a block. *)
let next r =
  let e = peek r in
  let pos = r.pos + 1 in
  r.pos <- pos;
  if pos = r.cur_hi && pos mod r.b = 0 then trim r;
  e

(* Bulk delivery.  Already-buffered blocks are blitted out (each block is
   still read exactly once, even when the take spans block boundaries — the
   per-element peek/next path used to re-derive the boundary on every step);
   blocks wholly covered by the take are then read {e directly} into the
   result, batched D blocks to a scheduling window, without passing through
   the buffer queue at all.  Only a trailing partially-covered block is
   buffered (on the base charge), so a take never retains read-ahead charges
   past its own extent — crucial for callers like [Scan.chunks] that charge
   the returned load against the ledger next. *)
let take r n =
  if n < 0 then invalid_arg "Reader.take: negative count";
  check_open r;
  let count = min n (remaining r) in
  if count = 0 then [||]
  else begin
    let ctx = Vec.ctx r.vec in
    let b = r.b in
    let out = ref [||] in
    let filled = ref 0 in
    let blit_payload payload off k =
      if Array.length !out = 0 then out := Array.make count payload.(off);
      Array.blit payload off !out !filled k;
      r.pos <- r.pos + k;
      filled := !filled + k
    in
    trim r;
    (* Consume whatever is already buffered (contiguous from the cursor). *)
    while !filled < count && not (Queue.is_empty r.bufs) do
      let bi, payload = Queue.peek r.bufs in
      let off = r.pos - (bi * b) in
      let k = min (Array.length payload - off) (count - !filled) in
      blit_payload payload off k;
      trim r
    done;
    if !filled < count then begin
      (* Queue empty means the cursor sits on a block boundary. *)
      let nblocks = Vec.num_blocks r.vec in
      let d = ctx.Ctx.params.Params.disks in
      let covered bi =
        bi < nblocks && (bi * b) + min b (r.len - (bi * b)) <= r.pos + (count - !filled)
      in
      (* Hint every block this take will read — the covered extent plus the
         trailing partial block — so an async backend overlaps them all.
         [r.pos + (count - !filled)] is invariant across the loop below
         (blits advance both terms in lockstep), so the extent is exact. *)
      let first_bi = r.pos / b in
      let last_bi = min (nblocks - 1) ((r.pos + (count - !filled) - 1) / b) in
      if last_bi >= first_bi then
        Device.prefetch ctx.Ctx.dev
          (Array.init (last_bi - first_bi + 1) (fun k -> Vec.block_id r.vec (first_bi + k)));
      while !filled < count && covered (r.pos / b) do
        let first = r.pos / b in
        let group = ref 1 in
        while !group < d && covered (first + !group) do
          incr group
        done;
        let g = !group in
        let read_group () =
          for k = 0 to g - 1 do
            let payload = Resilient.read ctx.Ctx.dev (Vec.block_id r.vec (first + k)) in
            blit_payload payload 0 (Array.length payload)
          done
        in
        if g > 1 then Stats.with_window ctx.Ctx.stats read_group else read_group ()
      done;
      (* Trailing partially-covered block: buffer exactly that one block (it
         stays the reader's current block for subsequent reads). *)
      if !filled < count then begin
        let bi = r.pos / b in
        let payload = Resilient.read ctx.Ctx.dev (Vec.block_id r.vec bi) in
        Queue.push (bi, payload) r.bufs;
        blit_payload payload (r.pos - (bi * b)) (count - !filled)
      end
    end;
    !out
  end

let close r =
  if not r.closed then begin
    let ctx = Vec.ctx r.vec in
    Mem.release ctx.Ctx.params ctx.Ctx.stats ((1 + r.extra) * r.b);
    r.extra <- 0;
    Queue.clear r.bufs;
    r.cur <- [||];
    r.cur_hi <- 0;
    r.closed <- true
  end

let with_reader ?prefetch vec f =
  let r = open_vec ?prefetch vec in
  match f r with
  | result ->
      close r;
      result
  | exception e ->
      close r;
      raise e
