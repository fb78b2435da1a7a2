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

(* Index of [pair] among the target buckets [tb.(0 .. ntb-1)] (increasing
   bucket indices), or -1: binary search over their upper splitters, then one
   lower-splitter check, skipped when the previous target bucket is adjacent
   (the search already placed the pair above its upper splitter). *)
let target_of tcmp splitters tb ntb pair =
  let nsplit = Array.length splitters in
  let lo = ref 0 and hi = ref ntb in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let j = tb.(mid) in
    if j = nsplit || tcmp pair splitters.(j) <= 0 then hi := mid else lo := mid + 1
  done;
  let t = !lo in
  if t = ntb then -1
  else
    let j = tb.(t) in
    if j = 0 || (t > 0 && tb.(t - 1) = j - 1) || tcmp pair splitters.(j - 1) > 0 then t
    else -1

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
              let start = Emalg.Distribute.bucket_starts tcmp splitters v in
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
              let dctx : ('a * int) Em.Ctx.t = Em.Ctx.linked ctx in
              let pos = ref (-1) in
              Em.Writer.with_writer dctx (fun w ->
                  Emalg.Scan.iter
                    (fun e ->
                      incr pos;
                      let t = target_of tcmp splitters tb ntb (e, !pos) in
                      if t >= 0 then
                        for i = first.(t) to first.(t + 1) - 1 do
                          Em.Writer.push w (e, i)
                        done)
                    v))
        in
        Fun.protect ~finally:(fun () -> Em.Vec.free d) (fun () -> Intermixed.select cmp d ~targets))
  end

(* One pass over the ranks.  It finds the target buckets [tb] (those that
   hold a rank, increasing) and groups consecutive ones greedily while a
   group holds at most [big] elements ([gid] maps a target to its group; a
   bucket above [big] is a group alone).  Each group's ranks go to a vector
   of their own, re-based to the group's (key, position) order: a rank in
   bucket [j] drops the elements of the non-target buckets below [j] and of
   the groups before its own.  Returns the target count and the rank
   vectors in group order. *)
let route_ranks ~big start tb gid ranks =
  let ictx = Em.Vec.ctx ranks in
  let size j = start.(j + 1) - start.(j) in
  let ntb = ref 0 and groups = ref [] and ngroups = ref 0 in
  let j = ref 0 and skipped = ref 0 and taken = ref 0 in
  let base = ref 0 and gsize = ref 0 in
  let w = ref (Em.Writer.create ictx) in
  match
    Emalg.Scan.iter
      (fun r ->
        while start.(!j + 1) < r do
          if !ntb > 0 && tb.(!ntb - 1) = !j then taken := !taken + size !j
          else skipped := !skipped + size !j;
          incr j
        done;
        if !ntb = 0 || tb.(!ntb - 1) <> !j then begin
          let s = size !j in
          if !ntb > 0 && !gsize + s <= big then gsize := !gsize + s
          else begin
            if !ngroups > 0 then begin
              groups := Em.Writer.finish !w :: !groups;
              w := Em.Writer.create ictx
            end;
            incr ngroups;
            base := !taken;
            gsize := s
          end;
          tb.(!ntb) <- !j;
          gid.(!ntb) <- !ngroups - 1;
          incr ntb
        end;
        Em.Writer.push !w (r - !skipped - !base))
      ranks;
    Em.Writer.finish !w
  with
  | last -> (!ntb, Array.of_list (List.rev (last :: !groups)))
  | exception e ->
      Em.Writer.abandon !w;
      List.iter Em.Vec.free !groups;
      raise e

(* Distribute the (key, target) pairs [iter] yields into one vector per
   group of [lo, hi).  A pass opens at most [fanout] writers; with more
   groups than that it writes runs of consecutive groups, then
   redistributes each run by the same target-to-group map [gid], with no
   comparisons.  On an exception every vector it wrote is freed. *)
let rec spread pctx ~fanout gid iter lo hi =
  let count = hi - lo in
  let stride = if count <= fanout then 1 else (count + fanout - 1) / fanout in
  let runs =
    Emalg.Distribute.pass pctx ~nwriters:((count + stride - 1) / stride) (fun push ->
        iter (fun ((_, t) as p) -> push ((gid.(t) - lo) / stride) p))
  in
  if stride = 1 then runs
  else begin
    let next = ref 0 and parts = ref [] in
    match
      while !next < Array.length runs do
        let first = lo + (!next * stride) in
        let run = runs.(!next) in
        parts :=
          spread pctx ~fanout gid (fun f -> Emalg.Scan.iter f run) first (min hi (first + stride))
          :: !parts;
        Em.Vec.free run;
        incr next
      done
    with
    | () -> Array.concat (List.rev !parts)
    | exception e ->
        for c = !next to Array.length runs - 1 do
          Em.Vec.free runs.(c)
        done;
        List.iter (Array.iter Em.Vec.free) !parts;
        raise e
  end

type 'a group = { part : ('a * int) Em.Vec.t; ranks : int Em.Vec.t }

let free_group g =
  Em.Vec.free g.part;
  Em.Vec.free g.ranks

(* The general case's distribution, above one merge pass: one splitter
   sample and one counting scan give every bucket its first rank, and only
   the target buckets' elements are kept, as (key, target index) pairs in
   one vector per group, beside the group's re-based ranks.  The index
   orders a group by bucket, so only keys of one bucket are ever compared,
   and the group vectors keep input order, so ties stay positional.  The
   splitters, prefix sums and target arrays are released on return. *)
let distribute vcmp key v ranks =
  let ctx = Em.Vec.ctx v in
  let n = Em.Vec.length v in
  let big = Emalg.Layout.big_load ctx in
  let tcmp = Emalg.Order.tagged vcmp in
  let splitters =
    Emalg.Sample_splitters.find_tagging vcmp v ~k:(Emalg.Sample_splitters.splitter_count ctx ~n)
  in
  let nsplit = Array.length splitters in
  let ntargets = min (Em.Vec.length ranks) (nsplit + 1) in
  let pctx = Em.Ctx.linked ctx in
  Em.Ctx.with_words ctx ((2 * nsplit) + (2 * ntargets)) (fun () ->
      let tb = Array.make ntargets 0 and gid = Array.make ntargets 0 in
      let ntb, rank_vecs =
        Em.Ctx.with_words ctx (nsplit + 2) (fun () ->
            route_ranks ~big (Emalg.Distribute.bucket_starts tcmp splitters v) tb gid ranks)
      in
      let b = Em.Ctx.block_size ctx in
      let free = Em.Ctx.mem_capacity ctx - ctx.Em.Ctx.stats.Em.Stats.mem_in_use in
      let targets f =
        let pos = ref (-1) in
        Emalg.Scan.iter
          (fun e ->
            incr pos;
            let t = target_of tcmp splitters tb ntb (e, !pos) in
            if t >= 0 then f (key e, t))
          v
      in
      match spread pctx ~fanout:(max 2 ((free - b) / b)) gid targets 0 (Array.length rank_vecs) with
      | parts -> Array.map2 (fun part ranks -> { part; ranks }) parts rank_vecs
      | exception e ->
          Array.iter Em.Vec.free rank_vecs;
          raise e)

(* Sort [v] into runs of [big_load] elements, then merge them once,
   emitting the ranked elements as they pass: three scans, where the
   sample, counting and distribution passes read the input three times
   and write more.  Stable, so ties stay positional. *)
let sort_select vcmp key v ranks emit =
  Emalg.External_sort.with_sorted vcmp v (fun merged ->
      Em.Reader.with_reader ranks (fun rr ->
          let pos = ref 0 and next = ref (Em.Reader.next rr) in
          merged (fun e ->
              incr pos;
              if !pos = !next then begin
                emit (key e);
                if Em.Reader.has_next rr then next := Em.Reader.next rr
              end)))

(* General case, [K > m]: ranks stream from [ranks] (validated, re-based to
   [v]) and answers go to [emit] in rank order.  [v]'s elements compare
   under [vcmp]; [key] projects one to its answer, ordered by [cmp].  At
   most [big_load] elements are sorted in memory, an input that sorts in
   one merge pass is sorted so, and a larger one is distributed into
   groups, answered in order.  A group of at most [big_load] elements is
   sorted in memory, a larger one (always a single bucket) with at most
   [m] ranks is one base case, and only a single bucket with more of both
   recurses.  The recursion reads the group's pairs with [key = fst] and
   writes fresh ones, so elements never nest deeper. *)
let rec general :
    'a 'b.
    ('a -> 'a -> int) ->
    ('b -> 'b -> int) ->
    ('b -> 'a) ->
    'b Em.Vec.t ->
    int Em.Vec.t ->
    ('a -> unit) ->
    unit =
 fun cmp vcmp key v ranks emit ->
  let ctx = Em.Vec.ctx v in
  let n = Em.Vec.length v and big = Emalg.Layout.big_load ctx in
  if n <= big then
    Emalg.Scan.with_loaded v (fun a ->
        Emalg.Mem_sort.sort vcmp a;
        Emalg.Scan.iter (fun r -> emit (key a.(r - 1))) ranks)
  else if Emalg.External_sort.one_merge ctx n then sort_select vcmp key v ranks emit
  else begin
    let groups = distribute vcmp key v ranks in
    let next = ref 0 in
    match
      while !next < Array.length groups do
        if Em.Vec.length groups.(!next).part = Em.Vec.length v then
          invalid_arg "Multi_select: internal error (bucket holds the input)";
        answer cmp groups.(!next) emit;
        free_group groups.(!next);
        incr next
      done
    with
    | () -> ()
    | exception e ->
        for i = !next to Array.length groups - 1 do
          free_group groups.(i)
        done;
        raise e
  end

and answer : 'a. ('a -> 'a -> int) -> 'a group -> ('a -> unit) -> unit =
 fun cmp { part; ranks } emit ->
  let ctx = Em.Vec.ctx part in
  let size = Em.Vec.length part and kcount = Em.Vec.length ranks in
  if size <= Emalg.Layout.big_load ctx then
    Em.Phase.with_label ctx "leaf-emit" (fun () ->
        Emalg.Scan.with_loaded part (fun a ->
            Emalg.Mem_sort.sort (fun (x, s) (y, t) -> if s <> t then Int.compare s t else cmp x y) a;
            Emalg.Scan.iter (fun r -> emit (fst a.(r - 1))) ranks))
  else begin
    let pcmp (x, _) (y, _) = cmp x y in
    if kcount <= batch_size ctx then
      (* The rank array and the results. *)
      Em.Ctx.with_words ctx (2 * kcount) (fun () ->
          Array.iter (fun (e, _) -> emit e) (base_case pcmp part (Emalg.Scan.array_of_vec_io ranks)))
    else general cmp pcmp fst part ranks emit
  end

let groups cmp v ~ranks =
  let ctx = Em.Vec.ctx v and n = Em.Vec.length v in
  if n <= Emalg.Layout.big_load ctx || Emalg.External_sort.one_merge ctx n then None
  else Some (distribute cmp Fun.id v ranks)

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
  if kcount <= batch_size ctx then
    Em.Ctx.with_words ctx kcount (fun () ->
        let ranks_arr = Emalg.Scan.array_of_vec_io ranks in
        let results = base_case cmp v ranks_arr in
        Em.Writer.with_writer ctx (fun w -> Em.Writer.push_array w results))
  else Em.Writer.with_writer ctx (fun w -> general cmp cmp Fun.id v ranks (Em.Writer.push w))

let select cmp v ~ranks =
  let ctx = Em.Vec.ctx v in
  let ictx : int Em.Ctx.t = Em.Ctx.linked ctx in
  let ranks_vec = Emalg.Scan.vec_of_array_io ictx ranks in
  Fun.protect
    ~finally:(fun () -> Em.Vec.free ranks_vec)
    (fun () ->
      let out = select_vec cmp v ~ranks:ranks_vec in
      Fun.protect ~finally:(fun () -> Em.Vec.free out) (fun () -> Emalg.Scan.array_of_vec_io out))
