(* Single-rank external selection; see the interface for the plan. *)

let half_load = Layout.half_load

let pivot_count ctx ~n =
  let m = Em.Ctx.mem_capacity ctx in
  let half = half_load ctx in
  let wanted = min (max 2 (m / 8)) (max 2 (((2 * n) + half - 1) / half)) in
  max 2 (min wanted (Sample_splitters.max_k ctx))

(* Classic fallback pivot: exact median of the per-load medians guarantees a
   split no worse than 3/4 : 1/4.  Only reached when [gap_bound] cannot
   certify progress (tiny M relative to N); requires distinct keys. *)
let rec classic_pivot cmp v =
  let ctx = Em.Vec.ctx v in
  let sample =
    Em.Writer.with_writer ctx (fun w ->
        Scan.chunks ~size:(half_load ctx)
          (fun chunk -> Em.Writer.push w (Select_mem.median cmp chunk))
          v)
  in
  select_distinct cmp sample ~rank:((Em.Vec.length sample + 1) / 2) ~owned:true

(* Selection over pairwise-distinct keys (e.g. (key, position) pairs). *)
and select_distinct cmp v ~rank ~owned =
  let ctx = Em.Vec.ctx v in
  let n = Em.Vec.length v in
  let dispose () = if owned then Em.Vec.free v in
  if n <= half_load ctx then begin
    let result =
      Scan.with_loaded v (fun a ->
          Mem_sort.sort_on ctx cmp a;
          a.(rank - 1))
    in
    dispose ();
    result
  end
  else begin
    let k = pivot_count ctx ~n in
    if Sample_splitters.gap_bound ctx.Em.Ctx.params ~n ~k >= n then begin
      let pivot = classic_pivot cmp v in
      let less, equal_count, greater = Distribute.three_way cmp v ~pivot in
      dispose ();
      let n_less = Em.Vec.length less in
      if rank <= n_less then begin
        Em.Vec.free greater;
        select_distinct cmp less ~rank ~owned:true
      end
      else if rank <= n_less + equal_count then begin
        Em.Vec.free less;
        Em.Vec.free greater;
        pivot
      end
      else begin
        Em.Vec.free less;
        select_distinct cmp greater ~rank:(rank - n_less - equal_count) ~owned:true
      end
    end
    else begin
      let bucket, rank' =
        Em.Ctx.with_words ctx (2 * k) (fun () ->
            let pivots = Sample_splitters.find cmp v ~k in
            let counts = Array.make (Array.length pivots + 1) 0 in
            Scan.iter
              (fun e ->
                let j = Distribute.bucket_index cmp pivots e in
                counts.(j) <- counts.(j) + 1)
              v;
            (* Locate the bucket holding the target rank. *)
            let j = ref 0 and cum = ref 0 in
            while !cum + counts.(!j) < rank do
              cum := !cum + counts.(!j);
              incr j
            done;
            let j = !j in
            let in_bucket e = Distribute.bucket_index cmp pivots e = j in
            let bucket = Scan.filter in_bucket v in
            (bucket, rank - !cum))
      in
      dispose ();
      select_distinct cmp bucket ~rank:rank' ~owned:true
    end
  end

(* Top level for arbitrary keys: the first level tags inline (position =
   scan index), then recursion continues on materialised (key, position)
   buckets, which are distinct. *)
let select_tagged cmp v ~rank =
  let ctx = Em.Vec.ctx v in
  Layout.require_min_geometry ctx;
  let n = Em.Vec.length v in
  if rank < 1 || rank > n then invalid_arg "Em_select.select: rank out of range";
  let tcmp = Order.tagged cmp in
  if n <= half_load ctx then
    Em.Ctx.with_words ctx n (fun () ->
        Em.Reader.with_reader v (fun r ->
            let pairs = Array.make n (Em.Reader.peek r, 0) in
            for i = 0 to n - 1 do
              pairs.(i) <- (Em.Reader.next r, i)
            done;
            Mem_sort.sort tcmp pairs;
            pairs.(rank - 1)))
  else begin
    let k = pivot_count ctx ~n in
    let pctx : ('a * int) Em.Ctx.t = Em.Ctx.linked ctx in
    if Sample_splitters.gap_bound ctx.Em.Ctx.params ~n ~k >= n then begin
      let tv = Scan.mapi_into pctx (fun i e -> (e, i)) v in
      select_distinct tcmp tv ~rank ~owned:true
    end
    else begin
      let bucket, rank' =
        Em.Ctx.with_words ctx (2 * k) (fun () ->
            let pivots = Sample_splitters.find_tagging cmp v ~k in
            let counts = Array.make (Array.length pivots + 1) 0 in
            let pos = ref (-1) in
            Scan.iter
              (fun e ->
                incr pos;
                let j = Distribute.bucket_index tcmp pivots (e, !pos) in
                counts.(j) <- counts.(j) + 1)
              v;
            let j = ref 0 and cum = ref 0 in
            while !cum + counts.(!j) < rank do
              cum := !cum + counts.(!j);
              incr j
            done;
            let j = !j in
            let bucket =
              Em.Writer.with_writer pctx (fun w ->
                  let pos = ref (-1) in
                  Scan.iter
                    (fun e ->
                      incr pos;
                      if Distribute.bucket_index tcmp pivots (e, !pos) = j then
                        Em.Writer.push w (e, !pos))
                    v)
            in
            (bucket, rank - !cum))
      in
      select_distinct tcmp bucket ~rank:rank' ~owned:true
    end
  end

let select cmp v ~rank = fst (select_tagged cmp v ~rank)

let select_tagged cmp v ~rank =
  Em.Phase.with_label (Em.Vec.ctx v) "rank-select" (fun () -> select_tagged cmp v ~rank)

let select cmp v ~rank =
  Em.Phase.with_label (Em.Vec.ctx v) "rank-select" (fun () -> select cmp v ~rank)

let split_at cmp v ~rank =
  let ctx = Em.Vec.ctx v in
  let x, px = select_tagged cmp v ~rank in
  let tcmp = Order.tagged cmp in
  let low = Em.Writer.create ctx and high = Em.Writer.create ctx in
  let pos = ref (-1) in
  Scan.iter
    (fun e ->
      incr pos;
      if tcmp (e, !pos) (x, px) <= 0 then Em.Writer.push low e
      else Em.Writer.push high e)
    v;
  (Em.Writer.finish low, Em.Writer.finish high)
