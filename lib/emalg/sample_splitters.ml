let default_rate = 4

(* Loads are pinned at M/2 - 2B: half the memory stays free for whatever
   stream buffers and Θ(M/100) arrays the caller composition holds, and
   [gap_bound] can rely on the exact same load size. *)
let base_size = Layout.half_load
let chunk_size = Layout.half_load

(* The recursion's sample shrinks by [rate] per level and bottoms out at
   [base_size], so the base case is guaranteed at least [base_size / rate]
   elements — k may not exceed that. *)
let max_k ?(rate = default_rate) ctx = max 2 (base_size ctx / rate)

(* The counting step's arrays (two words per tagged splitter, the prefix
   sums and up to two words of routing per bucket) take about 5k words
   beside two stream buffers; bounding k by a sixth of the free words leaves
   at least a third of them for the distribution's writers once the prefix
   sums go.  At M = 4096, B = 64 the bound is max_k (480) and the fan-out at
   least 33. *)
let splitter_count ctx ~n =
  let b = Em.Ctx.block_size ctx in
  let free = Em.Ctx.mem_capacity ctx - ctx.Em.Ctx.stats.Em.Stats.mem_in_use in
  max 2 (min n (min (max_k ctx) ((free - (4 * b)) / 6)))

let rec find_rec ~rate cmp v ~k =
  let ctx = Em.Vec.ctx v in
  let n = Em.Vec.length v in
  if n <= base_size ctx then begin
    if k > n then
      invalid_arg "Sample_splitters.find: k exceeds the number of elements";
    Scan.with_loaded v (fun a -> Mem_sort.quantile_splitters ~ctx cmp a ~k)
  end
  else begin
    let sample =
      Em.Writer.with_writer ctx (fun w ->
          Scan.chunks ~size:(chunk_size ctx)
            (fun chunk ->
              Mem_sort.sort_on ctx cmp chunk;
              let nsamples = Array.length chunk / rate in
              for i = 1 to nsamples do
                Em.Writer.push w chunk.((i * rate) - 1)
              done)
            v)
    in
    Fun.protect ~finally:(fun () -> Em.Vec.free sample) (fun () -> find_rec ~rate cmp sample ~k)
  end

let find ?(rate = default_rate) cmp v ~k =
  let ctx = Em.Vec.ctx v in
  Layout.require_min_geometry ctx;
  if rate < 2 then invalid_arg "Sample_splitters.find: rate must be >= 2";
  if k < 1 then invalid_arg "Sample_splitters.find: k must be >= 1";
  if k > Em.Vec.length v then
    invalid_arg "Sample_splitters.find: k exceeds the number of elements";
  if k > max_k ~rate ctx then
    invalid_arg "Sample_splitters.find: k exceeds max_k for this geometry";
  if k = 1 then [||]
  else Em.Phase.with_label ctx "pivot-sampling" (fun () -> find_rec ~rate cmp v ~k)

(* First level with inline (key, position) tagging: the raw input is read
   load by load and tagged in memory, so the tagged copy is never
   materialised on disk.  The recursion continues on the (much smaller)
   tagged sample via [find_rec], so the cost recurrence — and therefore
   [gap_bound] — is identical to [find] on a pre-tagged vector. *)
let find_tagging ?(rate = default_rate) cmp v ~k =
  let ctx = Em.Vec.ctx v in
  Layout.require_min_geometry ctx;
  if rate < 2 then invalid_arg "Sample_splitters.find: rate must be >= 2";
  if k < 1 then invalid_arg "Sample_splitters.find: k must be >= 1";
  let n = Em.Vec.length v in
  if k > n then
    invalid_arg "Sample_splitters.find: k exceeds the number of elements";
  if k > max_k ~rate ctx then
    invalid_arg "Sample_splitters.find: k exceeds max_k for this geometry";
  (* A load is tagged by position alone: [keys.(i)] is the element at
     [base + i], and sorting the index array under [pcmp] makes exactly the
     comparisons [Order.tagged cmp] makes on (key, position) pairs, in the
     same order.  Pairs are built only for the elements that leave the
     load. *)
  let load_keys r ~count =
    let keys = Array.make count (Em.Reader.peek r) in
    for i = 0 to count - 1 do
      keys.(i) <- Em.Reader.next r
    done;
    keys
  in
  let pcmp keys i j =
    let c = cmp keys.(i) keys.(j) in
    if c <> 0 then c else Int.compare i j
  in
  if k = 1 then [||]
  else if n <= base_size ctx then
    Em.Phase.with_label ctx "pivot-sampling" (fun () ->
        Em.Ctx.with_words ctx n (fun () ->
            Em.Reader.with_reader v (fun r ->
                let keys = load_keys r ~count:n in
                Mem_sort.quantile_splitters (pcmp keys) (Array.init n Fun.id) ~k
                |> Array.map (fun i -> (keys.(i), i)))))
  else
    Em.Phase.with_label ctx "pivot-sampling" (fun () ->
        begin
    let pctx : ('a * int) Em.Ctx.t = Em.Ctx.linked ctx in
    let chunk = chunk_size ctx in
    let sample =
      Em.Writer.with_writer pctx (fun w ->
          Em.Reader.with_reader v (fun r ->
              let base = ref 0 in
              while Em.Reader.has_next r do
                let count = min chunk (Em.Reader.remaining r) in
                Em.Ctx.with_words ctx count (fun () ->
                    let keys = load_keys r ~count in
                    let pos = Array.init count Fun.id in
                    Mem_sort.sort (pcmp keys) pos;
                    for i = 1 to count / rate do
                      let p = pos.((i * rate) - 1) in
                      Em.Writer.push w (keys.(p), !base + p)
                    done);
                base := !base + count
              done))
    in
    Fun.protect
      ~finally:(fun () -> Em.Vec.free sample)
      (fun () -> find_rec ~rate (Order.tagged cmp) sample ~k)
  end)

let find_random ~rng ?(oversample = 8) cmp v ~k =
  let ctx = Em.Vec.ctx v in
  Layout.require_min_geometry ctx;
  if k < 1 then invalid_arg "Sample_splitters.find_random: k must be >= 1";
  let n = Em.Vec.length v in
  if k > n then
    invalid_arg "Sample_splitters.find_random: k exceeds the number of elements";
  if k = 1 then [||]
  else begin
    let ln_k = int_of_float (Float.ceil (Float.log (float_of_int (k + 1)))) in
    let s = min (Layout.half_load ctx) (max (4 * k) (oversample * k * max 1 ln_k)) in
    if n <= s then Scan.with_loaded v (fun a -> Mem_sort.quantile_splitters ~ctx cmp a ~k)
    else
      Em.Phase.with_label ctx "pivot-sampling" (fun () ->
          Em.Ctx.with_words ctx s (fun () ->
              Em.Reader.with_reader v (fun r ->
                  (* Classic reservoir sampling. *)
                  let reservoir = Array.make s (Em.Reader.peek r) in
                  for i = 0 to s - 1 do
                    reservoir.(i) <- Em.Reader.next r
                  done;
                  let seen = ref s in
                  while Em.Reader.has_next r do
                    let e = Em.Reader.next r in
                    incr seen;
                    let j = rng !seen in
                    if j < s then reservoir.(j) <- e
                  done;
                  Mem_sort.quantile_splitters ~ctx cmp reservoir ~k)))
  end

let params_sizes p =
  let m = p.Em.Params.mem and b = p.Em.Params.block in
  let half = (m / 2) - (2 * b) in
  (half, half)

let gap_bound ?(rate = default_rate) p ~n ~k =
  let base, chunk = params_sizes p in
  let rec go n =
    if n <= base then (n + k - 1) / k
    else
      let loads = (n + chunk - 1) / chunk in
      (rate * go (n / rate)) + (loads * (rate - 1))
  in
  go n
