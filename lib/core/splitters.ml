(* Approximate K-splitters (Theorem 5); see the interface. *)

let quantile_ranks ~n ~k =
  Array.init (k - 1) (fun i -> (((i + 1) * n) + k - 1) / k)

(* Stream-generate the ranks [f 1, f 2, ..., f count] to disk. *)
let gen_ranks ictx ~count f =
  Em.Writer.with_writer ictx (fun w ->
      for i = 1 to count do
        Em.Writer.push w (f i)
      done)

let check v spec =
  Problem.validate_exn spec;
  if spec.Problem.n <> Em.Vec.length v then
    invalid_arg "Splitters: spec.n does not match the input length"

(* Any K-1 elements solve an unconstrained instance; take the first ones. *)
let arbitrary_splitters v ~count = Emalg.Scan.prefix v count

let right_grounded cmp v spec =
  check v spec;
  let { Problem.n = _; k; a; _ } = spec in
  let ctx = Em.Vec.ctx v in
  if k = 1 then Em.Vec.empty ctx
  else if a = 0 then arbitrary_splitters v ~count:(k - 1)
  else begin
    let ictx : int Em.Ctx.t = Em.Ctx.linked ctx in
    let s' = Emalg.Scan.prefix v (a * k) in
    let ranks = gen_ranks ictx ~count:(k - 1) (fun i -> i * a) in
    let out = Multi_select.select_vec cmp s' ~ranks in
    Em.Vec.free s';
    Em.Vec.free ranks;
    out
  end

let left_grounded cmp v spec =
  check v spec;
  let { Problem.n; k; b; _ } = spec in
  let ctx = Em.Vec.ctx v in
  if k = 1 then Em.Vec.empty ctx
  else begin
    let k' = (n + b - 1) / b in
    let ictx : int Em.Ctx.t = Em.Ctx.linked ctx in
    if k' >= k then begin
      (* No padding: plain multi-selection at ranks i*b. *)
      let ranks = gen_ranks ictx ~count:(k - 1) (fun i -> i * b) in
      let out = Multi_select.select_vec cmp v ~ranks in
      Em.Vec.free ranks;
      out
    end
    else begin
      (* Base splitters at ranks i*b (selected with positions so the padding
         scan can exclude them), then the first K-K' other elements. *)
      let pad = k - k' in
      let tcmp = Emalg.Order.tagged cmp in
      let pctx : ('a * int) Em.Ctx.t = Em.Ctx.linked ctx in
      let tv = Emalg.Scan.mapi_into pctx (fun i e -> (e, i)) v in
      let base =
        if k' = 1 then Em.Vec.empty pctx
        else begin
          let ranks = gen_ranks ictx ~count:(k' - 1) (fun i -> i * b) in
          let out = Multi_select.select_vec tcmp tv ~ranks in
          Em.Vec.free ranks;
          out
        end
      in
      let positions = Emalg.Scan.map_into ictx snd base in
      let sorted_positions = Emalg.External_sort.sort Int.compare positions in
      Em.Vec.free positions;
      let out =
        Em.Writer.with_writer ctx (fun w ->
            Emalg.Scan.iter (fun (e, _) -> Em.Writer.push w e) base;
            Em.Reader.with_reader v (fun rv ->
                Em.Reader.with_reader sorted_positions (fun rp ->
                    let pos = ref (-1) in
                    let taken = ref 0 in
                    while !taken < pad do
                      let e = Em.Reader.next rv in
                      incr pos;
                      if Em.Reader.has_next rp && Em.Reader.peek rp = !pos then
                        ignore (Em.Reader.next rp)
                      else begin
                        Em.Writer.push w e;
                        incr taken
                      end
                    done)))
      in
      Em.Vec.free sorted_positions;
      Em.Vec.free base;
      Em.Vec.free tv;
      out
    end
  end

let exact_quantiles cmp v ~k =
  if k < 1 then invalid_arg "Splitters.exact_quantiles: k must be >= 1";
  if k > Em.Vec.length v then
    invalid_arg "Splitters.exact_quantiles: k exceeds the input length";
  let ctx = Em.Vec.ctx v in
  let n = Em.Vec.length v in
  let ictx : int Em.Ctx.t = Em.Ctx.linked ctx in
  let ranks = gen_ranks ictx ~count:(k - 1) (fun i -> ((i * n) + k - 1) / k) in
  let out = Multi_select.select_vec cmp v ~ranks in
  Em.Vec.free ranks;
  out

let two_sided cmp v spec =
  check v spec;
  let { Problem.n; k; a; b } = spec in
  let ctx = Em.Vec.ctx v in
  if k = 1 then Em.Vec.empty ctx
  else if 2 * a * k >= n || b * k <= 2 * n then exact_quantiles cmp v ~k
  else begin
    let k' = ((b * k) - n) / (b - a) in
    if k' < 1 || k' > k - 1 then
      invalid_arg "Splitters.two_sided: internal error (K' out of range)";
    let low, high, x = Emalg.Em_select.split_at cmp v ~rank:(a * k') in
    let h = n - (a * k') in
    let g = k - k' in
    if h / g < a || ((h + g - 1) / g) > b then
      invalid_arg "Splitters.two_sided: internal error (S_high cannot be cut evenly)";
    let low_out = if k' = 1 then Em.Vec.empty ctx else exact_quantiles cmp low ~k:k' in
    let high_out = if g = 1 then Em.Vec.empty ctx else exact_quantiles cmp high ~k:g in
    let out =
      Em.Writer.with_writer ctx (fun w ->
          Emalg.Scan.append w low_out;
          Em.Writer.push w x;
          Emalg.Scan.append w high_out)
    in
    List.iter Em.Vec.free [ low; high; low_out; high_out ];
    out
  end

let solve cmp v spec =
  check v spec;
  match Problem.classify spec with
  | Problem.Unconstrained ->
      if spec.Problem.k = 1 then Em.Vec.empty (Em.Vec.ctx v)
      else arbitrary_splitters v ~count:(spec.Problem.k - 1)
  | Problem.Right_grounded -> right_grounded cmp v spec
  | Problem.Left_grounded -> left_grounded cmp v spec
  | Problem.Two_sided -> two_sided cmp v spec
