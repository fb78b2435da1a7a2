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

(* The splitters are the elements at the plan's cut ranks ({!Problem.cut}).
   A cut at [n] closes an empty trailing partition (left-grounded, or
   unconstrained); any element outside the other cuts stands in for it. *)
let solve cmp v spec =
  check v spec;
  let { Problem.k; a; _ } = spec in
  let ctx = Em.Vec.ctx v in
  let ictx : int Em.Ctx.t = Em.Ctx.linked ctx in
  let base = Problem.nonempty spec - 1 in
  if k = 1 then Em.Vec.empty ctx
  else if base = 0 then Emalg.Scan.prefix v (k - 1)
  else if base = k - 1 then begin
    (* Right-grounded cuts [i*a] only need [a] elements per partition, so
       the first [aK] elements [S'] serve as well as the whole input. *)
    let s' =
      if Problem.classify spec = Problem.Right_grounded then Emalg.Scan.prefix v (a * k)
      else v
    in
    let ranks = gen_ranks ictx ~count:base (Problem.cut spec) in
    let out = Multi_select.select_vec cmp s' ~ranks in
    if s' != v then Em.Vec.free s';
    Em.Vec.free ranks;
    out
  end
  else begin
    (* Base splitters at the cuts below [n] (selected with positions so the
       padding scan can exclude them), then the first [K-1-base] other
       elements. *)
    let pad = k - 1 - base in
    let tcmp = Emalg.Order.tagged cmp in
    let pctx : ('a * int) Em.Ctx.t = Em.Ctx.linked ctx in
    let tv = Emalg.Scan.mapi_into pctx (fun i e -> (e, i)) v in
    let ranks = gen_ranks ictx ~count:base (Problem.cut spec) in
    let chosen = Multi_select.select_vec tcmp tv ~ranks in
    Em.Vec.free ranks;
    let positions = Emalg.Scan.map_into ictx snd chosen in
    let sorted_positions = Emalg.External_sort.sort Int.compare positions in
    Em.Vec.free positions;
    let out =
      Em.Writer.with_writer ctx (fun w ->
          Emalg.Scan.iter (fun (e, _) -> Em.Writer.push w e) chosen;
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
    Em.Vec.free chosen;
    Em.Vec.free tv;
    out
  end
