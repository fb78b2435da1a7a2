let sort cmp a = Array.stable_sort cmp a

(* [Array.stable_sort] of OCaml 5.1 on ints, with the comparison written
   inline: the same insertion sorts below [cutoff] and the same top-down
   merges, so the same comparisons in the same order.  Each one adds one to
   [stats.comparisons] where the generic sort calls the counted [cmp]. *)
let cutoff = 5

let sort_ints (stats : Em.Stats.t) (a : int array) =
  let merge src1ofs src1len (src2 : int array) src2ofs src2len (dst : int array) dstofs =
    let src1r = src1ofs + src1len and src2r = src2ofs + src2len in
    let rec loop i1 s1 i2 s2 d =
      stats.comparisons <- stats.comparisons + 1;
      if s1 <= s2 then begin
        dst.(d) <- s1;
        let i1 = i1 + 1 in
        if i1 < src1r then loop i1 a.(i1) i2 s2 (d + 1)
        else Array.blit src2 i2 dst (d + 1) (src2r - i2)
      end
      else begin
        dst.(d) <- s2;
        let i2 = i2 + 1 in
        if i2 < src2r then loop i1 s1 i2 src2.(i2) (d + 1)
        else Array.blit a i1 dst (d + 1) (src1r - i1)
      end
    in
    loop src1ofs a.(src1ofs) src2ofs src2.(src2ofs) dstofs
  in
  let isortto srcofs (dst : int array) dstofs len =
    for i = 0 to len - 1 do
      let e = a.(srcofs + i) in
      let j = ref (dstofs + i - 1) in
      while
        !j >= dstofs
        && begin
             stats.comparisons <- stats.comparisons + 1;
             dst.(!j) > e
           end
      do
        dst.(!j + 1) <- dst.(!j);
        decr j
      done;
      dst.(!j + 1) <- e
    done
  in
  let rec sortto srcofs dst dstofs len =
    if len <= cutoff then isortto srcofs dst dstofs len
    else begin
      let l1 = len / 2 in
      let l2 = len - l1 in
      sortto (srcofs + l1) dst (dstofs + l1) l2;
      sortto srcofs a (srcofs + l2) l1;
      merge (srcofs + l2) l1 dst (dstofs + l1) l2 dst dstofs
    end
  in
  let l = Array.length a in
  if l <= cutoff then isortto 0 a 0 l
  else begin
    let l1 = l / 2 in
    let l2 = l - l1 in
    let t = Array.make l2 a.(0) in
    sortto l1 t 0 l2;
    sortto 0 a l2 l1;
    merge l2 l1 t 0 l2 a 0
  end

let sort_on (type e) (ctx : e Em.Ctx.t) (cmp : e -> e -> int) (a : e array) =
  match Em.Ctx.int_keys ctx cmp with
  | Some Type.Equal -> sort_ints ctx.Em.Ctx.stats a
  | None -> sort cmp a

let is_sorted cmp a =
  let n = Array.length a in
  let rec check i = i >= n || (cmp a.(i - 1) a.(i) <= 0 && check (i + 1)) in
  check 1

let quantile_splitters ?ctx cmp a ~k =
  let n = Array.length a in
  if k < 1 || k > n then
    invalid_arg "Mem_sort.quantile_splitters: k out of range";
  (match ctx with Some ctx -> sort_on ctx cmp a | None -> sort cmp a);
  Array.init (k - 1) (fun i ->
      let rank = (((i + 1) * n) + k - 1) / k in
      a.(rank - 1))
