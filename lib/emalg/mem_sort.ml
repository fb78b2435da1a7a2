let sort cmp a = Array.stable_sort cmp a

let is_sorted cmp a =
  let n = Array.length a in
  let rec check i = i >= n || (cmp a.(i - 1) a.(i) <= 0 && check (i + 1)) in
  check 1

let quantile_splitters cmp a ~k =
  let n = Array.length a in
  if k < 1 || k > n then
    invalid_arg "Mem_sort.quantile_splitters: k out of range";
  sort cmp a;
  Array.init (k - 1) (fun i ->
      let rank = (((i + 1) * n) + k - 1) / k in
      a.(rank - 1))
