let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let sorted_copy cmp a =
  let c = Array.copy a in
  Array.sort cmp c;
  c

(* Number of elements < x / <= x in a sorted array. *)
let count_lt cmp sorted x =
  let lo = ref 0 and hi = ref (Array.length sorted) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp sorted.(mid) x < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let count_le cmp sorted x =
  let lo = ref 0 and hi = ref (Array.length sorted) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp sorted.(mid) x <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* For every probe of the sorted array [probes]: how many input elements lie
   strictly below it ([lt]) and how many do not lie above it ([le]).  One
   pass over the unsorted input, locating each element among the probes by
   binary search: element [x] is below exactly the probes from
   [count_le probes x] on, and not above those from [count_lt probes x] on,
   so bucketing those two indices and taking prefix sums gives both counts
   in O(N log k) time and O(k) words. *)
let probe_counts cmp input probes =
  let k = Array.length probes in
  let lt = Array.make (k + 1) 0 and le = Array.make (k + 1) 0 in
  Array.iter
    (fun x ->
      let u = count_le cmp probes x and l = count_lt cmp probes x in
      lt.(u) <- lt.(u) + 1;
      le.(l) <- le.(l) + 1)
    input;
  for i = 1 to k do
    lt.(i) <- lt.(i) + lt.(i - 1);
    le.(i) <- le.(i) + le.(i - 1)
  done;
  (lt, le)

let splitters cmp ~input spec proposed =
  let* () = Problem.validate spec in
  let { Problem.n; k; a; b } = spec in
  if n <> Array.length input then err "input length %d <> spec.n %d" (Array.length input) n
  else if Array.length proposed <> k - 1 then
    err "expected %d splitters, got %d" (k - 1) (Array.length proposed)
  else begin
    let sp = sorted_copy cmp proposed in
    let lt, le = probe_counts cmp input sp in
    (* Each splitter stands for an occurrence: its sorted position r_i must
       satisfy count_lt < r_i <= count_le (membership), positions strictly
       increase, and consecutive gaps lie in [a, b].  Greedy-minimal choice
       of r_i is optimal for this forward-constrained chain. *)
    let rec walk i prev =
      if i = Array.length sp then
        let gap = n - prev in
        if gap < a || gap > b then err "last bucket has %d elements (not in [%d, %d])" gap a b
        else Ok ()
      else begin
        let lo = lt.(i) and hi = le.(i) in
        if hi = lo then err "splitter %d is not an element of the input" i
        else begin
          let r = max (lo + 1) (prev + a) in
          if r > hi then err "bucket %d cannot reach the minimum size %d" i a
          else if r - prev > b then err "bucket %d has more than %d elements" i b
          else walk (i + 1) r
        end
      end
    in
    walk 0 0
  end

let partitioning cmp ~input spec parts =
  let* () = Problem.validate spec in
  let { Problem.n; k; a; b } = spec in
  if n <> Array.length input then err "input length %d <> spec.n %d" (Array.length input) n
  else if Array.length parts <> k then err "expected %d partitions, got %d" k (Array.length parts)
  else begin
    let sizes_ok = ref (Ok ()) in
    Array.iteri
      (fun i p ->
        let s = Array.length p in
        if (s < a || s > b) && !sizes_ok = Ok () then
          sizes_ok := err "partition %d has %d elements (not in [%d, %d])" i s a b)
      parts;
    let* () = !sizes_ok in
    (* Ordering: max of earlier non-empty <= min of later non-empty. *)
    let max_of p = Array.fold_left (fun acc e -> if cmp e acc > 0 then e else acc) p.(0) p in
    let min_of p = Array.fold_left (fun acc e -> if cmp e acc < 0 then e else acc) p.(0) p in
    let rec order_ok i last_max =
      if i = Array.length parts then Ok ()
      else if Array.length parts.(i) = 0 then order_ok (i + 1) last_max
      else begin
        let mn = min_of parts.(i) in
        match last_max with
        | Some m when cmp m mn > 0 -> err "partition %d overlaps an earlier partition" i
        | _ -> order_ok (i + 1) (Some (max_of parts.(i)))
      end
    in
    let* () = order_ok 0 None in
    let together = Array.concat (Array.to_list parts) in
    if Array.length together <> n then err "partitions hold %d elements, expected %d" (Array.length together) n
    else begin
      Array.sort cmp together;
      let sorted = sorted_copy cmp input in
      let mismatch = ref None in
      Array.iteri
        (fun i e -> if !mismatch = None && cmp e sorted.(i) <> 0 then mismatch := Some i)
        together;
      match !mismatch with
      | Some i -> err "partitions are not a permutation of the input (at sorted index %d)" i
      | None -> Ok ()
    end
  end

let multi_select cmp ~input ~ranks results =
  if Array.length ranks <> Array.length results then
    err "expected %d results, got %d" (Array.length ranks) (Array.length results)
  else begin
    (* The element of rank [r] equals [x] iff [#(< x) < r <= #(<= x)]. *)
    let probes = sorted_copy cmp results in
    let lt, le = probe_counts cmp input probes in
    let n = Array.length input in
    let rec walk i =
      if i = Array.length ranks then Ok ()
      else begin
        let r = ranks.(i) in
        let j = count_lt cmp probes results.(i) in
        if r < 1 || r > n then err "rank %d out of range" r
        else if r <= lt.(j) || r > le.(j) then
          err "result %d is not the element of rank %d" i r
        else walk (i + 1)
      end
    in
    walk 0
  end

let multi_partition cmp ~input ~sizes parts =
  if Array.length sizes <> Array.length parts then
    err "expected %d partitions, got %d" (Array.length sizes) (Array.length parts)
  else begin
    let bad = ref None in
    Array.iteri
      (fun i p ->
        if !bad = None && Array.length p <> sizes.(i) then
          bad := Some (i, Array.length p))
      parts;
    match !bad with
    | Some (i, got) -> err "partition %d has %d elements, expected %d" i got sizes.(i)
    | None ->
        let n = Array.length input in
        let spec = { Problem.n; k = max 1 (Array.length sizes); a = 0; b = n } in
        partitioning cmp ~input spec parts
  end
