module Rng = struct
  include Em.Splitmix

  let int r bound =
    if bound <= 0 then invalid_arg "Workload.Rng.int: bound must be positive";
    Em.Splitmix.int r bound

  let shuffle r a =
    for i = Array.length a - 1 downto 1 do
      let j = int r (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
end

type kind =
  | Random_perm
  | Sorted
  | Reverse_sorted
  | Pi_hard
  | Few_distinct of int
  | Organ_pipe
  | Runs of int
  | Zipf of float

let kind_name = function
  | Random_perm -> "random-perm"
  | Sorted -> "sorted"
  | Reverse_sorted -> "reverse-sorted"
  | Pi_hard -> "pi-hard"
  | Few_distinct d -> Printf.sprintf "few-distinct-%d" d
  | Organ_pipe -> "organ-pipe"
  | Runs r -> Printf.sprintf "runs-%d" r
  | Zipf s -> Printf.sprintf "zipf-%.1f" s

let all_kinds =
  [
    Random_perm;
    Sorted;
    Reverse_sorted;
    Pi_hard;
    Few_distinct 16;
    Organ_pipe;
    Runs 8;
    Zipf 1.2;
  ]

let random_perm ~seed n =
  let a = Array.init n (fun i -> i) in
  Rng.shuffle (Rng.create seed) a;
  a

(* Π_hard: value stripe i (of size the number of blocks) lives in slot i of
   every block, permuted randomly within the stripe.  When n is not a
   multiple of the block size, the trailing partial block simply truncates
   the affected stripes. *)
let pi_hard ~seed ~n ~block =
  let nblocks = (n + block - 1) / block in
  let rng = Rng.create seed in
  let a = Array.make n 0 in
  let next_value = ref 0 in
  for slot = 0 to block - 1 do
    (* Blocks that actually have this slot. *)
    let holders = ref [] in
    for blk = nblocks - 1 downto 0 do
      let idx = (blk * block) + slot in
      if idx < n then holders := idx :: !holders
    done;
    let holders = Array.of_list !holders in
    let count = Array.length holders in
    let values = Array.init count (fun i -> !next_value + i) in
    next_value := !next_value + count;
    Rng.shuffle rng values;
    Array.iteri (fun i idx -> a.(idx) <- values.(i)) holders
  done;
  a

let generate kind ~seed ~n ~block =
  if n < 0 then invalid_arg "Workload.generate: negative size";
  match kind with
  | Random_perm -> random_perm ~seed n
  | Sorted -> Array.init n (fun i -> i)
  | Reverse_sorted -> Array.init n (fun i -> n - 1 - i)
  | Pi_hard -> pi_hard ~seed ~n ~block
  | Few_distinct d ->
      if d < 1 then invalid_arg "Workload.generate: Few_distinct needs >= 1 values";
      let rng = Rng.create seed in
      Array.init n (fun _ -> Rng.int rng d)
  | Organ_pipe -> Array.init n (fun i -> min i (n - 1 - i))
  | Zipf skew ->
      if skew <= 1.0 then invalid_arg "Workload.generate: Zipf needs skew > 1";
      (* Inverse-transform sampling of a power-law: heavy repetition of the
         small values, a long tail of rare large ones. *)
      let rng = Rng.create seed in
      Array.init n (fun _ ->
          let u =
            (float_of_int (Rng.int rng 1_000_000) +. 1.) /. 1_000_001.
          in
          let x = u ** (-1. /. (skew -. 1.)) in
          min (n - 1) (int_of_float x - 1))
  | Runs r ->
      if r < 1 then invalid_arg "Workload.generate: Runs needs >= 1 runs";
      let base = random_perm ~seed n in
      let run_len = (n + r - 1) / max 1 r in
      let rec sort_runs i =
        if i < n then begin
          let len = min run_len (n - i) in
          let chunk = Array.sub base i len in
          Array.sort Int.compare chunk;
          Array.blit chunk 0 base i len;
          sort_runs (i + len)
        end
      in
      sort_runs 0;
      base

let vec ctx kind ~seed ~n =
  let block = Em.Ctx.block_size ctx in
  Em.Vec.of_array ctx (generate kind ~seed ~n ~block)

let distinct_ranks = function
  | Random_perm | Sorted | Reverse_sorted | Pi_hard | Runs _ -> true
  | Few_distinct _ | Organ_pipe | Zipf _ -> false
