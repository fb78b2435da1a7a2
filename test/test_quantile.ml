(* Tests for quantile queries over the library's engines: exact quantiles
   (Splitters.exact_quantiles, Scan.rank_of) and exact-spacing splitters,
   i.e. multi-selection at every [spacing]-th rank, which Multi_select's
   base case answers in linear I/Os. *)

(* The ranks [spacing, 2 spacing, ...] strictly below [n]. *)
let spaced_ranks n spacing =
  Array.init (max 0 (((n + spacing - 1) / spacing) - 1)) (fun i -> (i + 1) * spacing)

let spaced_splitters ctx a ~spacing =
  Core.Multi_select.select Tu.icmp (Tu.int_vec ctx a)
    ~ranks:(spaced_ranks (Array.length a) spacing)

let test_exact_quantiles_splitters () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let a = Tu.random_perm ~seed:1 100 in
  let v = Tu.int_vec ctx a in
  let s = Core.Splitters.exact_quantiles Tu.icmp v ~k:5 |> Em.Vec.Oracle.to_array in
  Tu.check_int_array "quintiles" [| 19; 39; 59; 79 |] s;
  Tu.check_int_array "input unchanged" a (Em.Vec.Oracle.to_array v)

let test_exact_quantiles_rank () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let v = Tu.int_vec ctx [| 1; 3; 3; 5; 9 |] in
  Tu.check_int "rank 0" 0 (Emalg.Scan.rank_of Tu.icmp v 0);
  Tu.check_int "rank 3" 3 (Emalg.Scan.rank_of Tu.icmp v 3);
  Tu.check_int "rank 9" 5 (Emalg.Scan.rank_of Tu.icmp v 9);
  Tu.check_int "rank 100" 5 (Emalg.Scan.rank_of Tu.icmp v 100)

let test_phi_quantile () =
  (* The phi-quantile is the element of rank [max 1 (ceil (phi * n))]. *)
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let n = 100 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:2 n) in
  let rank phi = max 1 (int_of_float (ceil (phi *. float_of_int n))) in
  let got = Core.Multi_select.select Tu.icmp v ~ranks:(Array.map rank [| 0.5; 0.99; 1.0 |]) in
  Tu.check_int "median" 49 got.(0);
  Tu.check_int "p99" 98 got.(1);
  Tu.check_int "max" 99 got.(2)

(* Check the exact-spacing contract on a concrete input. *)
let check_spacing_contract ~name a spacing splitters =
  let s = Tu.sorted_copy a in
  let n = Array.length s in
  let expected = max 0 (((n + spacing - 1) / spacing) - 1) in
  Tu.check_int (name ^ ": splitter count") expected (Array.length splitters);
  Array.iteri
    (fun i sp ->
      (* splitter i must have rank (i+1) * spacing: with duplicates, any
         element whose <=-count equals the target rank qualifies. *)
      let rank =
        let r = ref 0 in
        Array.iter (fun e -> if e <= sp then incr r) s;
        !r
      in
      let target = (i + 1) * spacing in
      Tu.check_bool
        (Printf.sprintf "%s: splitter %d rank %d covers target %d" name i rank target)
        true
        (rank >= target && rank - spacing < target))
    splitters

let test_mem_splitters_in_memory_case () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let s = spaced_splitters ctx (Tu.random_perm ~seed:3 100) ~spacing:10 in
  Tu.check_int_array "deciles" [| 9; 19; 29; 39; 49; 59; 69; 79; 89 |] s

let test_mem_splitters_external () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let n = 5_000 in
  let a = Tu.random_perm ~seed:4 n in
  let spacing = 137 in
  let s = spaced_splitters ctx a ~spacing in
  check_spacing_contract ~name:"external" a spacing s;
  (* Exact ranks on a permutation of 0..n-1 mean splitter i = rank - 1. *)
  Array.iteri
    (fun i sp -> Tu.check_int "exact rank element" (((i + 1) * spacing) - 1) sp)
    s;
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

let test_mem_splitters_duplicates () =
  (* With duplicate keys ties break by input position, so the splitter
     value is the value found at the target sorted position. *)
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let n = 3_000 in
  let a = Tu.random_ints ~seed:5 ~bound:7 n in
  let spacing = 100 in
  let s = spaced_splitters ctx a ~spacing in
  let values = Tu.sorted_copy a in
  Tu.check_int "count" (((n + spacing - 1) / spacing) - 1) (Array.length s);
  Array.iteri
    (fun i sp ->
      Tu.check_int (Printf.sprintf "splitter %d positional value" i)
        values.(((i + 1) * spacing) - 1)
        sp)
    s

let test_mem_splitters_sorted_input () =
  let ctx = Tu.ctx ~mem:256 ~block:16 () in
  let a = Array.init 4_000 (fun i -> i) in
  let s = spaced_splitters ctx a ~spacing:333 in
  check_spacing_contract ~name:"sorted" a 333 s

let test_mem_splitters_linear_io () =
  (* A full batch of evenly spaced ranks is one base case: Θ(M) sample
     splitters, one counting scan, one pass over the buckets holding a rank
     and intermixed selection, O(N/B) I/Os at every N. *)
  let ctx = Tu.ctx ~mem:2048 ~block:32 () in
  let n = 65_536 in
  let v = Tu.int_vec ctx (Tu.random_perm ~seed:6 n) in
  let m = Core.Multi_select.batch_size ctx in
  let ranks = spaced_ranks n ((n + m) / (m + 1)) in
  Tu.check_bool "one base case" true (Array.length ranks <= m);
  let snap = Em.Stats.snapshot ctx.Em.Ctx.stats in
  let s = Core.Multi_select.select Tu.icmp v ~ranks in
  let ios = Em.Stats.ios_since ctx.Em.Ctx.stats snap in
  let nb = n / 32 in
  Array.iteri (fun i sp -> Tu.check_int "exact rank element" (ranks.(i) - 1) sp) s;
  Tu.check_bool (Printf.sprintf "linear I/O: %d vs %d blocks" ios nb) true
    (ios <= 10 * nb);
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

let test_mem_splitters_spacing_guards () =
  let ctx = Tu.ctx () in
  let v = Tu.int_vec ctx [| 1; 2; 3 |] in
  Alcotest.check_raises "rank 0"
    (Invalid_argument "Multi_select: ranks must be strictly increasing in [1, length v]")
    (fun () -> ignore (Core.Multi_select.select Tu.icmp v ~ranks:[| 0 |]));
  Tu.check_int_array "spacing >= n gives none" [||] (spaced_splitters ctx [| 1; 2; 3 |] ~spacing:3);
  Tu.check_int_array "empty vec" [||] (spaced_splitters ctx [||] ~spacing:5)

let suite =
  [
    Alcotest.test_case "exact_quantiles: splitters" `Quick test_exact_quantiles_splitters;
    Alcotest.test_case "exact_quantiles: rank" `Quick test_exact_quantiles_rank;
    Alcotest.test_case "exact_quantiles: phi" `Quick test_phi_quantile;
    Alcotest.test_case "mem_splitters: in-memory case" `Quick test_mem_splitters_in_memory_case;
    Alcotest.test_case "mem_splitters: external exact ranks" `Quick test_mem_splitters_external;
    Alcotest.test_case "mem_splitters: duplicates" `Quick test_mem_splitters_duplicates;
    Alcotest.test_case "mem_splitters: sorted input" `Quick test_mem_splitters_sorted_input;
    Alcotest.test_case "mem_splitters: linear I/O at Θ(M) buckets" `Quick
      test_mem_splitters_linear_io;
    Alcotest.test_case "mem_splitters: guards" `Quick test_mem_splitters_spacing_guards;
  ]
