(* The algorithms are comparison-based and polymorphic: exercise them with
   float keys, string keys, and a record-ish tuple key with a custom order —
   ensuring nothing silently assumes integers. *)

let fcmp = Float.compare
let scmp = String.compare

let float_vec ctx a : float Em.Vec.t =
  let fctx : float Em.Ctx.t = Em.Ctx.linked ctx in
  Em.Vec.of_array fctx a

let string_vec ctx a : string Em.Vec.t =
  let sctx : string Em.Ctx.t = Em.Ctx.linked ctx in
  Em.Vec.of_array sctx a

let test_floats_multi_select () =
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let n = 3_000 in
  let r = Tu.rng 1 in
  let a = Array.init n (fun _ -> float_of_int (Tu.next_int r 1_000_000) /. 97.) in
  let v = float_vec ctx a in
  let ranks = [| 1; n / 2; n |] in
  let results = Core.Multi_select.select fcmp v ~ranks in
  let sorted = Array.copy a in
  Array.sort fcmp sorted;
  Alcotest.(check (array (float 1e-9)))
    "float ranks"
    [| sorted.(0); sorted.((n / 2) - 1); sorted.(n - 1) |]
    results

let test_floats_splitters () =
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let n = 2_000 in
  let r = Tu.rng 2 in
  let a = Array.init n (fun _ -> Float.of_int (Tu.next_int r 100_000) *. 0.125) in
  let v = float_vec ctx a in
  let spec = { Core.Problem.n; k = 8; a = 100; b = 600 } in
  let out = Core.Splitters.solve fcmp v spec in
  match Core.Verify.splitters fcmp ~input:a spec (Em.Vec.Oracle.to_array out) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_strings_partitioning () =
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let n = 1_500 in
  let r = Tu.rng 3 in
  let a =
    Array.init n (fun _ ->
        Printf.sprintf "key-%06d-%c" (Tu.next_int r 100_000)
          (Char.chr (97 + Tu.next_int r 26)))
  in
  let v = string_vec ctx a in
  let spec = { Core.Problem.n; k = 5; a = 100; b = 900 } in
  let parts = Core.Partitioning.solve scmp v spec in
  match
    Core.Verify.partitioning scmp ~input:a spec (Array.map Em.Vec.Oracle.to_array parts)
  with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_tuple_key_custom_order () =
  (* Order events by (priority DESC, timestamp ASC): a composite comparator
     through the whole stack. *)
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let cmp (p1, t1) (p2, t2) =
    let c = Int.compare p2 p1 in
    if c <> 0 then c else Int.compare t1 t2
  in
  let n = 2_000 in
  let r = Tu.rng 4 in
  let a = Array.init n (fun _ -> (Tu.next_int r 5, Tu.next_int r 1_000_000)) in
  let ectx : (int * int) Em.Ctx.t = Em.Ctx.linked ctx in
  let v = Em.Vec.of_array ectx a in
  let median = Emalg.Em_select.select cmp v ~rank:(n / 2) in
  let sorted = Array.copy a in
  Array.sort cmp sorted;
  Alcotest.(check (pair int int)) "median under custom order" sorted.((n / 2) - 1) median;
  let out = Emalg.External_sort.sort cmp v in
  Alcotest.(check (array (pair int int))) "sorted under custom order" sorted (Em.Vec.Oracle.to_array out)

(* String keys through the base case's splitter route (n > big_load), with
   repeated keys so ranks resolve positionally. *)
let test_strings_multi_select () =
  let ctx = Tu.ctx ~mem:1024 ~block:16 () in
  let n = 1_000 in
  let r = Tu.rng 5 in
  let a = Array.init n (fun _ -> Printf.sprintf "%04x" (Tu.next_int r 4_096)) in
  let v = string_vec ctx a in
  let ranks = [| 1; 10; n / 3; n / 2; n - 1; n |] in
  let results = Core.Multi_select.select scmp v ~ranks in
  let sorted = Array.copy a in
  Array.sort scmp sorted;
  Alcotest.(check (array string))
    "string ranks"
    (Array.map (fun rk -> sorted.(rk - 1)) ranks)
    results;
  Tu.check_int "ledger drained" 0 ctx.Em.Ctx.stats.Em.Stats.mem_in_use

let suite =
  [
    Alcotest.test_case "floats: multi-select" `Quick test_floats_multi_select;
    Alcotest.test_case "floats: splitters" `Quick test_floats_splitters;
    Alcotest.test_case "strings: partitioning" `Quick test_strings_partitioning;
    Alcotest.test_case "tuples: custom order" `Quick test_tuple_key_custom_order;
    Alcotest.test_case "strings: multi-select" `Quick test_strings_multi_select;
  ]
