(* The paper's most striking consequence (Theorem 1 + Theorem 5): when only
   a LOWER bound a is required on the partition sizes (right-grounded), the
   splitters can be found in o(N/B) I/Os — without reading most of the
   input.  No sorting-flavoured problem usually allows that.

   Run with:  dune exec examples/sublinear.exe

   Scenario: a 16-way index needs fence keys such that every shard is
   guaranteed at least [a] keys; upper balance is handled elsewhere.  We
   sweep [a] and watch the I/O cost stay decoupled from N. *)

let icmp = Int.compare

let () =
  let params = Em.Params.create ~mem:4096 ~block:64 in
  let k = 16 in
  Printf.printf "right-grounded %d-splitters: cost vs input size and guarantee a\n\n" k;
  Printf.printf "%10s  %8s  %14s  %14s  %10s\n" "N" "a" "measured I/O" "one scan N/B" "fraction";
  List.iter
    (fun n ->
      List.iter
        (fun a ->
          let ctx : int Em.Ctx.t = Em.Ctx.create params in
          let v = Core.Workload.vec ctx Core.Workload.Pi_hard ~seed:11 ~n in
          let spec = { Core.Problem.n; k; a; b = n } in
          let out, cost =
            Em.Ctx.measured ctx (fun () -> Core.Splitters.solve icmp v spec)
          in
          let ios = Em.Stats.delta_ios cost in
          (match
             Core.Verify.splitters icmp ~input:(Em.Vec.Oracle.to_array v) spec
               (Em.Vec.Oracle.to_array out)
           with
          | Ok () -> ()
          | Error msg -> failwith msg);
          let scan = n / 64 in
          Printf.printf "%10d  %8d  %14d  %14d  %9.4f%%\n" n a ios scan
            (100. *. float_of_int ios /. float_of_int scan))
        [ 2; 64; 1024 ])
    [ 1 lsl 16; 1 lsl 18; 1 lsl 20 ];
  Printf.printf
    "\nthe cost depends on a*K, not on N: the algorithm reads a*K elements and\n\
     multi-selects inside them — the rest of the input is never touched.\n\
     (Theorem 1 proves this is optimal: O((1 + aK/B) lg_{M/B}(K/B)).)\n"
