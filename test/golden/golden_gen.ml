(* Golden I/O-cost generator.

   Replays every Theorem-5/6 algorithm plus multi-selection across a small
   deterministic parameter grid and prints one line of exact costs per run.
   The committed [costs.expected] is diffed against this output on every
   `dune runtest`: any change to an algorithm's I/O cost — regression or
   improvement — shows up as a test failure and must be re-blessed with
   `make goldens` (i.e. `dune build @golden --auto-promote`). *)

let seed = 2014
let icmp = Int.compare

type run = { d : Em.Stats.delta; mem_peak : int; seeks : int }

let measure ~mem ~block kind ~n f =
  let trace = Em.Trace.create () in
  (* Pinned to the sim backend and a single disk: golden costs document the
     counted model and must be immune to EM_BACKEND (mem_peak would include
     pool pages) and EM_DISKS (rounds would compress and prefetch would move
     mem_peak).  At D = 1 rounds provably equals reads + writes. *)
  let ctx : int Em.Ctx.t =
    Em.Ctx.create ~trace ~backend:Em.Backend.Sim ~disks:1
      (Em.Params.create ~mem ~block)
  in
  let v = Core.Workload.vec ctx kind ~seed ~n in
  let (), d = Em.Ctx.measured ctx (fun () -> f ctx v) in
  { d; mem_peak = ctx.Em.Ctx.stats.Em.Stats.mem_peak; seeks = Em.Trace.seeks trace }

let print_run label r =
  Printf.printf "%s -> reads=%d writes=%d comps=%d mem_peak=%d seeks=%d rounds=%d\n" label
    r.d.Em.Stats.d_reads r.d.Em.Stats.d_writes r.d.Em.Stats.d_comparisons r.mem_peak r.seeks
    r.d.Em.Stats.d_rounds

let machines = [ (256, 16); (1024, 32) ]
let kinds = [ Core.Workload.Pi_hard; Core.Workload.Random_perm ]

let n = 4096

let specs =
  [
    (* right-grounded, left-grounded, two-sided *)
    { Core.Problem.n; k = 16; a = 32; b = n };
    { Core.Problem.n; k = 16; a = 0; b = 512 };
    { Core.Problem.n; k = 8; a = 64; b = 1024 };
    { Core.Problem.n; k = 16; a = 32; b = 1024 };
  ]

let ranks = [| 1; 100; 2048; 4095 |]

let label algo kind ~mem ~block extra =
  Printf.sprintf "%-12s wl=%-11s M=%-4d B=%-2d n=%d %s" algo
    (Core.Workload.kind_name kind) mem block n extra

let spec_label (s : Core.Problem.spec) =
  Printf.sprintf "k=%-2d a=%-4d b=%-4d" s.Core.Problem.k s.Core.Problem.a s.Core.Problem.b

let () =
  print_string "# Golden exact I/O costs. Re-bless with `make goldens` after intentional changes.\n";
  Printf.printf "# seed=%d\n" seed;
  List.iter
    (fun (mem, block) ->
      List.iter
        (fun kind ->
          List.iter
            (fun spec ->
              let cmp_ctx f ctx = f (Em.Ctx.counted ctx icmp) in
              print_run
                (label "splitters" kind ~mem ~block (spec_label spec))
                (measure ~mem ~block kind ~n (fun ctx v ->
                     cmp_ctx (fun cmp -> ignore (Core.Splitters.solve cmp v spec)) ctx));
              print_run
                (label "partitioning" kind ~mem ~block (spec_label spec))
                (measure ~mem ~block kind ~n (fun ctx v ->
                     cmp_ctx (fun cmp -> ignore (Core.Partitioning.solve cmp v spec)) ctx)))
            specs;
          print_run
            (label "multiselect" kind ~mem ~block
               (Printf.sprintf "ranks=%s"
                  (String.concat ","
                     (Array.to_list (Array.map string_of_int ranks)))))
            (measure ~mem ~block kind ~n (fun ctx v ->
                 let cmp = Em.Ctx.counted ctx icmp in
                 ignore (Core.Multi_select.select cmp v ~ranks))))
        kinds)
    machines
