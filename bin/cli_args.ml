(* Shared flag plumbing for the em_repro subcommands.

   Every subcommand takes the same machine/backend/workload flags; they are
   bundled here as one [common] record built by one [common_t] term, so the
   per-subcommand definitions only declare what is specific to them.  The
   helpers below (context construction, cost reporting, spec validation)
   are the shared halves of every [run_*] function. *)

open Cmdliner

type common = {
  verbose : bool;
  backend : Em.Backend.spec option;
  mem : int;
  block : int;
  disks : int option;
  async : bool option;
  seed : int;
  workload : Core.Workload.kind;
}

let mem_t =
  Arg.(value & opt int 4096 & info [ "mem"; "M" ] ~docv:"WORDS" ~doc:"Memory size M in words.")

let block_t =
  Arg.(value & opt int 64 & info [ "block"; "B" ] ~docv:"WORDS" ~doc:"Block size B in words.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload PRNG seed.")

let disks_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "disks"; "D" ] ~docv:"D"
        ~doc:
          "Number of parallel disks (round-based I/O accounting; block placement is striped \
           round-robin).  Counted reads/writes are identical at any D; only the round count \
           and prefetch/write-behind batching change.  When omitted, honours the EM_DISKS \
           environment variable (default 1).")

let shards_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards"; "P" ] ~docv:"P"
        ~doc:
          "Number of cluster shards: independent EM machines joined by a metered BSP \
           interconnect.  Outputs and counted work are identical at any P; only the \
           communication ledger (rounds and words) changes.  When omitted, honours the \
           EM_SHARDS environment variable (default 1).")

let workload_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "random" ] | [ "random-perm" ] -> Ok Core.Workload.Random_perm
    | [ "sorted" ] -> Ok Core.Workload.Sorted
    | [ "reverse" ] | [ "reverse-sorted" ] -> Ok Core.Workload.Reverse_sorted
    | [ "pi-hard" ] -> Ok Core.Workload.Pi_hard
    | [ "organ-pipe" ] -> Ok Core.Workload.Organ_pipe
    | [ "few-distinct"; d ] -> (
        match int_of_string_opt d with
        | Some d when d > 0 -> Ok (Core.Workload.Few_distinct d)
        | _ -> Error (`Msg "few-distinct:<count> needs a positive count"))
    | [ "runs"; r ] -> (
        match int_of_string_opt r with
        | Some r when r > 0 -> Ok (Core.Workload.Runs r)
        | _ -> Error (`Msg "runs:<count> needs a positive count"))
    | [ "zipf"; sk ] -> (
        match float_of_string_opt sk with
        | Some sk when sk > 1. -> Ok (Core.Workload.Zipf sk)
        | _ -> Error (`Msg "zipf:<skew> needs a skew > 1"))
    | _ ->
        Error
          (`Msg
            "expected one of: random, sorted, reverse, pi-hard, organ-pipe, \
             few-distinct:<d>, runs:<r>, zipf:<skew>")
  in
  let print ppf k = Format.pp_print_string ppf (Core.Workload.kind_name k) in
  Arg.conv (parse, print)

let workload_t =
  Arg.(
    value
    & opt workload_conv Core.Workload.Random_perm
    & info [ "workload"; "w" ] ~docv:"KIND" ~doc:"Input layout (see --help).")

let backend_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Em.Backend.spec_of_string s) in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Em.Backend.spec_name s))

let backend_t =
  Arg.(
    value
    & opt (some backend_conv) None
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Storage backend: $(b,sim) (in-memory simulation, the default), $(b,file) (real \
           disk blocks, fsynced on flush), $(b,cached) or $(b,cached:file) (buffer-pool LRU \
           over sim/file).  Counted I/Os are identical on all of them.  When omitted, \
           honours the EM_BACKEND environment variable.")

let async_t =
  Arg.(
    value
    & opt ~vopt:(Some true) (some bool) None
    & info [ "async" ] ~docv:"BOOL"
        ~doc:
          "Execute file-backend I/O asynchronously on a pool of worker domains (one per \
           disk in flight; reads are prefetched, writes retire behind the computation).  \
           Counted reads/writes/rounds/comparisons and all outputs are identical with or \
           without it — async moves wall-clock time, never work.  No effect on the pure \
           $(b,sim) backend.  When omitted, honours the EM_ASYNC environment variable \
           (default off).")

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print debug logs of the recursions.")

(* The machine flags and the environment defaults behind them, checked once
   here so that a bad value is a one-line usage error (exit 124) on every
   subcommand instead of an uncaught exception from deep in [make_ctx]. *)
let validate c =
  let fail fmt = Printf.ksprintf (fun msg -> `Error (false, msg)) fmt in
  match c with
  | { block; _ } when block < 1 -> fail "--block must be at least 1 (got %d)" block
  | { mem; block; _ } when mem < 2 * block ->
      fail "--mem must hold at least two blocks, M >= 2B (got M=%d, B=%d)" mem block
  | { disks = Some d; _ } when d < 1 -> fail "--disks must be at least 1 (got %d)" d
  | _ -> (
      (* The environment defaults raise on malformed values. *)
      match
        ignore (Em.Params.default_disks ());
        if c.backend = None then ignore (Em.Backend.default_spec ());
        if c.async = None then ignore (Em.Params.default_async ())
      with
      | () -> `Ok c
      | exception Invalid_argument msg -> `Error (false, msg))

let common_t =
  let make verbose backend mem block disks async seed workload =
    validate { verbose; backend; mem; block; disks; async; seed; workload }
  in
  Term.(
    ret
      (const make $ verbose_t $ backend_t $ mem_t $ block_t $ disks_t $ async_t $ seed_t
     $ workload_t))

let n_t = Arg.(required & opt (some int) None & info [ "n" ] ~docv:"N" ~doc:"Input size.")

(* ---- shared fault/recovery flags (faults, serve, soak) ---- *)

let fault_kind_conv =
  let all =
    [
      Em.Fault.Transient_read;
      Em.Fault.Permanent_read;
      Em.Fault.Transient_write;
      Em.Fault.Permanent_write;
      Em.Fault.Torn_write;
      Em.Fault.Bit_corruption;
      Em.Fault.Crash;
    ]
  in
  let parse s =
    match List.find_opt (fun k -> Em.Fault.kind_name k = s) all with
    | Some k -> Ok k
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown fault kind %S (expected one of: %s)" s
               (String.concat ", " (List.map Em.Fault.kind_name all))))
  in
  Arg.conv (parse, fun ppf k -> Format.pp_print_string ppf (Em.Fault.kind_name k))

let fault_seed_t =
  Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Fault-schedule PRNG seed.")

(* [faults] defaults to an adversarial 1/64; long-running subcommands
   (serve, soak) default to a clean device — faults there are opt-in. *)
let fault_p_t ?(default = 1.0 /. 64.0) () =
  Arg.(
    value
    & opt float default
    & info [ "fault-p" ] ~docv:"P" ~doc:"Per-I/O fault probability (0 disables injection).")

let fault_kinds_t =
  Arg.(
    value
    & opt (list fault_kind_conv) [ Em.Fault.Transient_read; Em.Fault.Transient_write ]
    & info [ "fault-kinds" ] ~docv:"K1,K2,..."
        ~doc:
          "Fault kinds in the seeded mix: transient-read, permanent-read, transient-write, \
           permanent-write, torn-write, bit-corruption, crash.  Pair the silent write kinds \
           (torn-write, bit-corruption) with $(b,--verify-writes), or expect typed \
           corrupt-block failures.")

let max_retries_t =
  Arg.(value & opt int 3 & info [ "max-retries" ] ~docv:"N" ~doc:"Retry budget per I/O.")

(* Arm the device's recovery policy and inject a seeded plan iff [fault_p]
   is positive — the shared preamble of every fault-capable subcommand. *)
let arm_faults ?(verify_writes = false) ctx ~max_retries ~fault_p ~fault_seed ~fault_kinds =
  if fault_p > 0. then begin
    Em.Ctx.arm
      ~policy:{ Em.Device.default_policy with Em.Device.max_retries; verify_writes }
      ctx;
    Em.Ctx.inject ctx (Em.Fault.seeded ~seed:fault_seed ~p:fault_p fault_kinds)
  end

(* ---- shared run-function halves ---- *)

let setup_logs c =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if c.verbose then Some Logs.Debug else Some Logs.Warning)

let make_ctx ?trace c : int Em.Ctx.t =
  Em.Ctx.create ?trace ?backend:c.backend ?async:c.async ?disks:c.disks
    (Em.Params.create ~mem:c.mem ~block:c.block)

let workload_vec c ctx ~n = Core.Workload.vec ctx c.workload ~seed:c.seed ~n

let describe_machine ?(disks = 1) ~mem ~block () =
  Printf.printf "machine:      M=%d, B=%d (fanout M/B = %d)%s\n" mem block (mem / block)
    (if disks > 1 then Printf.sprintf ", D=%d disks" disks else "")

let describe_backend ctx =
  Printf.printf "backend:      %s%s\n" (Em.Ctx.backend_name ctx)
    (if Em.Ctx.async ctx then " (async)" else "")

let describe c ctx =
  describe_machine ~disks:(Em.Ctx.disks ctx) ~mem:c.mem ~block:c.block ();
  describe_backend ctx

(* Cost of the measured computation only, as reported by [Ctx.measured]
   (workload placement is free and outside the bracket either way). *)
let report_cost ctx (d : Em.Stats.delta) =
  Printf.printf "I/O:          %d (reads %d, writes %d)\n" (Em.Stats.delta_ios d)
    d.Em.Stats.d_reads d.Em.Stats.d_writes;
  if d.Em.Stats.d_rounds < Em.Stats.delta_ios d then
    Printf.printf "rounds:       %d (parallel disks, %.2fx compression)\n" d.Em.Stats.d_rounds
      (float_of_int (Em.Stats.delta_ios d) /. float_of_int (max 1 d.Em.Stats.d_rounds));
  (if d.Em.Stats.d_cache_hits > 0 || d.Em.Stats.d_cache_misses > 0 then
     let s = ctx.Em.Ctx.stats in
     Printf.printf "cache:        %d hits, %d misses (%d evictions)\n" d.Em.Stats.d_cache_hits
       d.Em.Stats.d_cache_misses s.Em.Stats.cache_evictions);
  Printf.printf "comparisons:  %d\n" d.Em.Stats.d_comparisons;
  Printf.printf "peak memory:  %d / %d words\n" ctx.Em.Ctx.stats.Em.Stats.mem_peak
    ctx.Em.Ctx.params.Em.Params.mem

let print_verified = function
  | Ok () -> Printf.printf "verification: OK\n"
  | Error msg ->
      Printf.printf "verification: FAILED (%s)\n" msg;
      exit 2

let spec_of ~n ~k ~a ~b =
  let b = Option.value b ~default:n in
  let spec = { Core.Problem.n; k; a; b } in
  (match Core.Problem.validate spec with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "invalid spec: %s\n" msg;
      exit 1);
  spec
