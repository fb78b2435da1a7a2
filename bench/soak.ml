(* Chaos soak: online multiselection sessions under scheduled kills and
   fault plans, gated against the crash-free oracle.

   Each config drives the same seeded select/quantile stream twice through
   [Core.Soak] — once uninterrupted, once with k kill/restore cycles (and
   optionally a seeded transient-fault plan) — and checks the
   crash-survivability contract: restored answers equal the oracle's and
   total I/Os stay within the k-crash overhead bound

     oracle + resume loads + k * (one checkpoint save + one re-sorted
                                  memory load).

   One gated ratio comes out (test/golden/ratios.expected):

   - soak_overhead: the worst chaos/allowed I/O ratio across configs — must
     stay <= 1; an answer mismatch or a memory-ledger breach forces it to
     infinity, so correctness failures trip the same gate. *)

module J = Em.Json

let n_default = 1 lsl 16
let queries = 96

let configs n =
  let base = Core.Soak.default ~n ~queries in
  let crashes k = Core.Soak.spread_crashes ~queries ~k in
  let cached =
    match Em.Backend.spec_of_string "cached" with Ok s -> Some s | Error _ -> None
  in
  [
    ("soak_k1_sim", { base with Core.Soak.crash_after = crashes 1 });
    ("soak_k3_sim", { base with Core.Soak.crash_after = crashes 3 });
    ( "soak_k3_cached",
      { base with Core.Soak.crash_after = crashes 3; backend = cached } );
    ( "soak_k2_faulted",
      {
        base with
        Core.Soak.crash_after = crashes 2;
        fault_p = 1.0 /. 512.0;
        fault_seed = 7;
      } );
  ]

let all () =
  let n = Exp.scaled n_default in
  Exp.section
    (Printf.sprintf
       "Chaos soak — kills/restores vs the crash-free oracle   [N=%d, Q=%d, %s]" n
       queries
       (Exp.machine_name Exp.default_machine));
  let rows = ref [] in
  let results =
    List.map
      (fun (name, cfg) ->
        let o = Core.Soak.run cfg in
        let ratio =
          if o.Core.Soak.answers_match && o.Core.Soak.mem_ok then
            float_of_int o.Core.Soak.chaos_ios /. float_of_int o.Core.Soak.allowed_ios
          else infinity
        in
        rows :=
          J.Obj
            [
              ("row", J.Str name);
              ( "geometry",
                J.Obj
                  [
                    ("n", J.Int cfg.Core.Soak.n);
                    ("mem", J.Int cfg.Core.Soak.mem);
                    ("block", J.Int cfg.Core.Soak.block);
                    ("queries", J.Int cfg.Core.Soak.queries);
                    ("crashes", J.Int o.Core.Soak.crashes);
                    ("fault_p", J.Float cfg.Core.Soak.fault_p);
                  ] );
              ( "measured",
                J.Obj
                  [
                    ("oracle_ios", J.Int o.Core.Soak.oracle_ios);
                    ("chaos_ios", J.Int o.Core.Soak.chaos_ios);
                    ("allowed_ios", J.Int o.Core.Soak.allowed_ios);
                    ("saves", J.Int o.Core.Soak.saves);
                    ("save_ios", J.Int o.Core.Soak.save_ios);
                    ("loads", J.Int o.Core.Soak.loads);
                    ("load_ios", J.Int o.Core.Soak.load_ios);
                    ("resort_allowance", J.Int o.Core.Soak.resort_allowance);
                    ("retries", J.Int o.Core.Soak.retries);
                    ("answers_match", J.Bool o.Core.Soak.answers_match);
                    ("mem_ok", J.Bool o.Core.Soak.mem_ok);
                  ] );
              ("ratio", J.Float ratio);
            ]
          :: !rows;
        (name, o, ratio))
      (configs n)
  in
  Exp.table
    ~header:
      [ "config"; "crashes"; "oracle I/O"; "chaos I/O"; "allowed"; "ratio"; "retries"; "answers" ]
    (List.map
       (fun (name, o, ratio) ->
         [
           name;
           string_of_int o.Core.Soak.crashes;
           string_of_int o.Core.Soak.oracle_ios;
           string_of_int o.Core.Soak.chaos_ios;
           string_of_int o.Core.Soak.allowed_ios;
           Exp.fmt_ratio ratio;
           string_of_int o.Core.Soak.retries;
           (if o.Core.Soak.answers_match then "match" else "MISMATCH");
         ])
       results);
  let worst = List.fold_left (fun acc (_, _, r) -> Float.max acc r) neg_infinity results in
  Printf.printf
    "  => worst chaos/allowed ratio %.3f (crash overhead within the k-crash bound if <= 1)\n"
    worst;
  Exp.write_artifact ~bench:"soak" (List.rev !rows);
  [ ("soak_overhead", worst) ]
