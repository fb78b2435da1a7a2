(* Checkpointed, crash-restartable drivers; see the interface. *)

type ('s, 'r) step = Next of 's | Done of 'r

type 'r outcome = {
  result : ('r, Em.Em_error.t) result;
  restarts : int;
  saves : int;
  loads : int;
  save_ios : int;
  load_ios : int;
  max_step_ios : int;
}

let drive ctx ?(max_restarts = 100) ~init ~words ~step () =
  let cp = Em.Checkpoint.create ctx in
  let stats = ctx.Em.Ctx.stats in
  Em.Checkpoint.save cp ~words:(words init) init;
  let restarts = ref 0 in
  let max_step_ios = ref 0 in
  let rec run state =
    let before = Em.Stats.ios stats in
    let note_step () = max_step_ios := max !max_step_ios (Em.Stats.ios stats - before) in
    match step state with
    | Done r ->
        note_step ();
        Ok r
    | Next state' ->
        note_step ();
        Em.Checkpoint.save cp ~words:(words state') state';
        run state'
    | exception Em.Em_error.Error (Em.Em_error.Crashed _ as crash) ->
        note_step ();
        recover crash
    | exception Em.Em_error.Error e ->
        note_step ();
        Error e
  and recover crash =
    if !restarts >= max_restarts then Error crash
    else begin
      incr restarts;
      (* The crash wiped RAM: whatever the interrupted step had charged to
         the ledger is gone, and only the checkpoint slot survives. *)
      Em.Stats.wipe_memory stats;
      match Em.Checkpoint.load cp with
      | Some state -> run state
      | None -> assert false (* [init] was saved before the first step *)
      | exception Em.Em_error.Error (Em.Em_error.Crashed _ as crash') ->
          (* Crashing again mid-resume costs another restart. *)
          recover crash'
    end
  in
  let result = run init in
  {
    result;
    restarts = !restarts;
    saves = Em.Checkpoint.saves cp;
    loads = Em.Checkpoint.loads cp;
    save_ios = Em.Checkpoint.save_ios cp;
    load_ios = Em.Checkpoint.load_ios cp;
    max_step_ios = !max_step_ios;
  }
