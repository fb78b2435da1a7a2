(* External merge sort as one step function: one formed run per step, then
   one balanced merge group per step.  [sort] runs the steps back to back;
   [restartable] runs the very same steps under [Restart.drive], so both
   entry points make the same reads, writes and comparisons.

   All bulk data lives on the device; a state holds only handles (the block
   ids of already-written runs and the input), so its serialized size is a
   handful of words per run. *)

type 'a state =
  | Forming of { consumed : int; runs : 'a Em.Vec.t list (* newest first *) }
  | Merging of { pending : 'a Em.Vec.t list; merged : 'a Em.Vec.t list (* newest first *) }

(* Sort the next memory load of [v], starting at element [consumed] (a
   block boundary), and write it back as a run.  Reading a whole-block
   window through a sub-vector keeps the step independent of any scan state
   lost in a crash. *)
let form_run cmp v consumed =
  let ctx = Em.Vec.ctx v in
  let b = Em.Ctx.block_size ctx in
  let load = Layout.load_size ctx ~reserved_blocks:2 in
  let len = min (Em.Vec.length v - consumed) (max 1 (load / b) * b) in
  let nblocks = Em.Params.blocks_of_elems ctx.Em.Ctx.params len in
  let first_block = consumed / b in
  let window =
    Em.Vec.of_blocks ctx (Array.init nblocks (fun i -> Em.Vec.block_id v (first_block + i))) len
  in
  let run =
    Em.Phase.with_label ctx "run-formation" (fun () ->
        Scan.with_loaded window (fun chunk ->
            Mem_sort.sort_on ctx cmp chunk;
            Scan.vec_of_array_io ctx chunk))
  in
  (run, consumed + len)

let split_at n list =
  let rec go n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (n - 1) (x :: acc) rest
  in
  go n [] list

(* One merge group of the current pass, over [(pending, merged)]: the runs
   still to merge in this pass, and the pass's outputs so far. *)
let merge_step ?fanin cmp = function
  | [], [ out ] | [ out ], [] -> Restart.Done out
  | [], merged -> Next (List.rev merged, [])
  | (first :: _ as pending), merged ->
      let ctx = Em.Vec.ctx first in
      let fanout = match fanin with Some f -> f | None -> Merge.max_fanout ctx in
      (* Balance group sizes across the pass (ceil(n/groups) runs per merge
         rather than greedy fanout-sized groups).  The group {e count} —
         hence the pass count and the I/O count — is unchanged, but no merge
         sits at the exact fanout limit, so block buffers stay spare for the
         parallel-disk pipeline (forecast read-ahead and write-behind) inside
         each merge. *)
      let remaining = List.length pending in
      let groups = (remaining + fanout - 1) / fanout in
      let group, rest = split_at ((remaining + groups - 1) / groups) pending in
      let out = Em.Phase.with_label ctx "merge" (fun () -> Merge.merge cmp group) in
      (* Only reached when the merge completed: a crash inside [Merge.merge]
         unwinds before this free, so the group is still intact (and still
         referenced by the last checkpoint) on resume. *)
      List.iter Em.Vec.free group;
      Next (rest, out :: merged)

let step cmp v = function
  | Forming { consumed; runs } when consumed < Em.Vec.length v ->
      let run, consumed = form_run cmp v consumed in
      Restart.Next (Forming { consumed; runs = run :: runs })
  | Forming { runs = []; _ } -> Done (Em.Vec.empty (Em.Vec.ctx v))
  | Forming { runs = [ single ]; _ } -> Done single
  | Forming { runs; _ } -> Next (Merging { pending = List.rev runs; merged = [] })
  | Merging { pending; merged } -> (
      match merge_step cmp (pending, merged) with
      | Done out -> Done out
      | Next (pending, merged) -> Next (Merging { pending; merged }))

let rec run_steps step state =
  match step state with Restart.Done r -> r | Next state -> run_steps step state

let start = Forming { consumed = 0; runs = [] }

let run_formation cmp v =
  Layout.require_min_geometry (Em.Vec.ctx v);
  let rec go consumed runs =
    if consumed >= Em.Vec.length v then List.rev runs
    else
      let run, consumed = form_run cmp v consumed in
      go consumed (run :: runs)
  in
  go 0 []

let merge_passes cmp = function
  | [] -> invalid_arg "External_sort.merge_passes: no runs"
  | runs -> run_steps (merge_step cmp) (runs, [])

let sort cmp v =
  Layout.require_min_geometry (Em.Vec.ctx v);
  run_steps (step cmp v) start

let state_words state =
  let runs_words = List.fold_left (fun acc r -> acc + Em.Vec.num_blocks r + 2) 2 in
  match state with
  | Forming { runs; _ } -> runs_words runs
  | Merging { pending; merged } -> runs_words (pending @ merged)

(* Whether [n] elements sort in one merge pass with the words free now:
   runs of [big_load] elements, a reader buffer and two merge words (a key
   and a tree slot) per run, beside one more block buffer the caller opens
   for the merge (an output writer the caller holds is already open, so
   already counted). *)
let one_merge ctx n =
  let b = Em.Ctx.block_size ctx and big = Layout.big_load ctx in
  let free = Em.Ctx.mem_capacity ctx - ctx.Em.Ctx.stats.Em.Stats.mem_in_use in
  (n + big - 1) / big <= (free - b) / (b + 2)

let with_sorted cmp v f =
  let ctx = Em.Vec.ctx v in
  let b = Em.Ctx.block_size ctx in
  let free = Em.Ctx.mem_capacity ctx - ctx.Em.Ctx.stats.Em.Stats.mem_in_use in
  let fanin = max 2 ((free - b) / (b + 2)) in
  (* The live runs: those of a pass still to merge, and its outputs so far
     (newest first). *)
  let live = ref ([], []) in
  let rec reduce () =
    match !live with
    | [], merged ->
        live := (List.rev merged, []);
        reduce ()
    | pending, [] when List.length pending <= fanin -> ()
    | state ->
        (match merge_step ~fanin cmp state with
        | Restart.Next state -> live := state
        | Done run -> live := ([ run ], []));
        reduce ()
  in
  Fun.protect
    ~finally:(fun () -> List.iter Em.Vec.free (fst !live @ snd !live))
    (fun () ->
      Em.Phase.with_label ctx "run-formation" (fun () ->
          Scan.chunks ~size:(Layout.big_load ctx)
            (fun load ->
              Mem_sort.sort_on ctx cmp load;
              live := (Scan.vec_of_array_io ctx load :: fst !live, []))
            v);
      live := (List.rev (fst !live), []);
      reduce ();
      f (fun emit -> Em.Phase.with_label ctx "merge" (fun () -> Merge.iter cmp (fst !live) emit)))

let restartable ?max_restarts cmp v =
  let ctx = Em.Vec.ctx v in
  Layout.require_min_geometry ctx;
  Restart.drive ctx ?max_restarts ~init:start ~words:state_words ~step:(step cmp v) ()
