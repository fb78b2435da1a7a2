(* Crash-restartable multi-selection over Emalg.Restart.drive; see the
   interface.  The step boundaries are the phase boundaries of
   Multi_select's general case: one step for the distribution into groups,
   then one step per group. *)

type ('s, 'r) step_kind = ('s, 'r) Emalg.Restart.step = Next of 's | Done of 'r

type 'a state =
  | Start
  | Answering of {
      groups : 'a Multi_select.group list;  (* remaining groups, leftmost first *)
      results : 'a Em.Vec.t list;  (* answered groups on disk, newest first *)
    }

let vec_words v = Em.Vec.num_blocks v + 2

let state_words = function
  | Start -> 2
  | Answering { groups; results } ->
      List.fold_left
        (fun acc g -> acc + vec_words g.Multi_select.part + vec_words g.Multi_select.ranks)
        (List.fold_left (fun acc v -> acc + vec_words v) 2 results)
        groups

let check_ranks v ranks =
  let n = Em.Vec.length v in
  let prev = ref 0 in
  Array.iter
    (fun r ->
      if r <= !prev || r > n then
        invalid_arg "Restartable.select: ranks must be strictly increasing in [1, length v]";
      prev := r)
    ranks

let step cmp v ranks state =
  let ctx = Em.Vec.ctx v in
  match state with
  | Start -> (
      if Array.length ranks <= Multi_select.batch_size ctx then Done (Multi_select.select cmp v ~ranks)
      else
        let ictx : int Em.Ctx.t = Em.Ctx.linked ctx in
        let rv = Emalg.Scan.vec_of_array_io ictx ranks in
        match Multi_select.groups cmp v ~ranks:rv with
        | Some groups ->
            Em.Vec.free rv;
            Next (Answering { groups = Array.to_list groups; results = [] })
        | None ->
            let out = Multi_select.select_vec cmp v ~ranks:rv in
            Em.Vec.free rv;
            let selected = Emalg.Scan.array_of_vec_io out in
            Em.Vec.free out;
            Done selected)
  | Answering { groups = []; results } ->
      (* Load every group's answers, then free their blocks.  All metered
         reads happen before any free: a crash mid-load leaves the result
         vectors intact for the resumed step. *)
      let loaded = List.rev_map Emalg.Scan.array_of_vec_io results in
      List.iter Em.Vec.free results;
      Done (Array.concat loaded)
  | Answering { groups = g :: rest; results } ->
      (* The answers go to disk so the checkpoint holds only handles. *)
      let out = Em.Writer.with_writer ctx (fun w -> Multi_select.answer cmp g (Em.Writer.push w)) in
      Multi_select.free_group g;
      Next (Answering { groups = rest; results = out :: results })

let select ?max_restarts cmp v ~ranks =
  let ctx = Em.Vec.ctx v in
  Emalg.Layout.require_min_geometry ctx;
  check_ranks v ranks;
  Emalg.Restart.drive ctx ?max_restarts ~init:Start ~words:state_words
    ~step:(step cmp v ranks) ()
