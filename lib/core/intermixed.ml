(* See the interface for the algorithm.  Internally every key is paired with
   its position in D ("seq") so keys are pairwise distinct and the classic
   median-of-medians recurrence applies verbatim even with duplicates. *)

let max_groups ctx =
  let m = Em.Ctx.mem_capacity ctx and b = Em.Ctx.block_size ctx in
  max 1 ((m - (2 * b)) / 100)

let log_src = Logs.Src.create "core.intermixed" ~doc:"Intermixed selection recursion"

module Log = (val Logs.src_log log_src : Logs.LOG)

let seq_cmp = Emalg.Order.tagged

(* Solve a small instance entirely in memory: sort by (group, key) so each
   group is a contiguous segment, then index into the segments. *)
let solve_in_memory kcmp pairs targets =
  let l = Array.length targets in
  let by_group_then_key (x1, g1) (x2, g2) =
    let c = Int.compare g1 g2 in
    if c <> 0 then c else kcmp x1 x2
  in
  Array.sort by_group_then_key pairs;
  let results = Array.make l None in
  let segment_start = ref 0 in
  let n = Array.length pairs in
  for i = 0 to n - 1 do
    let _, g = pairs.(i) in
    if i + 1 = n || snd pairs.(i + 1) <> g then begin
      (* pairs.(!segment_start .. i) is group g. *)
      let t = targets.(g) in
      results.(g) <- Some (fst pairs.(!segment_start + t - 1));
      segment_start := i + 1
    end
  done;
  Array.map
    (function
      | Some x -> x
      | None -> invalid_arg "Intermixed.select: a group has no elements")
    results

let spill_ints ictx a = Emalg.Scan.vec_of_array_io ictx a

(* Phase 1: one scan that cuts every group into subgroups of <= 5 and writes
   each subgroup's median to sigma.  Returns the per-group sigma counts
   (callee charges and releases its own scratch; the returned array is
   charged by the caller). *)
let subgroup_medians kcmp ctx d ~l =
  let stash_words = (5 * l) + l + l in
  Em.Ctx.with_words ctx stash_words (fun () ->
      let stash = Array.make (5 * l) None in
      let fill = Array.make l 0 in
      let sigma_counts = Array.make l 0 in
      let flush_group w g =
        let s = fill.(g) in
        if s > 0 then begin
          let members =
            Array.init s (fun i ->
                match stash.((5 * g) + i) with
                | Some x -> x
                | None -> assert false)
          in
          let median = Emalg.Select_mem.select kcmp members ~rank:((s + 1) / 2) in
          Em.Writer.push w (median, g);
          sigma_counts.(g) <- sigma_counts.(g) + 1;
          fill.(g) <- 0
        end
      in
      let sigma =
        Em.Writer.with_writer (Em.Vec.ctx d) (fun w ->
            Emalg.Scan.iter
              (fun (x, g) ->
                stash.((5 * g) + fill.(g)) <- Some x;
                fill.(g) <- fill.(g) + 1;
                if fill.(g) = 5 then flush_group w g)
              d;
            for g = 0 to l - 1 do
              flush_group w g
            done)
      in
      (sigma, sigma_counts))

(* [go] owns [d] and [tvec]: it frees both, also when it raises. *)
let rec go cmp ctx d tvec =
  let kcmp = seq_cmp cmp in
  let l = Em.Vec.length tvec in
  let n = Em.Vec.length d in
  let base = Emalg.Layout.half_load ctx in
  let owned = ref true in
  let release () =
    if !owned then begin
      owned := false;
      Em.Vec.free d;
      Em.Vec.free tvec
    end
  in
  match
    if n + l <= base then
      `Solved
        (Em.Ctx.with_words ctx l (fun () ->
             let targets = Emalg.Scan.array_of_vec_io tvec in
             Emalg.Scan.with_loaded d (fun pairs -> solve_in_memory kcmp pairs targets)))
    else begin
      Log.debug (fun m -> m "level: |D|=%d L=%d" n l);
      let ictx = Em.Vec.ctx tvec in
      (* Phase 1: subgroup medians into sigma; derive the median targets. *)
      let sigma, t'vec =
        Em.Ctx.with_words ctx l (fun () ->
            let sigma, sigma_counts = subgroup_medians kcmp ctx d ~l in
            let t' = Array.map (fun c -> (c + 1) / 2) sigma_counts in
            match spill_ints ictx t' with
            | t'vec -> (sigma, t'vec)
            | exception e ->
                Em.Vec.free sigma;
                raise e)
      in
      (* Phase 2: recurse for the per-group medians of sigma.  Nothing from
         this frame stays charged across the call. *)
      let mu = go cmp ctx sigma t'vec in
      (* Phase 3: rank of mu_g within its group, original targets, and the
         shrunken instance D'. *)
      Em.Ctx.with_words ctx l (fun () ->
          Em.Ctx.with_words ctx (3 * l) (fun () ->
              let theta = Array.make l 0 in
              Emalg.Scan.iter
                (fun (x, g) -> if kcmp x mu.(g) <= 0 then theta.(g) <- theta.(g) + 1)
                d;
              let targets = Emalg.Scan.array_of_vec_io tvec in
              let t'' = Array.make l 0 in
              for g = 0 to l - 1 do
                if targets.(g) <= theta.(g) then t''.(g) <- targets.(g)
                else t''.(g) <- targets.(g) - theta.(g)
              done;
              let d' =
                Em.Writer.with_writer (Em.Vec.ctx d) (fun w ->
                    Emalg.Scan.iter
                      (fun (x, g) ->
                        let keep =
                          if targets.(g) <= theta.(g) then kcmp x mu.(g) <= 0
                          else kcmp x mu.(g) > 0
                        in
                        if keep then Em.Writer.push w (x, g))
                      d)
              in
              release ();
              match spill_ints ictx t'' with
              | t''vec -> `Shrunk (d', t''vec)
              | exception e ->
                  Em.Vec.free d';
                  raise e))
    end
  with
  | `Solved result ->
      release ();
      result
  | `Shrunk (d', t''vec) -> go cmp ctx d' t''vec
  | exception e ->
      release ();
      raise e

let select cmp d ~targets =
  let ctx = Em.Vec.ctx d in
  Emalg.Layout.require_min_geometry ctx;
  let l = Array.length targets in
  if l = 0 then [||]
  else begin
    if l > max_groups ctx then
      invalid_arg "Intermixed.select: too many groups for the memory budget";
    (* Validate group ids and targets with one counting scan. *)
    Em.Ctx.with_words ctx l (fun () ->
        let counts = Array.make l 0 in
        Emalg.Scan.iter
          (fun (_, g) ->
            if g < 0 || g >= l then
              invalid_arg "Intermixed.select: group id out of range";
            counts.(g) <- counts.(g) + 1)
          d;
        Array.iteri
          (fun g t ->
            if t < 1 || t > counts.(g) then
              invalid_arg "Intermixed.select: target rank out of range for its group")
          targets);
    (* Tag keys with their position for distinctness, spill the targets, and
       run the recursion on owned copies. *)
    let dctx = Em.Ctx.linked ctx in
    let ictx = Em.Ctx.linked ctx in
    let seq = ref (-1) in
    let d0 =
      Emalg.Scan.map_into dctx
        (fun (x, g) ->
          incr seq;
          ((x, !seq), g))
        d
    in
    let tvec =
      match spill_ints ictx targets with
      | tvec -> tvec
      | exception e ->
          Em.Vec.free d0;
          raise e
    in
    let tagged_results =
      Em.Phase.with_label ctx "intermixed" (fun () -> go cmp ctx d0 tvec)
    in
    Array.map fst tagged_results
  end
