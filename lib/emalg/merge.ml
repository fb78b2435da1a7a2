let max_fanout ctx =
  let m = Em.Ctx.mem_capacity ctx and b = Em.Ctx.block_size ctx in
  max 1 ((m - b) / (b + 2))

(* The merge proper, with its output abstracted: [output body] runs [body]
   with the function that receives the merged elements in order. *)
let merge_with cmp vecs ~output =
  match vecs with
  | [] -> invalid_arg "Merge.merge: no input runs"
  | first :: _ ->
      let ctx = Em.Vec.ctx first in
      let nruns = List.length vecs in
      if nruns > max_fanout ctx then
        invalid_arg "Merge.merge: too many runs for the memory budget";
      let d = Em.Ctx.disks ctx in
      (* Refills are batched by {e forecasting} (Vitter-Shriver): when run
         [i] faults, the runs the merge will drain next can ride the same
         scheduling window as [i]'s mandatory read.  Blocks stripe
         round-robin, so the window picks at most one block per disk — one
         parallel round when the budget lets every prefetch land.
         Read-ahead charges are opportunistic: a merge at the fanout limit
         has no spare budget and degrades to single-block refills.  The
         output writer symmetrically queues up to D - 1 filled blocks per
         drain window. *)
      let readers = Array.of_list (List.map Em.Reader.open_vec vecs) in
      let forecast_refill i =
        Em.Ctx.io_window ctx (fun () ->
            (* The faulting run's block is mandatory (it rides the reader's
               base charge, so it always succeeds). *)
            let taken = Array.make d false in
            (match Em.Reader.next_disk readers.(i) with
            | Some disk -> taken.(disk) <- true
            | None -> ());
            ignore (Em.Reader.prefetch_next readers.(i) : bool);
            (* Fill the window's remaining D - 1 slots with the blocks the
               merge will need soonest, one block per free disk.  Need-order
               is approximated by read-ahead depth (shallowest queue faults
               soonest) instead of comparing last-buffered keys: scheduling
               must not change the comparison count — work is D-invariant,
               only rounds compress.  Re-sweeping deepens each run's
               read-ahead — consecutive blocks stripe onto consecutive
               disks — so a low-fanout merge still fills its window from
               few runs. *)
            let order =
              Array.to_list readers
              |> List.mapi (fun j r -> (Em.Reader.buffered_blocks r, j))
              |> List.sort compare
            in
            let budget = ref (d - 1) in
            let progress = ref true in
            while !budget > 0 && !progress do
              progress := false;
              List.iter
                (fun (_, j) ->
                  if !budget > 0 then
                    match Em.Reader.next_disk readers.(j) with
                    | Some disk when not taken.(disk) ->
                        if Em.Reader.prefetch_next readers.(j) then begin
                          taken.(disk) <- true;
                          decr budget;
                          progress := true
                        end
                    | _ -> ())
                order
            done)
      in
      (* Ties break by run index, which makes the merge stable with respect
         to the run order (runs are formed and merged in input order). *)
      let heap_cmp (x, i) (y, j) =
        let c = cmp x y in
        if c <> 0 then c else Int.compare i j
      in
      let run () =
        Em.Ctx.with_words ctx (2 * nruns) (fun () ->
            let heap = Heap.create ~cmp:heap_cmp ~capacity:nruns in
            (* The output opens before the heap pulls the first element, so
               every mandatory charge lands before the readers' opportunistic
               read-ahead starts nibbling at the spare budget. *)
            output (fun push ->
                (* Initial fill: every run faults on its first block, so
                   group those mandatory reads D to a window (each rides its
                   reader's base charge — no ledger pressure). *)
                let i = ref 0 in
                while !i < nruns do
                  let hi = min nruns (!i + d) in
                  Em.Ctx.io_window ctx (fun () ->
                      for j = !i to hi - 1 do
                        if Em.Reader.has_next readers.(j) then
                          Heap.push heap (Em.Reader.next readers.(j), j)
                      done);
                  i := hi
                done;
                while not (Heap.is_empty heap) do
                  let e, i = Heap.pop heap in
                  push e;
                  let r = readers.(i) in
                  if Em.Reader.has_next r then begin
                    if d > 1 && Em.Reader.pending_io r then forecast_refill i;
                    Heap.push heap (Em.Reader.next r, i)
                  end
                done))
      in
      (* [close] is idempotent, so closing on both paths is safe; without the
         exception arm a failed I/O would leak every reader's buffer words. *)
      (match run () with
      | out ->
          Array.iter Em.Reader.close readers;
          out
      | exception e ->
          Array.iter Em.Reader.close readers;
          raise e)

let merge cmp vecs =
  match vecs with
  | [] -> invalid_arg "Merge.merge: no input runs"
  | first :: _ ->
      let ctx = Em.Vec.ctx first in
      merge_with cmp vecs ~output:(fun body ->
          Em.Writer.with_writer ~write_behind:(Em.Ctx.disks ctx - 1) ctx (fun w ->
              body (Em.Writer.push w)))

let iter cmp vecs f = merge_with cmp vecs ~output:(fun body -> body f)
