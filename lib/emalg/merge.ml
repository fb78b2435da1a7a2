let max_fanout ctx =
  let m = Em.Ctx.mem_capacity ctx and b = Em.Ctx.block_size ctx in
  max 1 ((m - b) / (b + 2))

(* The merge proper, with its output abstracted: [output body] runs [body]
   with the function that receives the merged elements in order. *)
let merge_with (type e) (cmp : e -> e -> int) (vecs : e Em.Vec.t list) ~output =
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
      let runs = Array.of_list vecs in
      let readers = Array.map Em.Reader.open_vec runs in
      (* Scheduler scratch, allocated once per merge: the disks a refill
         window has taken, and the runs in need-order. *)
      let taken = Array.make d false and order = Array.make nruns 0 in
      let forecast_refill i =
        Em.Ctx.io_window ctx (fun () ->
            (* The faulting run's block is mandatory (it rides the reader's
               base charge, so it always succeeds). *)
            Array.fill taken 0 d false;
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
               few runs.  [order] holds depth * nruns + run, so sorting it
               orders the runs by (depth, run index). *)
            Array.iteri
              (fun j r -> order.(j) <- (Em.Reader.buffered_blocks r * nruns) + j)
              readers;
            Array.sort Int.compare order;
            let budget = ref (d - 1) in
            let progress = ref true in
            while !budget > 0 && !progress do
              progress := false;
              Array.iter
                (fun key ->
                  let j = key mod nruns in
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
      (* A tournament tree of losers over the runs.  Runs are the leaves
         nruns .. 2 nruns - 1 of an implicit complete binary tree, so a leaf
         is at most ceil(lg nruns) matches below the root.  [tree.(n)] for an
         internal node n in 1 .. nruns - 1 holds the run that lost the match
         there, and [tree.(0)] the overall winner; -1 stands for an
         exhausted run, which loses every match without a comparison.  Ties
         break by run index, which makes the merge stable with respect to
         the run order (runs are formed and merged in input order). *)
      let tree = Array.make nruns (-1) in
      let run () =
        Em.Ctx.with_words ctx (2 * nruns) (fun () ->
            (* The output opens before the tree pulls the first element, so
               every mandatory charge lands before the readers' opportunistic
               read-ahead starts nibbling at the spare budget. *)
            output (fun push ->
                (* Initial fill: every run faults on its first block, so
                   group those mandatory reads D to a window (each rides its
                   reader's base charge — no ledger pressure).  The heads
                   array is made from the first head read. *)
                let heads = ref [||] in
                let i = ref 0 in
                while !i < nruns do
                  let hi = min nruns (!i + d) in
                  Em.Ctx.io_window ctx (fun () ->
                      for j = !i to hi - 1 do
                        if Em.Reader.has_next readers.(j) then begin
                          let x = Em.Reader.next readers.(j) in
                          if Array.length !heads = 0 then heads := Array.make nruns x;
                          !heads.(j) <- x
                        end
                      done);
                  i := hi
                done;
                let keys = !heads in
                let beats i j =
                  j < 0
                  || i >= 0
                     &&
                     let c = cmp keys.(i) keys.(j) in
                     c < 0 || (c = 0 && i < j)
                in
                let rec build node =
                  if node >= nruns then
                    let i = node - nruns in
                    if Em.Vec.length runs.(i) > 0 then i else -1
                  else
                    let l = build (2 * node) and r = build ((2 * node) + 1) in
                    if beats l r then begin
                      tree.(node) <- r;
                      l
                    end
                    else begin
                      tree.(node) <- l;
                      r
                    end
                in
                tree.(0) <- build 1;
                (* Run [i]'s next head, or -1 once the run is exhausted. *)
                let next_head i =
                  let r = readers.(i) in
                  if Em.Reader.has_next r then begin
                    if d > 1 && Em.Reader.pending_io r then forecast_refill i;
                    keys.(i) <- Em.Reader.next r;
                    i
                  end
                  else -1
                in
                (* Emit the winner, then replay its leaf up to the root with
                   its next head, or as exhausted. *)
                match Em.Ctx.int_keys ctx cmp with
                | None ->
                    while tree.(0) >= 0 do
                      let i = tree.(0) in
                      push keys.(i);
                      let w = ref (next_head i) in
                      let node = ref ((nruns + i) / 2) in
                      while !node > 0 do
                        let t = tree.(!node) in
                        if beats t !w then begin
                          tree.(!node) <- !w;
                          w := t
                        end;
                        node := !node / 2
                      done;
                      tree.(0) <- !w
                    done
                | Some Type.Equal ->
                    (* [beats] on ints, inline, counting each comparison as
                       the machine's counted [Int.compare] would. *)
                    let keys : int array = keys and stats = ctx.Em.Ctx.stats in
                    while tree.(0) >= 0 do
                      let i = tree.(0) in
                      push keys.(i);
                      let w = ref (next_head i) in
                      let node = ref ((nruns + i) / 2) in
                      while !node > 0 do
                        let t = tree.(!node) in
                        if
                          !w < 0
                          || t >= 0
                             && begin
                                  stats.comparisons <- stats.comparisons + 1;
                                  let kt = keys.(t) and kw = keys.(!w) in
                                  kt < kw || (kt = kw && t < !w)
                                end
                        then begin
                          tree.(!node) <- !w;
                          w := t
                        end;
                        node := !node / 2
                      done;
                      tree.(0) <- !w
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
