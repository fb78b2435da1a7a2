(* Constructive reductions of Section 3 and Lemma 5; see the interface. *)

(* Split a buffer vector into its [count] smallest elements and the rest.
   The buffer is consumed. *)
let cut_buffer cmp r ~count =
  let low, high = Emalg.Em_select.split_at cmp r ~rank:count in
  Em.Vec.free r;
  (low, high)

let precise_by_approximate cmp v ~chunk =
  if chunk < 1 then invalid_arg "Reduction.precise_by_approximate: chunk must be >= 1";
  let ctx = Em.Vec.ctx v in
  let n = Em.Vec.length v in
  if n = 0 then [||]
  else begin
    let k = (n + chunk - 1) / chunk in
    (* Step 1: left-grounded approximate K-partitioning with b = chunk. *)
    let spec = { Problem.n; k; a = 0; b = min chunk n } in
    let approx = Partitioning.solve cmp v spec in
    (* Step 2: stream the partitions through the buffer R, emitting an exact
       [chunk]-sized partition whenever R holds more than [chunk] elements.
       Each append is a copy scan and each cut is linear in |R| <= 2*chunk,
       so the whole pass is O(N/B). *)
    let out = ref [] in
    let buffer = ref (Em.Vec.empty ctx) in
    let append part =
      let merged =
        Em.Writer.with_writer ctx (fun w ->
            Emalg.Scan.append w !buffer;
            Emalg.Scan.append w part)
      in
      Em.Vec.free !buffer;
      buffer := merged
    in
    Array.iter
      (fun part ->
        append part;
        Em.Vec.free part;
        while Em.Vec.length !buffer > chunk do
          let low, high = cut_buffer cmp !buffer ~count:chunk in
          out := low :: !out;
          buffer := high
        done)
      approx;
    if Em.Vec.length !buffer > 0 then out := !buffer :: !out
    else Em.Vec.free !buffer;
    Array.of_list (List.rev !out)
  end

let sort_by_partitioning cmp v =
  let ctx = Em.Vec.ctx v in
  let b = Em.Ctx.block_size ctx in
  let parts = precise_by_approximate cmp v ~chunk:b in
  (* Each partition fits in one block: sort it in memory and emit. *)
  Em.Writer.with_writer ctx (fun w ->
      Array.iter
        (fun part ->
          Emalg.Scan.with_loaded part (fun a ->
              Emalg.Mem_sort.sort cmp a;
              Array.iter (Em.Writer.push w) a);
          Em.Vec.free part)
        parts)
