type 'a t = { ctx : 'a Ctx.t; blocks : int array; len : int }

let ctx v = v.ctx
let length v = v.len
let num_blocks v = Array.length v.blocks
let block_ids v = Array.copy v.blocks

let block_id v i =
  if i < 0 || i >= Array.length v.blocks then
    invalid_arg "Vec.block_id: block index out of bounds";
  Array.unsafe_get v.blocks i

let empty ctx = { ctx; blocks = [||]; len = 0 }

let of_blocks ctx blocks len =
  let needed = Params.blocks_of_elems ctx.Ctx.params len in
  if Array.length blocks <> needed then
    invalid_arg "Vec.of_blocks: block count does not match length";
  { ctx; blocks = Array.copy blocks; len }

let of_array ctx a =
  let b = Ctx.block_size ctx in
  let len = Array.length a in
  let nblocks = Params.blocks_of_elems ctx.Ctx.params len in
  let blocks = Array.init nblocks (fun _ -> Device.alloc ctx.Ctx.dev) in
  for i = 0 to nblocks - 1 do
    let lo = i * b in
    let hi = min len (lo + b) in
    Device.Oracle.write ctx.Ctx.dev blocks.(i) (Array.sub a lo (hi - lo))
  done;
  { ctx; blocks; len }

let free v = Array.iter (Device.free v.ctx.Ctx.dev) v.blocks

let block_io v i =
  if i < 0 || i >= Array.length v.blocks then
    invalid_arg "Vec.block_io: block index out of bounds";
  Resilient.read v.ctx.Ctx.dev v.blocks.(i)

let get_io v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get_io: index out of bounds";
  let b = Ctx.block_size v.ctx in
  let payload = block_io v (i / b) in
  payload.(i mod b)

let concat_free vs =
  match vs with
  | [] -> invalid_arg "Vec.concat_free: empty list"
  | first :: _ ->
      let ctx = first.ctx in
      let b = Ctx.block_size ctx in
      let rec check = function
        | [] | [ _ ] -> ()
        | v :: rest ->
            if v.len mod b <> 0 then
              invalid_arg "Vec.concat_free: non-final vector has a partial last block";
            check rest
      in
      check vs;
      let blocks = Array.concat (List.map (fun v -> v.blocks) vs) in
      let len = List.fold_left (fun acc v -> acc + v.len) 0 vs in
      { ctx; blocks; len }

module Oracle = struct
  let to_array v =
    let b = Ctx.block_size v.ctx in
    match v.len with
    | 0 -> [||]
    | len ->
        let first = Device.Oracle.read v.ctx.Ctx.dev v.blocks.(0) in
        let out = Array.make len first.(0) in
        Array.iteri
          (fun i id ->
            let payload = Device.Oracle.read v.ctx.Ctx.dev id in
            Array.blit payload 0 out (i * b) (Array.length payload))
          v.blocks;
        out

  let get v i =
    if i < 0 || i >= v.len then invalid_arg "Vec.Oracle.get: index out of bounds";
    let b = Ctx.block_size v.ctx in
    let payload = Device.Oracle.read v.ctx.Ctx.dev v.blocks.(i / b) in
    payload.(i mod b)
end
