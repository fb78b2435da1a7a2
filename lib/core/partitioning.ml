(* Approximate K-partitioning (Theorem 6); see the interface. *)

let check v spec =
  Problem.validate_exn spec;
  if spec.Problem.n <> Em.Vec.length v then
    invalid_arg "Partitioning: spec.n does not match the input length"

(* The one dispatch, shared by both output modes.  Every regime
   multi-partitions at the plan's cuts below [n] (a cut at [n] closes an
   empty trailing partition); right-grounded first cuts off its large last
   partition with one exact selection and multi-partitions only the [a(K-1)]
   smallest elements.  Returns the vector to multi-partition, the number of
   cuts inside it, and that owned last partition, if any. *)
let plan cmp v spec =
  let { Problem.k; a; _ } = spec in
  match Problem.classify spec with
  | Problem.Right_grounded when k > 1 ->
      let low, high = Emalg.Em_select.split_at cmp v ~rank:(a * (k - 1)) in
      (low, k - 2, Some high)
  | _ -> (v, Problem.nonempty spec - 1, None)

(* Run [f] on the first [count] cuts of the plan, spilled to a fresh vector. *)
let with_bounds spec src ~count f =
  let ictx : int Em.Ctx.t = Em.Ctx.linked (Em.Vec.ctx src) in
  let bounds =
    Em.Writer.with_writer ictx (fun w ->
        for i = 1 to count do
          Em.Writer.push w (Problem.cut spec i)
        done)
  in
  Fun.protect ~finally:(fun () -> Em.Vec.free bounds) (fun () -> f bounds)

let solve cmp v spec =
  check v spec;
  let src, count, last = plan cmp v spec in
  let parts =
    if count = 0 then [| Emalg.Scan.copy src |]
    else with_bounds spec src ~count (fun bounds -> Multi_partition.partition cmp src ~bounds)
  in
  let parts =
    match last with
    | None -> parts
    | Some high ->
        Em.Vec.free src;
        Array.append parts [| high |]
  in
  let ctx = Em.Vec.ctx v in
  Array.append parts
    (Array.init (spec.Problem.k - Array.length parts) (fun _ -> Em.Vec.empty ctx))

type 'a packed = { data : 'a Em.Vec.t; sizes : int array }

let solve_packed cmp v spec =
  check v spec;
  let src, count, last = plan cmp v spec in
  let data =
    Em.Writer.with_writer (Em.Vec.ctx v) (fun w ->
        if count = 0 then Emalg.Scan.append w src
        else
          with_bounds spec src ~count (fun bounds ->
              Multi_partition.partition_packed_into cmp src ~bounds w);
        Option.iter (Emalg.Scan.append w) last)
  in
  Option.iter
    (fun high ->
      Em.Vec.free src;
      Em.Vec.free high)
    last;
  { data; sizes = Problem.sizes spec }
