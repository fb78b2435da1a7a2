(* The machine's counted [Int.compare], built on the first [counted ctx
   Int.compare] and returned by every later one, with the proof that the
   elements are ints. *)
type 'a int_cmp = { cmp : 'a -> 'a -> int; eq : ('a, int) Type.eq }

type 'a t = {
  params : Params.t;
  stats : Stats.t;
  trace : Trace.t;
  backend : Backend.instance;
  dev : 'a Device.t;
  shard : int option;
  mutable int_cmp : 'a int_cmp option;
}

let create ?trace ?backend ?backend_dir ?pool_pages ?async ?io_pool ?file_delay
    ?disks ?shard params =
  let params = match disks with None -> params | Some d -> Params.with_disks params d in
  let stats = Stats.create () in
  let trace = match trace with Some t -> t | None -> Trace.create () in
  let spec = match backend with Some s -> s | None -> Backend.default_spec () in
  let backend =
    Backend.instance ?dir:backend_dir ?pool_pages ?async ?io_pool ?file_delay
      spec params stats
  in
  { params; stats; trace; backend;
    dev = Device.create ~trace ~backend:(Backend.make backend) ?shard params stats;
    shard; int_cmp = None }

let linked ctx =
  (* The linked device inherits the family's backend instance: same spec,
     same backing directory, and — crucially — the same buffer pool when
     cached, while keeping its own (disjoint) slot space. *)
  let dev =
    Device.create ~trace:ctx.trace ~backend:(Backend.make ctx.backend) ?shard:ctx.shard
      ctx.params ctx.stats
  in
  (* Auxiliary streams face the same disk: one fault plan sees the family's
     interleaved I/O stream, and recovery counters aggregate across it. *)
  (match Device.injector ctx.dev with None -> () | Some plan -> Device.inject dev plan);
  (match Device.recovery ctx.dev with None -> () | Some r -> Device.arm ~share:r dev);
  { params = ctx.params; stats = ctx.stats; trace = ctx.trace; backend = ctx.backend; dev;
    shard = ctx.shard; int_cmp = None }

let backend_name ctx = Backend.name ctx.backend
let backend_pool ctx = Backend.pool ctx.backend
let async ctx = Backend.async_enabled ctx.backend
let flush ctx = Device.flush ctx.dev
let close ctx = Device.close ctx.dev

let inject ctx plan = Device.inject ctx.dev plan
let clear_injector ctx = Device.clear_injector ctx.dev
let arm ?policy ctx = Device.arm ?policy ctx.dev
let fault_report ctx = Device.recovery ctx.dev

(* One of the library's two unchecked casts (the other is the file
   backend's codec, [Backend.encode]).  [Int.compare] is a value of type
   [int -> int -> int], and no safe program can give it any other type, so
   a comparator of type ['a -> 'a -> int] that is physically [Int.compare]
   proves ['a = int].  The false equation the cast brings into scope is used
   for nothing but that physical comparison; the witness leaves only when
   the comparison holds. *)
let int_witness (type a) (cmp : a -> a -> int) : (a, int) Type.eq option =
  match (Obj.magic Type.Equal : (a, int) Type.eq) with
  | Type.Equal -> if cmp == Int.compare then Some Type.Equal else None

(* Both closures take their two arguments at once, so calls skip the
   currying trampoline of a partial application. *)
let counted (type a) (ctx : a t) (cmp : a -> a -> int) : a -> a -> int =
  let stats = ctx.stats in
  match int_witness cmp with
  | None ->
      fun x y ->
        stats.Stats.comparisons <- stats.Stats.comparisons + 1;
        cmp x y
  | Some Type.Equal -> (
      match ctx.int_cmp with
      | Some k -> k.cmp
      | None ->
          let cmp (x : int) (y : int) =
            stats.Stats.comparisons <- stats.Stats.comparisons + 1;
            Int.compare x y
          in
          ctx.int_cmp <- Some { cmp; eq = Type.Equal };
          cmp)

let int_keys ctx cmp =
  match ctx.int_cmp with Some k when k.cmp == cmp -> Some k.eq | _ -> None

let measured ctx f =
  let snap = Stats.snapshot ctx.stats in
  let result = f () in
  (result, Stats.delta ctx.stats snap)

let mem_capacity ctx = ctx.params.Params.mem
let block_size ctx = ctx.params.Params.block
let disks ctx = ctx.params.Params.disks
let with_words ctx n f = Mem.with_words ctx.params ctx.stats n f
let io_window ctx f = Stats.with_window ctx.stats f
