type 'a t = {
  params : Params.t;
  stats : Stats.t;
  trace : Trace.t;
  backend : Backend.instance;
  dev : 'a Device.t;
  shard : int option;
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
    shard }

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
    shard = ctx.shard }

let backend_name ctx = Backend.name ctx.backend
let backend_pool ctx = Backend.pool ctx.backend
let async ctx = Backend.async_enabled ctx.backend
let flush ctx = Device.flush ctx.dev
let close ctx = Device.close ctx.dev

let inject ctx plan = Device.inject ctx.dev plan
let clear_injector ctx = Device.clear_injector ctx.dev
let arm ?policy ctx = Device.arm ?policy ctx.dev
let fault_report ctx = Device.recovery ctx.dev

let counted ctx cmp x y =
  ctx.stats.Stats.comparisons <- ctx.stats.Stats.comparisons + 1;
  cmp x y

let measured ctx f =
  let snap = Stats.snapshot ctx.stats in
  let result = f () in
  (result, Stats.delta ctx.stats snap)

let mem_capacity ctx = ctx.params.Params.mem
let block_size ctx = ctx.params.Params.block
let disks ctx = ctx.params.Params.disks
let with_words ctx n f = Mem.with_words ctx.params ctx.stats n f
let io_window ctx f = Stats.with_window ctx.stats f
