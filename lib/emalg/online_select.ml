(* Online multiselection sessions; see the interface for the structure.

   The tree refines lazily: a leaf is either the whole raw input (root
   before the first refining query), an owned bucket of (key, position)
   pairs from a distribution pass, or an owned sorted run.  Positions are
   attached on the way out of the raw input (Split_step.split_tagging) and
   stripped when a leaf is finally sorted, so duplicate keys resolve
   positionally exactly like the batch algorithms.

   Crash-survivability: because refinement is monotone (leaves only split,
   sorted runs are final, the input is preserved), the whole session state
   is a flat list of leaf handles plus four counters — a [snapshot].  A
   snapshot saved through [Em.Checkpoint] stays valid as long as every
   vector it references stays allocated, so while a checkpoint store is
   attached the session defers the frees refinement would normally do
   ([pending_free]) until the *next* save, at which point the store no
   longer references them.  A crash between saves therefore loses at most
   the refinement work since the last save (orphaning its blocks, like
   [Restart.drive]'s crashed steps), never the saved tree. *)

type query = Select of int | Quantile of float | Range of int * int

type 'a reply = {
  values : 'a array;
  cost : Em.Stats.delta;
  refine : Em.Stats.delta;
  answer_ios : int;
  splits : int;
}

type summary = {
  queries : int;
  refine_ios : int;
  answer_ios : int;
  splits : int;
  leaves : int;
  sorted_leaves : int;
}

type 'a leaf =
  | Raw  (* backed by the preserved input; root only *)
  | Unsorted of ('a * int) Em.Vec.t  (* owned, position-tagged *)
  | Sorted of 'a Em.Vec.t  (* owned, tags stripped *)

type 'a node = { lo : int; len : int; mutable state : 'a state }
and 'a state = Leaf of 'a leaf | Split of 'a node array

type 'a handle =
  | H_raw
  | H_unsorted of ('a * int) Em.Vec.t
  | H_sorted of 'a Em.Vec.t

type 'a snapshot = {
  s_leaves : (int * int * 'a handle) list;
  s_queries : int;
  s_refine_ios : int;
  s_answer_ios : int;
  s_splits : int;
}

type 'a t = {
  cmp : 'a -> 'a -> int;
  ctx : 'a Em.Ctx.t;
  input : 'a Em.Vec.t;
  root : 'a node;
  batch_plan : (ranks:int Em.Vec.t -> 'a Em.Vec.t) option;
  prefetch : int option;
  mutable queries : int;
  mutable refine_ios : int;
  mutable answer_ios : int;
  mutable splits : int;
  mutable leaves : int;  (* leaf count of the tree, kept as it refines *)
  mutable sorted_leaves : int;
  mutable touched : bool;  (* has any query refined or read the tree? *)
  mutable closed : bool;
  (* checkpointing *)
  mutable store : 'a snapshot Em.Checkpoint.t option;
  mutable every_splits : int option;  (* automatic-save policy *)
  mutable splits_since_save : int;
  mutable dirty_since_save : bool;  (* any refinement since the last save? *)
  mutable pending_free : (unit -> unit) list;
  (* per-query I/O budget *)
  mutable budget : int option;
  mutable budget_base : Em.Stats.delta option;
}

let make_session ?batch_plan ?prefetch ?store ?every_splits cmp ctx v root
    ~queries ~refine_ios ~answer_ios ~splits ~leaves ~sorted_leaves ~touched =
  (match every_splits with
  | Some k when k < 1 -> invalid_arg "Online_select: every_splits must be >= 1"
  | _ -> ());
  {
    cmp;
    ctx;
    input = v;
    root;
    batch_plan;
    prefetch;
    queries;
    refine_ios;
    answer_ios;
    splits;
    leaves;
    sorted_leaves;
    touched;
    closed = false;
    store;
    every_splits;
    splits_since_save = 0;
    dirty_since_save = false;
    pending_free = [];
    budget = None;
    budget_base = None;
  }

let open_session ?batch_plan ?prefetch cmp ctx v =
  if not (Em.Vec.ctx v == ctx) then
    invalid_arg "Online_select.open_session: vector does not live on ctx";
  Layout.require_min_geometry ctx;
  make_session ?batch_plan ?prefetch cmp ctx v
    { lo = 0; len = Em.Vec.length v; state = Leaf Raw }
    ~queries:0 ~refine_ios:0 ~answer_ios:0 ~splits:0 ~leaves:1 ~sorted_leaves:0
    ~touched:false

let ensure_open t =
  if t.closed then invalid_arg "Online_select: session is closed"

let length t = t.root.len

(* ---- tree navigation ---- *)

let rec find_leaf node p =
  match node.state with
  | Leaf _ -> node
  | Split children ->
      (* Children partition [node.lo .. node.lo+len-1] in rank order, so
         [p]'s child is the last one starting at or before it.  Binary
         search: a restored tree is one flat level of every leaf. *)
      let rec search i j =
        (* children.(i).lo <= p < children.(j).lo, with j = length as +inf *)
        if j - i <= 1 then i
        else
          let mid = (i + j) / 2 in
          if children.(mid).lo <= p then search mid j else search i mid
      in
      find_leaf children.(search 0 (Array.length children)) p

let fold_leaves t f init =
  let rec go acc node =
    match node.state with
    | Leaf st -> f acc node st
    | Split children -> Array.fold_left go acc children
  in
  go init t.root

(* ---- checkpointing ---- *)

let snapshot t =
  ensure_open t;
  let leaves =
    List.rev
      (fold_leaves t
         (fun acc node st ->
           let h =
             match st with
             | Raw -> H_raw
             | Unsorted tv -> H_unsorted tv
             | Sorted sv -> H_sorted sv
           in
           (node.lo, node.len, h) :: acc)
         [])
  in
  {
    s_leaves = leaves;
    s_queries = t.queries;
    s_refine_ios = t.refine_ios;
    s_answer_ios = t.answer_ios;
    s_splits = t.splits;
  }

(* Serialized size of a snapshot in words: handles only — per leaf its
   bounds/kind plus one word per referenced block id, plus the counters.
   Bulk data is never written; its cost was already paid on the device. *)
let snapshot_words s =
  let handle_blocks = function
    | H_raw -> 0
    | H_unsorted tv -> Em.Vec.num_blocks tv
    | H_sorted sv -> Em.Vec.num_blocks sv
  in
  List.fold_left (fun acc (_, _, h) -> acc + 3 + handle_blocks h) 5 s.s_leaves

(* While a checkpoint store is attached, its saved snapshot references the
   pre-refinement tree, so vectors refinement replaces must outlive the next
   save; without a store, free immediately (the historical behaviour — the
   free order stays bit-identical for golden runs). *)
let defer_free t f =
  match t.store with None -> f () | Some _ -> t.pending_free <- f :: t.pending_free

let flush_pending t =
  let fs = t.pending_free in
  t.pending_free <- [];
  List.iter (fun f -> f ()) fs

let checkpoint t =
  ensure_open t;
  let store =
    match t.store with
    | Some s -> s
    | None ->
        let s = Em.Checkpoint.create t.ctx in
        t.store <- Some s;
        s
  in
  let snap = snapshot t in
  Em.Checkpoint.save store ~words:(snapshot_words snap) snap;
  (* Make the save a real durability point even on write-back backends: the
     buffer pool's dirty pages and any file backend are flushed (no counted
     I/O — durability is outside the Aggarwal–Vitter model). *)
  Em.Ctx.flush t.ctx;
  (* The fresh snapshot references only the current tree, so everything
     orphaned since the previous save can finally go. *)
  flush_pending t;
  t.splits_since_save <- 0;
  t.dirty_since_save <- false

let enable_checkpoints ?every_splits t =
  ensure_open t;
  (match every_splits with
  | Some k when k < 1 -> invalid_arg "Online_select: every_splits must be >= 1"
  | _ -> ());
  t.every_splits <- every_splits;
  (* Establish a restorable baseline immediately: restore is valid from the
     moment checkpointing is enabled. *)
  checkpoint t

let checkpoint_store t = t.store

let restore ?batch_plan ?prefetch ?every_splits cmp ctx v store =
  if not (Em.Vec.ctx v == ctx) then
    invalid_arg "Online_select.restore: vector does not live on ctx";
  Layout.require_min_geometry ctx;
  match Em.Checkpoint.load store with
  | None -> invalid_arg "Online_select.restore: empty checkpoint store"
  | Some snap ->
      let n = Em.Vec.length v in
      (* The handles must partition [0, n) in rank order and carry payloads
         of matching length; a raw leaf can only be the pristine root. *)
      let expect = ref 0 in
      List.iter
        (fun (lo, len, h) ->
          if lo <> !expect || len <= 0 then
            invalid_arg "Online_select.restore: leaves do not partition the input";
          (match h with
          | H_raw ->
              if not (lo = 0 && len = n) then
                invalid_arg "Online_select.restore: raw leaf must span the input"
          | H_unsorted tv ->
              if Em.Vec.length tv <> len then
                invalid_arg "Online_select.restore: handle length mismatch"
          | H_sorted sv ->
              if Em.Vec.length sv <> len then
                invalid_arg "Online_select.restore: handle length mismatch");
          expect := !expect + len)
        snap.s_leaves;
      if !expect <> n then
        invalid_arg "Online_select.restore: leaves do not partition the input";
      let leaf_of_handle = function
        | H_raw -> Raw
        | H_unsorted tv -> Unsorted tv
        | H_sorted sv -> Sorted sv
      in
      let root =
        match snap.s_leaves with
        | [ (_, _, h) ] -> { lo = 0; len = n; state = Leaf (leaf_of_handle h) }
        | leaves ->
            (* One flat level is enough: [find_leaf] only needs a partition
               in rank order, not the historical split hierarchy. *)
            let children =
              Array.of_list
                (List.map
                   (fun (lo, len, h) -> { lo; len; state = Leaf (leaf_of_handle h) })
                   leaves)
            in
            { lo = 0; len = n; state = Split children }
      in
      let pristine =
        match snap.s_leaves with [ (_, _, H_raw) ] -> true | _ -> false
      in
      let sorted_leaves =
        List.length (List.filter (function _, _, H_sorted _ -> true | _ -> false) snap.s_leaves)
      in
      make_session ?batch_plan ?prefetch ~store ?every_splits cmp ctx v root
        ~queries:snap.s_queries ~refine_ios:snap.s_refine_ios
        ~answer_ios:snap.s_answer_ios ~splits:snap.s_splits
        ~leaves:(List.length snap.s_leaves) ~sorted_leaves
        ~touched:(snap.s_queries > 0 || not pristine)

(* ---- per-query I/O budget ---- *)

let set_io_budget t budget =
  (match budget with
  | Some b when b < 1 -> invalid_arg "Online_select: io budget must be >= 1"
  | _ -> ());
  t.budget <- budget

(* Checked between refinement steps (each step = one distribution pass or
   one leaf sort), so a single step can overshoot before the abort lands;
   completed steps are kept — monotone refinement means the aborted query's
   work still benefits every later query. *)
let check_budget t =
  match (t.budget, t.budget_base) with
  | Some budget, Some base ->
      let spent = Em.Stats.ios_since t.ctx.Em.Ctx.stats base in
      if spent > budget then
        Em.Em_error.raise_error (Em.Em_error.Budget_exceeded { budget; spent })
  | _ -> ()

(* ---- refinement ---- *)

(* Replace a leaf by the children a split step produced, assigning rank
   offsets cumulatively.  Buckets are in ascending value order and their
   concatenation is a permutation of the leaf, so child [lo]s are exact
   global ranks.  This only ever subdivides — the refinement invariant. *)
let adopt_buckets t node buckets =
  let offs = ref node.lo in
  let children =
    Array.map
      (fun b ->
        let len = Em.Vec.length b in
        let child = { lo = !offs; len; state = Leaf (Unsorted b) } in
        offs := !offs + len;
        child)
      buckets
  in
  if !offs <> node.lo + node.len then
    invalid_arg "Online_select: internal error (split lost elements)";
  node.state <- Split children;
  t.leaves <- t.leaves + Array.length children - 1;
  t.splits <- t.splits + 1;
  t.splits_since_save <- t.splits_since_save + 1;
  t.dirty_since_save <- true;
  (* An aborted (faulted / over-budget) query that got this far has still
     refined the tree: the session is no longer pristine. *)
  t.touched <- true

(* Sort the whole (small) raw input in one memory load.  The stable sort
   gives positional tie-breaking without materialising tags. *)
let sort_raw t node =
  let sorted =
    Scan.with_loaded t.input (fun a ->
        Mem_sort.sort t.cmp a;
        Scan.vec_of_array_io t.ctx a)
  in
  node.state <- Leaf (Sorted sorted);
  t.sorted_leaves <- t.sorted_leaves + 1;
  t.dirty_since_save <- true;
  t.touched <- true

let split_raw t node =
  let buckets =
    Split_step.split_tagging t.cmp t.input
      ~target_buckets:(Split_step.default_target t.ctx ~n:node.len)
  in
  adopt_buckets t node buckets

(* Load, sort and strip a memory-sized pair leaf.  The pairs are charged by
   [with_loaded]; the stripped keys stream out through a writer (one block
   buffer), so the peak is [len + O(B)] words — inside the big-load
   reservation. *)
let sort_unsorted t node tv =
  let tcmp = Order.tagged t.cmp in
  let sorted =
    Scan.with_loaded tv (fun pairs ->
        Mem_sort.sort tcmp pairs;
        Em.Writer.with_writer
          ~write_behind:(Em.Ctx.disks t.ctx - 1)
          t.ctx
          (fun w -> Array.iter (fun (x, _) -> Em.Writer.push w x) pairs))
  in
  defer_free t (fun () -> Em.Vec.free tv);
  node.state <- Leaf (Sorted sorted);
  t.sorted_leaves <- t.sorted_leaves + 1;
  t.dirty_since_save <- true;
  t.touched <- true

let split_unsorted t node tv =
  let tcmp = Order.tagged t.cmp in
  (* Without a checkpoint store [split] consumes (frees) [tv] exactly as it
     always did; with one, [tv] is preserved through the pass and freed at
     the next save (a crash mid-split or before that save restores a tree
     that still references it).  Pairs are pairwise distinct. *)
  let consume = t.store = None in
  let buckets =
    Split_step.split ~consume tcmp tv
      ~target_buckets:(Split_step.default_target t.ctx ~n:node.len)
  in
  if not consume then t.pending_free <- (fun () -> Em.Vec.free tv) :: t.pending_free;
  adopt_buckets t node buckets

(* Automatic checkpointing: with an every-k-splits policy armed, save as
   soon as k splits accumulate (bounding the in-flight loss of one long
   refining query). *)
let maybe_policy_save t =
  match (t.store, t.every_splits) with
  | Some _, Some k when t.splits_since_save >= k -> checkpoint t
  | _ -> ()

(* Refine until the leaf containing rank position [p] (0-based) is a sorted
   run, and return that leaf.  Each iteration strictly shrinks the interval
   containing [p] (Split_step guarantees progress), so this terminates. *)
let rec refine_to t p =
  let node = find_leaf t.root p in
  match node.state with
  | Leaf (Sorted _) -> node
  | Leaf Raw ->
      check_budget t;
      if node.len <= Layout.big_load t.ctx then sort_raw t node
      else split_raw t node;
      maybe_policy_save t;
      refine_to t p
  | Leaf (Unsorted tv) ->
      check_budget t;
      if Em.Vec.length tv <= Layout.big_load t.ctx then sort_unsorted t node tv
      else split_unsorted t node tv;
      maybe_policy_save t;
      refine_to t p
  | Split _ -> refine_to t p (* unreachable: find_leaf returns leaves *)

let rec refine_span t p p1 =
  if p <= p1 then begin
    let node = refine_to t p in
    refine_span t (node.lo + node.len) p1
  end

(* ---- answering (post-refinement: every touched leaf is sorted) ---- *)

let sorted_run t p =
  let node = find_leaf t.root p in
  match node.state with
  | Leaf (Sorted sv) -> (node, sv)
  | _ -> invalid_arg "Online_select: internal error (leaf not refined)"

let answer_select t p =
  let node, sv = sorted_run t p in
  Em.Vec.get_io sv (p - node.lo)

(* Gather ranks [p0 .. p1] by walking the sorted leaves and reading each
   touched block once.  The result array is charged while assembled. *)
let answer_range t p0 p1 =
  let count = p1 - p0 + 1 in
  let b = Em.Ctx.block_size t.ctx in
  Em.Ctx.with_words t.ctx count (fun () ->
      let out = ref [||] in
      let p = ref p0 in
      while !p <= p1 do
        let node, sv = sorted_run t !p in
        let li0 = !p - node.lo in
        let li1 = min p1 (node.lo + node.len - 1) - node.lo in
        for bi = li0 / b to li1 / b do
          let payload = Em.Vec.block_io sv bi in
          if !out = [||] then out := Array.make count payload.(0);
          let lo = max li0 (bi * b) in
          let hi = min li1 ((bi * b) + Array.length payload - 1) in
          for li = lo to hi do
            !out.(node.lo + li - p0) <- payload.(li - (bi * b))
          done
        done;
        p := node.lo + node.len
      done;
      !out)

(* ---- queries ---- *)

let rank_of_quantile t phi =
  if not (phi > 0. && phi <= 1.) then
    invalid_arg "Online_select: quantile must satisfy 0 < phi <= 1";
  max 1 (int_of_float (Float.ceil (phi *. float_of_int (length t))))

let check_rank t k =
  if k < 1 || k > length t then
    invalid_arg "Online_select: rank out of range"

let query t q =
  ensure_open t;
  let stats = t.ctx.Em.Ctx.stats in
  let snap = Em.Stats.snapshot stats in
  t.budget_base <- Some snap;
  let splits0 = t.splits in
  match
    Em.Phase.with_label t.ctx "online_select" (fun () ->
        let answer_one p =
          Em.Phase.with_label t.ctx "refine" (fun () -> ignore (refine_to t p));
          let refine = Em.Stats.delta stats snap in
          let v = Em.Phase.with_label t.ctx "answer" (fun () -> answer_select t p) in
          ([| v |], refine)
        in
        match q with
        | Select k ->
            check_rank t k;
            answer_one (k - 1)
        | Quantile phi -> answer_one (rank_of_quantile t phi - 1)
        | Range (a, bnd) ->
            check_rank t a;
            check_rank t bnd;
            if bnd < a then invalid_arg "Online_select: empty range";
            if bnd - a + 1 > Layout.half_load t.ctx then
              invalid_arg "Online_select: range exceeds a half-memory load";
            Em.Phase.with_label t.ctx "refine" (fun () ->
                refine_span t (a - 1) (bnd - 1));
            let refine = Em.Stats.delta stats snap in
            let vs =
              Em.Phase.with_label t.ctx "answer" (fun () ->
                  answer_range t (a - 1) (bnd - 1))
            in
            (vs, refine))
  with
  | values, refine ->
      t.budget_base <- None;
      let pre_save = Em.Stats.delta stats snap in
      let answer_ios = Em.Stats.delta_ios pre_save - Em.Stats.delta_ios refine in
      t.queries <- t.queries + 1;
      t.refine_ios <- t.refine_ios + Em.Stats.delta_ios refine;
      t.answer_ios <- t.answer_ios + answer_ios;
      t.touched <- true;
      (* End-of-query durability: with the automatic policy armed, any
         refinement this query did is checkpointed before the reply is
         emitted — counters updated first, so the saved snapshot records the
         completed query and a crash between queries loses nothing.  The
         save's writes land in [cost] but in neither [refine] nor
         [answer_ios]; checkpoint totals live in the store's own meters. *)
      (match (t.store, t.every_splits) with
      | Some _, Some _ when t.dirty_since_save ->
          Em.Phase.with_label t.ctx "online_select" (fun () -> checkpoint t)
      | _ -> ());
      let cost = Em.Stats.delta stats snap in
      { values; cost; refine; answer_ios; splits = t.splits - splits0 }
  | exception e ->
      (* The paid-for partial work (monotone refinement) is kept and
         accounted as refinement; the query itself did not complete, so the
         query counter is untouched. *)
      t.budget_base <- None;
      let d = Em.Stats.delta stats snap in
      t.refine_ios <- t.refine_ios + Em.Stats.delta_ios d;
      raise e

let select t k = (query t (Select k)).values.(0)

let drain t ~ranks =
  ensure_open t;
  match t.batch_plan with
  | Some plan when not t.touched -> plan ~ranks
  | _ ->
      Em.Writer.with_writer t.ctx (fun w ->
          Scan.iter ?prefetch:t.prefetch
            (fun r -> Em.Writer.push w (select t r))
            ranks)

(* ---- introspection & teardown ---- *)

let summary t =
  {
    queries = t.queries;
    refine_ios = t.refine_ios;
    answer_ios = t.answer_ios;
    splits = t.splits;
    leaves = t.leaves;
    sorted_leaves = t.sorted_leaves;
  }

let intervals t =
  List.rev
    (fold_leaves t
       (fun acc node st ->
         let sorted = match st with Sorted _ -> true | _ -> false in
         (node.lo, node.len, sorted) :: acc)
       [])

let close ?(drop_cache = false) t =
  if not t.closed then begin
    t.closed <- true;
    (* Deferred frees reference vectors no longer in the tree; they go too
       (a snapshot left in the store is invalidated by closing). *)
    flush_pending t;
    let rec free_node node =
      match node.state with
      | Leaf Raw -> ()
      | Leaf (Unsorted tv) -> Em.Vec.free tv
      | Leaf (Sorted sv) -> Em.Vec.free sv
      | Split children -> Array.iter free_node children
    in
    free_node t.root;
    if drop_cache then
      match Em.Ctx.backend_pool t.ctx with
      | Some pool -> Em.Backend.Pool.drop_all pool
      | None -> ()
  end
