(* P simulated machines and the metered interconnect between them.

   A cluster is P fully independent {!Em.Ctx} machines — each with its own
   backend instance, M-word memory ledger and D disks — plus one
   communication ledger ([comm]) that bills every inter-shard transfer:
   word volume unconditionally, and one BSP superstep per
   {!Em.Stats.with_comm_round} window in which at least one transfer
   happened.  Diagonal (shard-to-itself) movement is local work and never
   touches the ledger.

   The design invariant extends PR 5's "disks change scheduling, never
   work": shards change communication, never work.  Every driver below
   produces outputs identical to its P = 1 run, and the total counted work
   across shards stays within a constant factor of the single-machine run;
   only [comm_rounds]/[comm_words] vary with P. *)

let shards_env_var = "EM_SHARDS"

let default_shards () =
  match Sys.getenv_opt shards_env_var with
  | None | Some "" -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some p when p >= 1 -> p
      | _ ->
          invalid_arg
            (Printf.sprintf "Cluster: %s must be a positive integer, got %S"
               shards_env_var s))

type 'a t = {
  params : Em.Params.t;
  shards : 'a Em.Ctx.t array;
  comm : Em.Stats.t;
  trace : Em.Trace.t;
}

let create ?trace ?backend ?backend_dir ?pool_pages ?disks ?shards params =
  let p = match shards with Some p -> p | None -> default_shards () in
  if p < 1 then invalid_arg "Cluster.create: shards must be >= 1";
  let trace = match trace with Some t -> t | None -> Em.Trace.create () in
  (* Shard ids are attached only when the cluster is actually sharded, so a
     P = 1 cluster is bit-for-bit a plain single machine (same trace JSON,
     same goldens). *)
  let shard i =
    if p = 1 then
      Em.Ctx.create ~trace ?backend ?backend_dir ?pool_pages ?disks params
    else
      Em.Ctx.create ~trace ?backend ?backend_dir ?pool_pages ?disks ~shard:i
        params
  in
  { params; shards = Array.init p shard; comm = Em.Stats.create (); trace }

let size t = Array.length t.shards
let ctx t i = t.shards.(i)
let comm t = t.comm
let trace t = t.trace
let params t = t.params
let close t = Array.iter Em.Ctx.close t.shards

let totals t =
  Array.fold_left
    (fun (r, w, c) cx ->
      let s = cx.Em.Ctx.stats in
      (r + s.Em.Stats.reads, w + s.Em.Stats.writes, c + s.Em.Stats.comparisons))
    (0, 0, 0) t.shards

let superstep t f = Em.Stats.with_comm_round t.comm f

(* Open an I/O scheduling window on every shard around [f]: collective
   operations issue interleaved I/Os on all machines at once, and each
   machine's D disks should overlap them Vitter–Shriver style exactly as
   {!Em.Ctx.io_window} does for a lone machine. *)
let all_windows t f =
  let rec go i =
    if i >= size t then f ()
    else Em.Ctx.io_window t.shards.(i) (fun () -> go (i + 1))
  in
  go 0

(* Same nesting trick for phase labels: agreement work interleaves all
   shards, so the label must be pushed on every ledger. *)
let all_phases t label f =
  let rec go i =
    if i >= size t then f ()
    else Em.Phase.with_label t.shards.(i) label (fun () -> go (i + 1))
  in
  go 0

let bill t ~src ~dst ~words = Em.Stats.record_comm t.comm ~src ~dst ~words

let check_parts t vecs name =
  if Array.length vecs <> size t then invalid_arg (name ^ ": one vector per shard")

(* Balanced contiguous striping: shard [i] holds positions
   [i*n/P, (i+1)*n/P) of the input, so shard lengths differ by at most
   one element. *)
let slice_bounds ~n ~p i = (i * n / p, (i + 1) * n / p)

let place t a =
  let n = Array.length a and p = size t in
  Array.init p (fun i ->
      let lo, hi = slice_bounds ~n ~p i in
      Em.Vec.of_array t.shards.(i) (Array.sub a lo (hi - lo)))

(* {2 Collectives}

   Each collective is one superstep.  Reads are billed to the source
   shard's machine, writes to the destination's, and every off-diagonal
   word crosses the communication ledger exactly once.  Inputs are never
   freed. *)

let scatter t ~root v =
  let p = size t in
  let n = Em.Vec.length v in
  superstep t (fun () ->
      all_windows t (fun () ->
          let outs = Array.init p (fun j -> Em.Writer.create t.shards.(j)) in
          let stop = Array.init p (fun j -> snd (slice_bounds ~n ~p j)) in
          let dst = ref 0 and pos = ref 0 in
          Emalg.Scan.iter
            (fun x ->
              while !pos >= stop.(!dst) do
                incr dst
              done;
              Em.Writer.push outs.(!dst) x;
              incr pos)
            v;
          Array.mapi
            (fun j w ->
              let lo, hi = slice_bounds ~n ~p j in
              bill t ~src:root ~dst:j ~words:(hi - lo);
              Em.Writer.finish w)
            outs))

let broadcast t ~root v =
  let p = size t in
  let words = Em.Vec.length v in
  superstep t (fun () ->
      all_windows t (fun () ->
          let outs =
            Array.init p (fun j ->
                if j = root then None else Some (Em.Writer.create t.shards.(j)))
          in
          (* One metered pass over the source feeds all P - 1 copies. *)
          Emalg.Scan.iter
            (fun x ->
              Array.iter (function None -> () | Some w -> Em.Writer.push w x) outs)
            v;
          Array.mapi
            (fun j w ->
              match w with
              | None -> v
              | Some w ->
                  bill t ~src:root ~dst:j ~words;
                  Em.Writer.finish w)
            outs))

let all_gather t parts =
  let p = size t in
  check_parts t parts "Cluster.all_gather";
  superstep t (fun () ->
      all_windows t (fun () ->
          let outs = Array.init p (fun j -> Em.Writer.create t.shards.(j)) in
          Array.iteri
            (fun i part ->
              let words = Em.Vec.length part in
              for j = 0 to p - 1 do
                if i <> j then bill t ~src:i ~dst:j ~words
              done;
              Emalg.Scan.iter
                (fun x -> Array.iter (fun w -> Em.Writer.push w x) outs)
                part)
            parts;
          Array.map Em.Writer.finish outs))

let all_to_all t chunks =
  let p = size t in
  check_parts t chunks "Cluster.all_to_all";
  Array.iter
    (fun row ->
      if Array.length row <> p then
        invalid_arg "Cluster.all_to_all: one chunk per destination")
    chunks;
  superstep t (fun () ->
      all_windows t (fun () ->
          Array.init p (fun j ->
              Array.init p (fun i ->
                  let v = chunks.(i).(j) in
                  bill t ~src:i ~dst:j ~words:(Em.Vec.length v);
                  let w = Em.Writer.create t.shards.(j) in
                  Emalg.Scan.append w v;
                  Em.Writer.finish w))))

(* {2 Sorted-vector fence index}

   Agreement needs many rank queries ("how many local elements are <= x")
   against each shard's sorted run.  One sequential pass loads the first
   element of every block into memory (the fences); a rank query is then an
   in-memory binary search over fences plus a single metered block read,
   and a one-block cache makes batched ascending queries cost at most one
   pass over the blocks they land in.  The fence array and the cached block are
   charged to the shard's memory ledger by [with_indexes]. *)

type 'a index = {
  vec : 'a Em.Vec.t;
  ccmp : 'a -> 'a -> int;  (* counted on the owning shard's ledger *)
  fences : 'a array;
  blk : int;
  mutable cached : int;  (* block id held in [payload], or -1 *)
  mutable payload : 'a array;
}

let build_index cx cmp v =
  let nb = Em.Vec.num_blocks v in
  let fences =
    if nb = 0 then [||]
    else
      Em.Ctx.io_window cx (fun () ->
          let first = Em.Vec.block_io v 0 in
          let f = Array.make nb first.(0) in
          for b = 1 to nb - 1 do
            f.(b) <- (Em.Vec.block_io v b).(0)
          done;
          f)
  in
  {
    vec = v;
    ccmp = Em.Ctx.counted cx cmp;
    fences;
    blk = Em.Ctx.block_size cx;
    cached = -1;
    payload = [||];
  }

let read_block idx b =
  if idx.cached <> b then begin
    idx.payload <- Em.Vec.block_io idx.vec b;
    idx.cached <- b
  end;
  idx.payload

let elem idx pos = (read_block idx (pos / idx.blk)).(pos mod idx.blk)

(* [rank_by idx ok] counts the elements satisfying [ok], which must be
   downward closed in the sort order (fun y -> y <= x, or y < x). *)
let rank_by idx ok =
  let nb = Array.length idx.fences in
  if nb = 0 || not (ok idx.fences.(0)) then 0
  else begin
    let lo = ref 0 and hi = ref (nb - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if ok idx.fences.(mid) then lo := mid else hi := mid - 1
    done;
    let blk = read_block idx !lo in
    let l = ref 0 and h = ref (Array.length blk) in
    while !l < !h do
      let mid = (!l + !h) / 2 in
      if ok blk.(mid) then l := mid + 1 else h := mid
    done;
    (!lo * idx.blk) + !l
  end

let rank_le idx x = rank_by idx (fun y -> idx.ccmp y x <= 0)
let rank_lt idx x = rank_by idx (fun y -> idx.ccmp y x < 0)

(* Build one index per shard, charging [fences + one block] words to each
   shard's memory ledger for the duration of [f]. *)
let with_indexes t cmp sorted f =
  let p = size t in
  let rec go acc i =
    if i >= p then f (Array.of_list (List.rev acc))
    else
      let cx = t.shards.(i) in
      let v = sorted.(i) in
      let words = Em.Vec.num_blocks v + Em.Ctx.block_size cx in
      Em.Ctx.with_words cx words (fun () ->
          go (build_index cx cmp v :: acc) (i + 1))
  in
  go [] 0

(* {2 Splitter agreement}

   Deterministic histogram sort with sampling (after Yang–Harsh–Solomonik;
   budgets in {!Bounds}).  Each target rank [tgt] keeps a bracket with
   exact global fence ranks [lo_rank < tgt <= hi_rank] and per-shard local
   cut positions, so [width = hi_rank - lo_rank] counts exactly the
   elements that can still be the answer.  One refinement iteration is two
   supersteps:

   - {e sample}: every shard contributes [m] evenly-locally-ranked
     candidates inside each unresolved bracket (all of them if it holds
     <= m), allgathered to every peer;
   - {e histogram}: every shard answers [(rank_lt, rank_le)] for each
     candidate, allgathered (two words per candidate) and summed into
     exact global ranks.

   The iteration shrinks [width] by at least the factor [m + 1] up to an
   additive [P + 1]: between consecutive picks of one shard fewer than
   [w_i/(m+1) + 1] of its elements hide, and summing the leftovers across
   shards telescopes to [W/(m+1) + P + 1].  Candidate [c] resolves target
   [tgt] {e exactly} iff [rank_lt c < tgt <= rank_le c] — duplicate-proof,
   because that half-open rank interval is precisely the set of ranks the
   value [c] occupies.  Once [width] falls under the gather cap (or the
   iteration budget is spent) the residual interval is gathered to a
   coordinator shard, selected exactly in memory, and the answer broadcast
   back: comm rounds <= 2r + 2 and samples <= r*T*P*m — the
   {!Bounds.hss_comm_rounds_upper} / {!Bounds.hss_sample_upper} budgets
   that {!Bound_track} gates. *)

type 'a agreement = {
  values : 'a array;
  ranks : int array;  (* global rank_le of each value: the cut position *)
  ranks_lt : int array;
  targets : int array;
  tol : int;
  iterations : int;
  rounds_budget : int;
  per_round : int;
  samples : int;
  gathered : int;
}

type 'a bracket = {
  target : int;
  mutable lo_rank : int;  (* global rank_le of the lower fence, < target *)
  lo_pos : int array;  (* per-shard local rank_le of the lower fence *)
  mutable hi : 'a option;  (* upper fence value; None = +infinity *)
  mutable hi_rank : int;  (* global rank_lt hi (or N when infinite), >= target *)
  hi_pos : int array;  (* per-shard local rank_lt of the upper fence *)
  mutable hi_le : int;  (* global rank_le hi, valid when [hi] is concrete *)
  mutable answer : ('a * int * int) option;  (* value, rank_lt, rank_le *)
}

let agree_on ?(tol = 0) ?rounds cmp t ~idxs ~targets =
  if tol < 0 then invalid_arg "Cluster.agree: tol must be >= 0";
  let p = size t in
  let lengths = Array.map (fun idx -> Em.Vec.length idx.vec) idxs in
  let n = Array.fold_left ( + ) 0 lengths in
  Array.iter
    (fun tgt ->
      if tgt < 1 || tgt > n then
        invalid_arg
          (Printf.sprintf "Cluster.agree: target rank %d outside 1..%d" tgt n))
    targets;
  let nt = Array.length targets in
  let rounds_budget =
    match rounds with
    | Some r -> max 1 r
    | None -> Bounds.hss_rounds ~shards:p ~tol ~n:(max 1 n)
  in
  let m =
    Bounds.hss_per_round ~shards:p ~tol ~rounds:rounds_budget ~n:(max 1 n)
  in
  let cap = Bounds.hss_gather_cap ~shards:p in
  let samples = ref 0 and gathered = ref 0 and iterations = ref 0 in
  (* Coordinator-side bookkeeping comparisons (candidate dedup, query
     sorting) are counted against shard 0 — they are real work and must not
     vanish from the ledger. *)
  let c0 = Em.Ctx.counted t.shards.(0) cmp in
  let brs =
    Array.map
      (fun tgt ->
        {
          target = tgt;
          lo_rank = 0;
          lo_pos = Array.make p 0;
          hi = None;
          hi_rank = n;
          hi_pos = Array.copy lengths;
          hi_le = n;
          answer = None;
        })
      targets
  in
  let width b = b.hi_rank - b.lo_rank in
  let needs_refine b =
    b.answer = None && width b > cap && (width b > tol || b.hi = None)
  in
  let refine_iteration active =
    incr iterations;
    (* Sample superstep: draw candidates and allgather their values. *)
    let cands = Array.make nt [] in
    superstep t (fun () ->
        all_windows t (fun () ->
            for i = 0 to p - 1 do
              let idx = idxs.(i) in
              let picks = ref [] in
              List.iter
                (fun j ->
                  let b = brs.(j) in
                  let lo = b.lo_pos.(i) and hi = b.hi_pos.(i) in
                  let w = hi - lo in
                  if w > 0 then
                    if w <= m then
                      for pos = lo to hi - 1 do
                        picks := (pos, j) :: !picks
                      done
                    else
                      for s = 1 to m do
                        picks := (lo + (w * s / (m + 1)), j) :: !picks
                      done)
                active;
              let arr = Array.of_list !picks in
              Array.sort (fun (a, _) (b, _) -> compare (a : int) b) arr;
              Array.iter
                (fun (pos, j) -> cands.(j) <- elem idx pos :: cands.(j))
                arr;
              let words = Array.length arr in
              samples := !samples + words;
              for d = 0 to p - 1 do
                bill t ~src:i ~dst:d ~words
              done
            done));
    let cand_sets =
      Array.map (fun l -> Array.of_list (List.sort_uniq c0 l)) cands
    in
    (* Histogram superstep: exact (rank_lt, rank_le) per candidate per
       shard, allgathered and summed into global ranks. *)
    let lt_loc =
      Array.map (fun cs -> Array.make_matrix (Array.length cs) p 0) cand_sets
    in
    let le_loc =
      Array.map (fun cs -> Array.make_matrix (Array.length cs) p 0) cand_sets
    in
    let total_cands =
      List.fold_left (fun acc j -> acc + Array.length cand_sets.(j)) 0 active
    in
    (* Order the queries by value once (coordinator bookkeeping, billed
       once) so every shard's one-block cache sees them ascending. *)
    let qs =
      let queries = ref [] in
      List.iter
        (fun j ->
          Array.iteri (fun ci c -> queries := (j, ci, c) :: !queries) cand_sets.(j))
        active;
      let qs = Array.of_list !queries in
      Array.sort (fun (_, _, a) (_, _, b) -> c0 a b) qs;
      qs
    in
    superstep t (fun () ->
        all_windows t (fun () ->
            for i = 0 to p - 1 do
              let idx = idxs.(i) in
              Array.iter
                (fun (j, ci, c) ->
                  lt_loc.(j).(ci).(i) <- rank_lt idx c;
                  le_loc.(j).(ci).(i) <- rank_le idx c)
                qs;
              for d = 0 to p - 1 do
                bill t ~src:i ~dst:d ~words:(2 * total_cands)
              done
            done));
    (* Bracket update from the now-exact global ranks. *)
    List.iter
      (fun j ->
        let b = brs.(j) in
        let cs = cand_sets.(j) in
        let nc = Array.length cs in
        let lt_g =
          Array.init nc (fun ci -> Array.fold_left ( + ) 0 lt_loc.(j).(ci))
        in
        let le_g =
          Array.init nc (fun ci -> Array.fold_left ( + ) 0 le_loc.(j).(ci))
        in
        let best_lo = ref (-1) and best_hi = ref (-1) in
        for ci = 0 to nc - 1 do
          if le_g.(ci) < b.target then best_lo := ci
          else if !best_hi < 0 then best_hi := ci
        done;
        if !best_lo >= 0 && le_g.(!best_lo) > b.lo_rank then begin
          let ci = !best_lo in
          b.lo_rank <- le_g.(ci);
          for i = 0 to p - 1 do
            b.lo_pos.(i) <- le_loc.(j).(ci).(i)
          done
        end;
        if !best_hi >= 0 then begin
          let ci = !best_hi in
          if lt_g.(ci) < b.target then
            (* Exact: value [cs.(ci)] occupies ranks (lt, le] which contain
               the target. *)
            b.answer <- Some (cs.(ci), lt_g.(ci), le_g.(ci))
          else if lt_g.(ci) < b.hi_rank then begin
            b.hi <- Some cs.(ci);
            b.hi_rank <- lt_g.(ci);
            b.hi_le <- le_g.(ci);
            for i = 0 to p - 1 do
              b.hi_pos.(i) <- lt_loc.(j).(ci).(i)
            done
          end
        end;
        (* Tolerant early exit: any candidate whose cut rank lands within
           [tol] of the target is an acceptable splitter. *)
        if b.answer = None && tol > 0 then begin
          let best = ref (-1) and dist = ref max_int in
          for ci = 0 to nc - 1 do
            let d = abs (le_g.(ci) - b.target) in
            if d < !dist then begin
              dist := d;
              best := ci
            end
          done;
          if !best >= 0 && !dist <= tol then
            b.answer <- Some (cs.(!best), lt_g.(!best), le_g.(!best))
        end)
      active
  in
  let rec refine () =
    if !iterations < rounds_budget then begin
      let active = ref [] in
      Array.iteri (fun j b -> if needs_refine b then active := j :: !active) brs;
      match List.rev !active with
      | [] -> ()
      | active ->
          refine_iteration active;
          refine ()
    end
  in
  if nt > 0 && n > 0 then refine ();
  (* Tolerant brackets that converged without an exact hit resolve to their
     upper fence when its cut rank is close enough. *)
  Array.iter
    (fun b ->
      match (b.answer, b.hi) with
      | None, Some hi when tol > 0 && abs (b.hi_le - b.target) <= tol ->
          b.answer <- Some (hi, b.hi_rank, b.hi_le)
      | _ -> ())
    brs;
  (* Exact finish: gather each residual interval to a coordinator shard,
     select in memory, broadcast the answer back.  One gather superstep for
     all residuals, one broadcast superstep for all answers. *)
  let finished = ref [] in
  if Array.exists (fun b -> b.answer = None) brs then begin
    superstep t (fun () ->
        all_windows t (fun () ->
            Array.iteri
              (fun j b ->
                if b.answer = None then begin
                  let root = j mod p in
                  finished := (j, root) :: !finished;
                  let acc = ref [] in
                  for i = 0 to p - 1 do
                    let words = b.hi_pos.(i) - b.lo_pos.(i) in
                    for pos = b.lo_pos.(i) to b.hi_pos.(i) - 1 do
                      acc := elem idxs.(i) pos :: !acc
                    done;
                    bill t ~src:i ~dst:root ~words
                  done;
                  let residual = Array.of_list (List.rev !acc) in
                  let w = Array.length residual in
                  gathered := !gathered + w;
                  let croot = Em.Ctx.counted t.shards.(root) cmp in
                  Em.Ctx.with_words t.shards.(root) w (fun () ->
                      Array.sort croot residual;
                      let v = residual.(b.target - b.lo_rank - 1) in
                      let lt = ref 0 and le = ref 0 in
                      Array.iter
                        (fun y ->
                          let c = croot y v in
                          if c < 0 then incr lt;
                          if c <= 0 then incr le)
                        residual;
                      b.answer <- Some (v, b.lo_rank + !lt, b.lo_rank + !le))
                end)
              brs));
    superstep t (fun () ->
        List.iter
          (fun (_, root) ->
            for d = 0 to p - 1 do
              bill t ~src:root ~dst:d ~words:1
            done)
          !finished)
  end;
  let answer b =
    match b.answer with
    | Some a -> a
    | None -> invalid_arg "Cluster.agree: unresolved bracket (impossible)"
  in
  {
    values = Array.map (fun b -> let v, _, _ = answer b in v) brs;
    ranks = Array.map (fun b -> let _, _, le = answer b in le) brs;
    ranks_lt = Array.map (fun b -> let _, lt, _ = answer b in lt) brs;
    targets;
    tol;
    iterations = !iterations;
    rounds_budget;
    per_round = m;
    samples = !samples;
    gathered = !gathered;
  }

let agree ?tol ?rounds cmp t ~sorted ~targets =
  check_parts t sorted "Cluster.agree";
  all_phases t "agree" (fun () ->
      with_indexes t cmp sorted (fun idxs ->
          agree_on ?tol ?rounds cmp t ~idxs ~targets))

(* Evenly spaced quantile targets: boundary [j] (1-based) sits at global
   rank [j*n/k], the same cuts {!place} uses for striping. *)
let quantile_targets ~n ~k = Array.init (k - 1) (fun j -> max 1 ((j + 1) * n / k))

(* (1+eps)-balance: every part of an eps-approximate k-partition may exceed
   n/k by at most eps*n/k, so each boundary rank may drift by half that
   from each side. *)
let tol_of ~eps ~n ~k =
  if eps < 0. then invalid_arg "Cluster: eps must be >= 0";
  max 0 (int_of_float (eps *. float_of_int n /. float_of_int k /. 2.))

let agree_splitters ?(eps = 0.) ?rounds cmp t ~sorted ~k =
  check_parts t sorted "Cluster.agree_splitters";
  if k < 1 then invalid_arg "Cluster.agree_splitters: k must be >= 1";
  let n = Array.fold_left (fun acc v -> acc + Em.Vec.length v) 0 sorted in
  let targets = if n = 0 then [||] else quantile_targets ~n ~k in
  agree ~tol:(tol_of ~eps ~n ~k) ?rounds cmp t ~sorted ~targets

(* {2 Sharded drivers}

   All four follow the same shape: local sort, splitter agreement, local
   cut at the agreed values, metered all-to-all exchange, local finish.
   Because every shard cuts its run at [rank_le] of the {e same} agreed
   values, the per-shard cuts telescope exactly to the agreed global
   ranks, and the concatenated outputs are the ones a single machine would
   produce — shards change communication, never work. *)

let local_sort cmp t inputs =
  Array.mapi
    (fun i v ->
      Em.Phase.with_label t.shards.(i) "local-sort" (fun () ->
          Emalg.External_sort.sort (Em.Ctx.counted t.shards.(i) cmp) v))
    inputs

(* Local cut positions of the agreed boundary values: [cuts.(0) = 0], then
   one local [rank_le] per boundary, then the shard length. *)
let cut_positions idx values =
  let nv = Array.length values in
  let cuts = Array.make (nv + 2) 0 in
  for j = 0 to nv - 1 do
    cuts.(j + 1) <- rank_le idx values.(j)
  done;
  cuts.(nv + 1) <- Em.Vec.length idx.vec;
  cuts

(* Stream segment [g] of every shard's sorted run to [dest g]: one
   superstep, one ascending metered pass over each source (the one-block
   cache turns consecutive segment reads into sequential block I/O), words
   billed off-diagonal. *)
let exchange t ~idxs ~cuts ~groups ~dest =
  let p = size t in
  superstep t (fun () ->
      all_windows t (fun () ->
          Array.init p (fun i ->
              let idx = idxs.(i) in
              Array.init groups (fun g ->
                  let d = dest g in
                  let lo = cuts.(i).(g) and hi = cuts.(i).(g + 1) in
                  bill t ~src:i ~dst:d ~words:(hi - lo);
                  let w = Em.Writer.create t.shards.(d) in
                  for pos = lo to hi - 1 do
                    Em.Writer.push w (elem idx pos)
                  done;
                  Em.Writer.finish w))))

let finish_merge cmp t ~dest runs =
  Em.Phase.with_label t.shards.(dest) "finish" (fun () ->
      Emalg.External_sort.merge_passes (Em.Ctx.counted t.shards.(dest) cmp) runs)

(* Agreement plus exchange for a [k]-way split of the sorted runs; shared
   by {!sort} (k = P, identity destination) and {!partition}. *)
let split_exchange ?rounds cmp t ~sorted ~k ~tol ~dest =
  with_indexes t cmp sorted (fun idxs ->
      let n = Array.fold_left (fun acc v -> acc + Em.Vec.length v) 0 sorted in
      let ag =
        all_phases t "agree" (fun () ->
            agree_on ~tol ?rounds cmp t ~idxs ~targets:(quantile_targets ~n ~k))
      in
      let cuts =
        all_phases t "cut" (fun () ->
            Array.map (fun idx -> cut_positions idx ag.values) idxs)
      in
      let runs =
        all_phases t "exchange" (fun () ->
            exchange t ~idxs ~cuts ~groups:k ~dest)
      in
      (ag, runs))

let column parts g = Array.to_list (Array.map (fun row -> row.(g)) parts)

let sort ?(eps = 0.5) ?rounds cmp t inputs =
  check_parts t inputs "Cluster.sort";
  let p = size t in
  let sorted = local_sort cmp t inputs in
  let n = Array.fold_left (fun acc v -> acc + Em.Vec.length v) 0 sorted in
  if p = 1 || n = 0 then (sorted, None)
  else begin
    let ag, parts =
      split_exchange ?rounds cmp t ~sorted ~k:p ~tol:(tol_of ~eps ~n ~k:p)
        ~dest:(fun g -> g)
    in
    Array.iter Em.Vec.free sorted;
    let out = Array.init p (fun g -> finish_merge cmp t ~dest:g (column parts g)) in
    (out, Some ag)
  end

let owner ~p ~k g = g * p / k

let partition ?(eps = 0.) ?rounds cmp t inputs ~k =
  check_parts t inputs "Cluster.partition";
  if k < 1 then invalid_arg "Cluster.partition: k must be >= 1";
  let p = size t in
  let sorted = local_sort cmp t inputs in
  let n = Array.fold_left (fun acc v -> acc + Em.Vec.length v) 0 sorted in
  if n = 0 then begin
    Array.iter Em.Vec.free sorted;
    (Array.init k (fun g -> Em.Vec.empty t.shards.(owner ~p ~k g)), None)
  end
  else begin
    let ag, parts =
      split_exchange ?rounds cmp t ~sorted ~k ~tol:(tol_of ~eps ~n ~k)
        ~dest:(owner ~p ~k)
    in
    Array.iter Em.Vec.free sorted;
    let out =
      Array.init k (fun g ->
          finish_merge cmp t ~dest:(owner ~p ~k g) (column parts g))
    in
    (out, Some ag)
  end

let multiselect ?rounds cmp t inputs ~ranks =
  check_parts t inputs "Cluster.multiselect";
  let sorted = local_sort cmp t inputs in
  let ag = agree ~tol:0 ?rounds cmp t ~sorted ~targets:ranks in
  Array.iter Em.Vec.free sorted;
  (ag.values, ag)

let splitters ?eps ?rounds cmp t inputs ~k =
  check_parts t inputs "Cluster.splitters";
  let sorted = local_sort cmp t inputs in
  let ag = agree_splitters ?eps ?rounds cmp t ~sorted ~k in
  Array.iter Em.Vec.free sorted;
  ag
