(* Shared test utilities. *)

let params ?(mem = 256) ?(block = 16) () = Em.Params.create ~mem ~block
let ctx ?backend ?mem ?block () : int Em.Ctx.t =
  Em.Ctx.create ?backend (params ?mem ?block ())
let icmp = Int.compare

(* Deterministic randomness, delegated to the library's seeded PRNG. *)
let rng = Core.Workload.Rng.create
let next_int = Core.Workload.Rng.int
let shuffle = Core.Workload.Rng.shuffle

let random_perm ~seed n =
  Core.Workload.generate Core.Workload.Random_perm ~seed ~n ~block:1

let random_ints ~seed ~bound n =
  let r = rng seed in
  Array.init n (fun _ -> next_int r bound)

let sorted_copy a =
  let c = Array.copy a in
  Array.sort icmp c;
  c

let int_vec ctx a = Em.Vec.of_array ctx a

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_int_array = Alcotest.(check (array int))

let check_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

let check_err what = function
  | Ok () -> Alcotest.failf "%s: expected a verification failure" what
  | Error _ -> ()

(* Assert that the memory ledger is back to zero and no vector blocks leaked
   except those of the listed live vectors.  (Buffer-pool pages of a cached
   backend live in the separate [pool_words] ledger, so a warm cache is not
   a leak.) *)
let check_no_leaks ?(live = 0) (c : int Em.Ctx.t) =
  check_int "memory ledger drained" 0 c.Em.Ctx.stats.Em.Stats.mem_in_use;
  if live >= 0 then
    check_bool "no leaked blocks beyond live vectors" true
      (Em.Device.live_blocks c.Em.Ctx.dev <= live)

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* Substring assertions over JSON reply/frame lines. *)
let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let contains ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  lsub = 0 || go 0

(* Heap words [f] allocates (minor plus direct-major, promotions counted
   once), for allocation gates.  Minor words come from [Gc.minor_words],
   which counts the live minor heap too ([Gc.quick_stat]'s count only moves
   at collections), and the minor heap is emptied first, so a short call
   is measured exactly rather than charged a collection's stale counters. *)
let words_allocated f =
  let words () =
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  Gc.minor ();
  let w0 = words () in
  f ();
  words () -. w0
