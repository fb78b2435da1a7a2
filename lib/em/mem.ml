exception Memory_exceeded of { requested : int; in_use : int; capacity : int }

(* The [M]-word capacity covers everything resident in simulated RAM:
   algorithm buffers ([mem_in_use]) and buffer-pool pages ([pool_words]).
   The two are ledgered separately so that "the algorithm released all its
   words" remains checkable while a cache is warm. *)
let resident = Stats.resident

let bump_peak s =
  if resident s > s.Stats.mem_peak then s.Stats.mem_peak <- resident s;
  Stats.notify_mem s

let charge_resident ~op ~pool p s n =
  if n < 0 then raise (Em_error.Negative_words { op; n });
  let capacity = p.Params.mem in
  (* Under memory pressure, ask holders of opportunistic charges — write-
     behind queues first, the buffer pool last — to give words back before
     declaring overflow.  The pool only ever releases, so one pass
     suffices. *)
  if resident s + n > capacity then Stats.run_reclaimers s ~limit:(capacity - n);
  if resident s + n > capacity then
    raise (Memory_exceeded { requested = n; in_use = resident s; capacity });
  if pool then s.Stats.pool_words <- s.Stats.pool_words + n
  else s.Stats.mem_in_use <- s.Stats.mem_in_use + n;
  bump_peak s

let charge p s n = charge_resident ~op:"charge" ~pool:false p s n

let release _p s n =
  if n < 0 then raise (Em_error.Negative_words { op = "release"; n });
  if n > s.Stats.mem_in_use then
    raise (Em_error.Over_release { releasing = n; in_use = s.Stats.mem_in_use });
  s.Stats.mem_in_use <- s.Stats.mem_in_use - n

(* Buffer-pool residency accounting, used only by [Backend.Pool]. *)

let charge_pool p s n = charge_resident ~op:"charge_pool" ~pool:true p s n

let release_pool _p s n =
  if n < 0 then raise (Em_error.Negative_words { op = "release_pool"; n });
  if n > s.Stats.pool_words then
    raise (Em_error.Over_release { releasing = n; in_use = s.Stats.pool_words });
  s.Stats.pool_words <- s.Stats.pool_words - n

let with_words p s n f =
  charge p s n;
  match f () with
  | result ->
      release p s n;
      result
  | exception e ->
      release p s n;
      raise e
