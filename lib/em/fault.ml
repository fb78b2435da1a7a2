(* Deterministic fault plans; see the interface. *)

type op = [ `Read | `Write ]

type kind =
  | Transient_read
  | Permanent_read
  | Transient_write
  | Permanent_write
  | Torn_write
  | Bit_corruption
  | Crash

let kind_name = function
  | Transient_read -> "transient-read"
  | Permanent_read -> "permanent-read"
  | Transient_write -> "transient-write"
  | Permanent_write -> "permanent-write"
  | Torn_write -> "torn-write"
  | Bit_corruption -> "bit-corruption"
  | Crash -> "crash"

let applies kind (op : op) =
  match (kind, op) with
  | (Transient_read | Permanent_read), `Read -> true
  | (Transient_write | Permanent_write | Torn_write), `Write -> true
  | (Bit_corruption | Crash), _ -> true
  | _ -> false

let is_permanent = function
  | Permanent_read | Permanent_write -> true
  | Transient_read | Transient_write | Torn_write | Bit_corruption | Crash -> false

let is_silent = function
  | Torn_write | Bit_corruption -> true
  | Transient_read | Permanent_read | Transient_write | Permanent_write | Crash -> false

(* Plans draw from a seeded splitmix64, so they never touch the global
   [Random] state and replay identically for a given seed. *)
module Rng = Splitmix

type plan = {
  mutable seen : int;  (* metered I/O attempts presented to this plan *)
  choose : io:int -> op:op -> block:int -> phase:string list -> kind option;
}

let decide p ~op ~block ~phase =
  let io = p.seen in
  p.seen <- io + 1;
  p.choose ~io ~op ~block ~phase

let seen p = p.seen
let make choose = { seen = 0; choose }
let never = make (fun ~io:_ ~op:_ ~block:_ ~phase:_ -> None)

let every_nth ?(offset = 0) ~n kind =
  if n < 1 then invalid_arg "Fault.every_nth: n must be >= 1";
  make (fun ~io ~op ~block:_ ~phase:_ ->
      let i = io - offset in
      if i >= 0 && (i + 1) mod n = 0 && applies kind op then Some kind else None)

let seeded ~seed ~p kinds =
  if p < 0.0 || p > 1.0 then invalid_arg "Fault.seeded: p must be in [0, 1]";
  if kinds = [] then invalid_arg "Fault.seeded: empty kind list";
  let rng = Rng.create seed in
  make (fun ~io:_ ~op ~block:_ ~phase:_ ->
      (* Exactly one uniform draw per I/O, so the fault positions for a given
         seed do not depend on the kind mix. *)
      let fire = Rng.float01 rng < p in
      if not fire then None
      else
        match List.filter (fun k -> applies k op) kinds with
        | [] -> None
        | applicable -> Some (List.nth applicable (Rng.int rng (List.length applicable))))

let on_blocks blocks kind =
  make (fun ~io:_ ~op ~block ~phase:_ ->
      if List.mem block blocks && applies kind op then Some kind else None)

let in_phase label inner =
  make (fun ~io:_ ~op ~block ~phase ->
      if List.mem label phase then decide inner ~op ~block ~phase else None)

let on_op target inner =
  make (fun ~io:_ ~op ~block ~phase ->
      if op = target then decide inner ~op ~block ~phase else None)

let limit k inner =
  if k < 0 then invalid_arg "Fault.limit: negative count";
  let fired = ref 0 in
  make (fun ~io:_ ~op ~block ~phase ->
      if !fired >= k then None
      else
        match decide inner ~op ~block ~phase with
        | Some kind ->
            incr fired;
            Some kind
        | None -> None)

let crash_after_ios n =
  if n < 1 then invalid_arg "Fault.crash_after_ios: n must be >= 1";
  let fired = ref false in
  make (fun ~io ~op:_ ~block:_ ~phase:_ ->
      if (not !fired) && io + 1 >= n then begin
        fired := true;
        Some Crash
      end
      else None)

let crash_at indices =
  List.iter (fun i -> if i < 1 then invalid_arg "Fault.crash_at: indices must be >= 1") indices;
  let remaining = ref (List.sort_uniq Int.compare indices) in
  make (fun ~io ~op:_ ~block:_ ~phase:_ ->
      match !remaining with
      | next :: rest when io + 1 >= next ->
          remaining := rest;
          Some Crash
      | _ -> None)

let any plans =
  make (fun ~io:_ ~op ~block ~phase ->
      (* Consult every sub-plan on every I/O — each keeps its own schedule
         position — then fire the first hit. *)
      List.fold_left
        (fun hit p ->
          match decide p ~op ~block ~phase with
          | Some _ as fired when hit = None -> fired
          | _ -> hit)
        None plans)
