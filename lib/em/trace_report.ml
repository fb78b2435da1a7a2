type summary = {
  distinct_blocks : int;
  reread_histogram : (int * int) list;
  rewrite_histogram : (int * int) list;
  scheduling_windows : int;
}

type tally = { mutable reads : int; mutable writes : int }

(* (times, blocks accessed that many times), ascending; blocks never
   accessed that way are left out. *)
let histogram blocks times_of =
  let hist = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ tally ->
      let times = times_of tally in
      if times > 0 then
        Hashtbl.replace hist times (1 + Option.value (Hashtbl.find_opt hist times) ~default:0))
    blocks;
  Hashtbl.fold (fun times n acc -> (times, n) :: acc) hist []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let sink () =
  let blocks = Hashtbl.create 64 and rounds = Hashtbl.create 64 in
  let push (e : Trace.event) =
    let tally =
      match Hashtbl.find_opt blocks e.block with
      | Some tally -> tally
      | None ->
          let tally = { reads = 0; writes = 0 } in
          Hashtbl.add blocks e.block tally;
          tally
    in
    (match e.op with
    | Trace.Read -> tally.reads <- tally.reads + 1
    | Trace.Write -> tally.writes <- tally.writes + 1);
    Option.iter (fun r -> Hashtbl.replace rounds r ()) e.round
  in
  let reset () =
    Hashtbl.reset blocks;
    Hashtbl.reset rounds
  in
  ( Trace.custom_sink ~reset push,
    fun () ->
      {
        distinct_blocks = Hashtbl.length blocks;
        reread_histogram = histogram blocks (fun t -> t.reads);
        rewrite_histogram = histogram blocks (fun t -> t.writes);
        scheduling_windows = Hashtbl.length rounds;
      } )

let pp_histogram ppf hist =
  if hist = [] then Format.fprintf ppf "  (none)@."
  else
    List.iter
      (fun (times, blocks) -> Format.fprintf ppf "  %4dx : %d blocks@." times blocks)
      hist

(* Windows only on multi-disk traces, so single-disk reports keep their
   shape. *)
let pp_summary ppf s =
  if s.scheduling_windows > 0 then
    Format.fprintf ppf "sched windows:    %d@." s.scheduling_windows;
  Format.fprintf ppf "distinct blocks:  %d@." s.distinct_blocks;
  Format.fprintf ppf "block re-reads (times read -> blocks):@.";
  pp_histogram ppf s.reread_histogram;
  Format.fprintf ppf "block re-writes (times written -> blocks):@.";
  pp_histogram ppf s.rewrite_histogram
