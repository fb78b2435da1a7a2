(** Block-reuse analysis of a {!Trace} event stream: what the events alone
    know.  Per-phase costs live in {!Profile} spans, totals and per-disk
    counts in {!Stats}, and the seek count in {!Trace.seeks}.

    The analysis streams: its sink keeps one read/write tally per distinct
    block and one entry per scheduling window, never the events
    themselves. *)

type summary = {
  distinct_blocks : int;
  reread_histogram : (int * int) list;
      (** (times a block was read, number of such blocks), ascending *)
  rewrite_histogram : (int * int) list;
  scheduling_windows : int;
      (** distinct round ids: I/Os sharing one were issued in the same
          scheduling window and overlap on a parallel-disk machine.  Zero
          for single-disk traces. *)
}

val sink : unit -> Trace.sink * (unit -> summary)
(** A sink to add to a tracer, plus a function summarising the events it
    has seen so far.  {!Trace.reset} clears it. *)

val pp_summary : Format.formatter -> summary -> unit
