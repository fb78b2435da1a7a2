(** Phase labels.

    Algorithms label their passes ([with_label ctx "distribute" f]); labels
    nest into full paths, outermost first and joined with ["/"] (so
    ["sort/merge"] and ["multiselect/merge"] stay distinct).  Labelling is
    free in the simulated cost model and the machine keeps no per-phase
    counters: an attached {!Profile} turns each labelled bracket into a
    span, and {!Profile.phase_report} derives the per-path I/O breakdown
    from those spans.  Without a profiler there is no phase report. *)

val with_label : 'a Ctx.t -> string -> (unit -> 'b) -> 'b
(** Push a label around a computation (restored on exceptions too).  Entering
    and leaving the label also fires any {!Stats.span_hooks} attached to the
    machine, which is how {!Profile} sees span boundaries. *)
