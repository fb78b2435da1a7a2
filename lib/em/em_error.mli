(** Typed error surface of the EM machine.

    Two families live here:

    - {b Simulated failures} ({!t}, carried by {!Error}): what the machine
      does to a computation — injected I/O faults, retry exhaustion,
      checksum mismatches, crashes.  Algorithms run under fault injection
      return these through {!protect} instead of escaping with a bare
      exception, so callers can match on the failure mode.
    - {b Programming errors} (the dedicated exceptions below): misuse of the
      device or the memory ledger — addressing a block that does not exist,
      double-freeing, overflowing a block, corrupting the ledger.  These
      replace the former stringly-typed [Invalid_argument] failures so that
      fault-handling code can distinguish "the simulated disk failed" from
      "the algorithm is wrong". *)

type t =
  | Io_fault of { op : Fault.op; kind : Fault.kind; block : int }
      (** A raw injected fault that nothing recovered (unarmed device). *)
  | Read_failed of { block : int; attempts : int }
      (** Retries exhausted, or the block is permanently unreadable. *)
  | Write_failed of { block : int; attempts : int }
  | Corrupt_block of { block : int; attempts : int }
      (** Checksum verification kept failing: stored data is corrupt. *)
  | Crashed of { after_ios : int }
      (** The machine halted mid-run; only restartable drivers survive. *)
  | Budget_exceeded of { budget : int; spent : int }
      (** A caller-imposed I/O budget ran out mid-operation (see
          {!Emalg.Online_select.set_io_budget}): the work already paid for is
          kept, but the operation was aborted.  Never retried by
          {!Resilient.with_retries} — re-running would spend the same budget
          again. *)

exception Error of t

(** Programming-error exceptions (device / ledger misuse). *)

exception Bad_block_id of { op : string; id : int }
exception Never_written of { id : int }
exception Payload_overflow of { len : int; block : int }
exception Double_free of { id : int }
exception Negative_words of { op : string; n : int }
exception Over_release of { releasing : int; in_use : int }

exception Slot_overflow of { bytes : int; capacity : int; slot : int }
(** An encoded payload did not fit a file backend's fixed slot; raise the
    backend's [slot_bytes] (see {!Backend.file}). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val raise_error : t -> 'a

val protect : (unit -> 'a) -> ('a, t) result
(** [protect f] runs [f], catching {!Error} — the one blessed way to run an
    algorithm under fault injection.  Programming errors still raise. *)
