(** The project's one JSON codec: a value type, a printer and a parser.

    Every JSON the repository writes — serve replies, telemetry frames,
    trace events, post-mortems, metrics dumps, state files, BENCH
    artifacts — is built as a {!t} and printed by {!to_buffer}; every JSON
    it reads goes through {!parse}.  Object fields keep their list order,
    so emitters fix the key order and goldens stay byte-deterministic.
    The project deliberately carries no JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** Integral values below 1e15 print as integers ([%.0f]), others
          with 12 significant digits ([%.12g]); NaN and infinities print as
          [null]. *)
  | Fixed of int * float
      (** [Fixed (d, x)] prints [x] with exactly [d] decimals ([%.*f]), for
          fields whose width is part of the format (ratios, wall-clock
          fields); non-finite values print as [null]. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** The JSON string-body escape: ['"'], ['\\'] and the RFC 8259 short
    forms ([\b \f \n \r \t]); every other byte below [0x20] as [\u00XX].
    Bytes [>= 0x80] pass through unchanged. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the compact (whitespace-free) rendering of a value.  [Int]s are
    written digit by digit, exactly as [string_of_int] prints them. *)

val to_string : t -> string

val parse : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries an offset-annotated
    diagnostic.  Numbers follow the RFC 8259 grammar exactly (no leading
    [+] or zeros, no bare [.]): integer literals that fit an [int] parse as
    [Int], other numbers as [Float], and a literal outside the grammar or
    whose value is not a finite float ([1e400]) is an [Error], never an
    exception.  Strings decode the standard escapes including [\uXXXX]
    (as UTF-8).  [parse (to_string v) = Ok v] for every [v] without
    [Fixed] or integral/inexact [Float]s. *)

val member : string -> t -> t option
(** Field lookup on an object; [None] on missing field or non-object. *)

val path : string list -> t -> t option
(** Nested {!member} lookup. *)

val num : t -> float option
(** Any number ([Int], [Float] or [Fixed]) as a float. *)

val int : t -> int option
val str : t -> string option
