(* splitmix64 over an 8-byte state buffer; see the interface. *)

type t = Bytes.t

let create seed =
  let r = Bytes.create 8 in
  Bytes.set_int64_ne r 0 (Int64.of_int seed);
  r

let[@inline] next r =
  let z = Int64.add (Bytes.get_int64_ne r 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne r 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int r bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next r) 1) (Int64.of_int bound))

let float01 r = Int64.to_float (Int64.shift_right_logical (next r) 11) /. 9007199254740992.0
