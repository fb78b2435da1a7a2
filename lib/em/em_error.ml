type t =
  | Io_fault of { op : Fault.op; kind : Fault.kind; block : int }
  | Read_failed of { block : int; attempts : int }
  | Write_failed of { block : int; attempts : int }
  | Corrupt_block of { block : int; attempts : int }
  | Crashed of { after_ios : int }
  | Budget_exceeded of { budget : int; spent : int }

exception Error of t

exception Bad_block_id of { op : string; id : int }
exception Never_written of { id : int }
exception Payload_overflow of { len : int; block : int }
exception Double_free of { id : int }
exception Negative_words of { op : string; n : int }
exception Over_release of { releasing : int; in_use : int }

exception Slot_overflow of { bytes : int; capacity : int; slot : int }
(* An encoded payload exceeded a file backend's fixed slot size; see
   [Backend.file]. *)

let op_name = function `Read -> "read" | `Write -> "write"

let to_string = function
  | Io_fault { op; kind; block } ->
      Printf.sprintf "injected %s fault on %s of block %d" (Fault.kind_name kind) (op_name op)
        block
  | Read_failed { block; attempts } ->
      Printf.sprintf "read of block %d failed after %d attempt(s)" block attempts
  | Write_failed { block; attempts } ->
      Printf.sprintf "write of block %d failed after %d attempt(s)" block attempts
  | Corrupt_block { block; attempts } ->
      Printf.sprintf "block %d failed checksum verification (%d attempt(s))" block attempts
  | Crashed { after_ios } -> Printf.sprintf "machine crashed after %d I/Os" after_ios
  | Budget_exceeded { budget; spent } ->
      Printf.sprintf "I/O budget of %d exceeded (%d spent)" budget spent

let pp ppf e = Format.pp_print_string ppf (to_string e)
let raise_error e = raise (Error e)
let protect f = match f () with v -> Ok v | exception Error e -> Result.Error e

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Em_error.Error(%s)" (to_string e))
    | Bad_block_id { op; id } -> Some (Printf.sprintf "Em_error.Bad_block_id(%s, %d)" op id)
    | Never_written { id } -> Some (Printf.sprintf "Em_error.Never_written(%d)" id)
    | Payload_overflow { len; block } ->
        Some (Printf.sprintf "Em_error.Payload_overflow(len %d > B %d)" len block)
    | Double_free { id } -> Some (Printf.sprintf "Em_error.Double_free(%d)" id)
    | Negative_words { op; n } -> Some (Printf.sprintf "Em_error.Negative_words(%s, %d)" op n)
    | Over_release { releasing; in_use } ->
        Some (Printf.sprintf "Em_error.Over_release(%d > %d in use)" releasing in_use)
    | Slot_overflow { bytes; capacity; slot } ->
        Some
          (Printf.sprintf "Em_error.Slot_overflow(%d bytes > %d-byte slot %d)" bytes capacity
             slot)
    | _ -> None)
