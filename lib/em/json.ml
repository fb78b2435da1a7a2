(* The one JSON codec: value type, printer, parser.

   The printer appends straight into one Buffer — no intermediate strings
   per sub-object or integer — and copies strings that need no escaping in
   one go; serve renders a reply per query through it, so it stays on the
   hot path.  The parser is a small recursive-descent reader that accepts
   exactly the RFC 8259 grammar. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Fixed of int * float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- printer ---- *)

let needs_escape c = c < ' ' || c = '"' || c = '\\'

let add_escaped b s =
  if not (String.exists needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | '\b' -> Buffer.add_string b "\\b"
        | '\012' -> Buffer.add_string b "\\f"
        | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s

let escape s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped b s;
  Buffer.contents b

let add_string b s =
  Buffer.add_char b '"';
  add_escaped b s;
  Buffer.add_char b '"'

let add_seq b opening closing add items =
  Buffer.add_char b opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      add x)
    items;
  Buffer.add_char b closing

(* Decimal digits straight into the buffer: no format string, no
   intermediate string.  Digits come off the non-positive side, so
   [min_int] needs no special case. *)
let add_int b i =
  let rec digits m =
    if m <= -10 then digits (m / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))
  in
  if i < 0 then begin
    Buffer.add_char b '-';
    digits i
  end
  else digits (-i)

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> add_int b i
  | Float x | Fixed (_, x) when not (Float.is_finite x) -> Buffer.add_string b "null"
  | Float x when Float.is_integer x && Float.abs x < 1e15 -> Printf.bprintf b "%.0f" x
  | Float x -> Printf.bprintf b "%.12g" x
  | Fixed (d, x) -> Printf.bprintf b "%.*f" d x
  | Str s -> add_string b s
  | List items -> add_seq b '[' ']' (to_buffer b) items
  | Obj fields ->
      add_seq b '{' '}'
        (fun (k, v) ->
          add_string b k;
          Buffer.add_char b ':';
          to_buffer b v)
        fields

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* ---- parser ---- *)

exception Bad of string

let utf8_add b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    String.iter (fun c -> expect c) word;
    value
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'n' -> Buffer.add_char b '\n'
              | 't' -> Buffer.add_char b '\t'
              | 'r' -> Buffer.add_char b '\r'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'u' ->
                  if !pos + 4 > n then fail "truncated \\u escape";
                  let hex = String.sub s !pos 4 in
                  pos := !pos + 4;
                  let code =
                    match int_of_string_opt ("0x" ^ hex) with
                    | Some c -> c
                    | None -> fail "invalid \\u escape"
                  in
                  utf8_add b code
              | _ -> fail "unknown escape");
              go ())
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  (* The RFC 8259 number grammar: an optional minus, then 0 or a digit run
     without a leading zero, then an optional fraction and an optional
     exponent, each with at least one digit.  An integer literal that fits
     an [int] is an [Int]; anything else must be a finite float. *)
  let parse_number () =
    let start = !pos in
    let is_digit = function Some '0' .. '9' -> true | _ -> false in
    let digits () =
      if not (is_digit (peek ())) then fail "invalid number";
      while is_digit (peek ()) do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | _ -> digits ());
    let integral = ref true in
    if peek () = Some '.' then begin
      integral := false;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        integral := false;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let lit = String.sub s start (!pos - start) in
    match if !integral then int_of_string_opt lit else None with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt lit with
        | Some f when Float.is_finite f -> Float f
        | _ -> fail "number out of range")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, value) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, value) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (value :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (value :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match parse_value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing input at offset %d" !pos)
      else Ok v
  | exception Bad msg -> Error msg

(* ---- lookups ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let path keys v =
  List.fold_left
    (fun acc key -> match acc with Some v -> member key v | None -> None)
    (Some v) keys

let num = function
  | Int i -> Some (float_of_int i)
  | Float f | Fixed (_, f) -> Some f
  | _ -> None

let int = function Int i -> Some i | _ -> None
let str = function Str s -> Some s | _ -> None
