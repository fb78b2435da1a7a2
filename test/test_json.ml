(* The JSON codec (Em.Json): the reader's accepted and rejected inputs,
   lookups, the printer's escaping and number formats, a print/parse round
   trip over random values, and every line the golden transcripts pin. *)

module J = Em.Json

let parse_ok s =
  match J.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "%S should parse, got: %s" s msg

let parse_err s =
  match J.parse s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%S should be rejected" s

(* ---- reader ---- *)

let test_values () =
  Tu.check_bool "null" true (parse_ok "null" = J.Null);
  Tu.check_bool "true" true (parse_ok "true" = J.Bool true);
  Tu.check_bool "false" true (parse_ok " false " = J.Bool false);
  Tu.check_bool "int" true (parse_ok "42" = J.Int 42);
  Tu.check_bool "negative int" true (parse_ok "-7" = J.Int (-7));
  Tu.check_bool "negative float" true (parse_ok "-2.5e2" = J.Float (-250.));
  Tu.check_bool "string" true (parse_ok "\"hi\"" = J.Str "hi");
  Tu.check_bool "escapes" true
    (parse_ok "\"a\\n\\t\\\\\\\"b\\/\"" = J.Str "a\n\t\\\"b/");
  Tu.check_bool "unicode escape decodes to UTF-8" true
    (parse_ok "\"\\u00e9\"" = J.Str "\xc3\xa9");
  Tu.check_bool "empty list" true (parse_ok "[]" = J.List []);
  Tu.check_bool "empty object" true (parse_ok "{}" = J.Obj []);
  Tu.check_bool "nested" true
    (parse_ok "{\"a\":[1,2],\"b\":{\"c\":null}}"
    = J.Obj [ ("a", J.List [ J.Int 1; J.Int 2 ]); ("b", J.Obj [ ("c", J.Null) ]) ])

let test_rejects () =
  List.iter parse_err
    [
      "";
      "{";
      "[1,2";
      "{\"a\":}";
      "{\"a\" 1}";
      "\"unterminated";
      "\"bad \\q escape\"";
      "tru";
      "1 2";
      "nan";
      "{\"a\":1,}";
      (* numbers outside the RFC 8259 grammar, or not finite *)
      "+5";
      "01";
      "00";
      "1.";
      ".5";
      "-.5";
      "+1.5";
      "-";
      "1e";
      "1e+";
      "[-01]";
      "1e400";
      "-1e400";
      "[1e400]";
    ]

let test_lookups () =
  let v = parse_ok "{\"cost\":{\"ios\":7,\"name\":\"x\",\"ratio\":0.5},\"seq\":2}" in
  Tu.check_bool "path hits nested int as a number" true
    (Option.bind (J.path [ "cost"; "ios" ] v) J.num = Some 7.);
  Tu.check_bool "int accessor" true (Option.bind (J.path [ "cost"; "ios" ] v) J.int = Some 7);
  Tu.check_bool "num takes floats too" true
    (Option.bind (J.path [ "cost"; "ratio" ] v) J.num = Some 0.5);
  Tu.check_bool "int refuses a float" true
    (Option.bind (J.path [ "cost"; "ratio" ] v) J.int = None);
  Tu.check_bool "member + str" true
    (Option.bind (J.path [ "cost"; "name" ] v) J.str = Some "x");
  Tu.check_bool "missing member is None" true (J.member "nope" v = None);
  Tu.check_bool "path through a non-object is None" true
    (J.path [ "seq"; "deep" ] v = None);
  Tu.check_bool "num on an object is None" true
    (Option.bind (J.member "cost" v) J.num = None)

(* ---- printer ---- *)

let test_printer () =
  let check what expected v = Alcotest.(check string) what expected (J.to_string v) in
  Alcotest.(check string) "short forms, \\u00XX, high bytes verbatim"
    "q\\\"b\\\\s\\n\\r\\t\\b\\f\\u0001\\u001f\x7f\xc3\xa9"
    (J.escape "q\"b\\s\n\r\t\b\012\001\031\127\xc3\xa9");
  Alcotest.(check string) "nothing to escape" "plain text" (J.escape "plain text");
  check "integral float" "3" (J.Float 3.);
  check "fractional float" "0.1" (J.Float 0.1);
  check "12 significant digits" "120.470588235" (J.Float (2048. /. 17.));
  check "huge integral float" "1e+15" (J.Float 1e15);
  check "nan" "null" (J.Float Float.nan);
  check "infinity" "null" (J.Float Float.infinity);
  check "fixed decimals" "3.1527" (J.Fixed (4, 3.15274));
  check "fixed rounds to width" "1235" (J.Fixed (0, 1234.6));
  check "fixed non-finite" "null" (J.Fixed (2, Float.nan));
  check "compact nesting" "{\"a\":[1,true,null],\"b\":\"x\",\"c\":{}}"
    (J.Obj
       [ ("a", J.List [ J.Int 1; J.Bool true; J.Null ]); ("b", J.Str "x"); ("c", J.Obj []) ])

(* Values the printer writes exactly: every constructor except [Fixed],
   floats that are neither integral nor longer than 12 significant digits,
   and strings/keys drawn from all 256 bytes. *)
let gen_value =
  let open QCheck2.Gen in
  let bytes = string_size ~gen:char (int_range 0 12) in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun k -> J.Float (float_of_int ((2 * k) + 1) /. 8.)) (int_range (-1_000_000) 1_000_000);
        map (fun s -> J.Str s) bytes;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> J.List l) (list_size (int_range 0 4) (self (n / 4))));
               (1, map (fun l -> J.Obj l) (list_size (int_range 0 4) (pair bytes (self (n / 4)))));
             ])

let prop_round_trip =
  Tu.qcheck_case ~count:500 "parse (to_string v) = Ok v" gen_value (fun v ->
      J.parse (J.to_string v) = Ok v)

(* The digit-by-digit integer printer against [string_of_int]: random ints
   plus the edges where the sign or the digit count changes — 0, ±1,
   [max_int], [min_int], and ±10^k, ±(10^k - 1) for every k an int holds. *)
let int_edges =
  let rec pow10 k = if k = 0 then 1 else 10 * pow10 (k - 1) in
  [ 0; 1; -1; max_int; min_int ]
  @ List.concat_map (fun k -> let p = pow10 k in [ p; p - 1; -p; 1 - p ]) (List.init 19 Fun.id)

let prints_like_string_of_int i =
  let s = J.to_string (J.Int i) in
  s = string_of_int i && J.parse s = Ok (J.Int i)

let test_int_printer_edges () =
  List.iter
    (fun i -> Tu.check_bool (string_of_int i) true (prints_like_string_of_int i))
    int_edges

let prop_int_printer =
  Tu.qcheck_case ~count:1000 "to_string (Int i) = string_of_int i, and parses back"
    QCheck2.Gen.(oneof [ int; oneofl int_edges; map (fun i -> i asr 32) int ])
    prints_like_string_of_int

(* Every line the golden transcripts pin must be a JSON object the reader
   accepts. *)
let test_golden_lines () =
  List.iter
    (fun name ->
      let path =
        List.find Sys.file_exists
          [ Filename.concat "golden" name; Filename.concat "test/golden" name ]
      in
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Tu.check_bool (name ^ " is not empty") true (lines <> []);
      List.iter
        (fun l ->
          match parse_ok l with
          | J.Obj _ -> ()
          | _ -> Alcotest.failf "%s: not an object: %s" name l)
        lines)
    [ "serve.expected"; "telemetry.expected"; "metrics.json.expected" ]

let suite =
  [
    Alcotest.test_case "reader: values" `Quick test_values;
    Alcotest.test_case "reader: rejects" `Quick test_rejects;
    Alcotest.test_case "reader: lookups" `Quick test_lookups;
    Alcotest.test_case "printer: escapes and numbers" `Quick test_printer;
    prop_round_trip;
    Alcotest.test_case "printer: integer edges" `Quick test_int_printer_edges;
    prop_int_printer;
    Alcotest.test_case "golden lines parse" `Quick test_golden_lines;
  ]
