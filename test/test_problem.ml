(* Tests for problem specs and classification. *)

open Core.Problem

let ok spec =
  match validate spec with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "expected valid spec: %s" msg

let bad spec =
  match validate spec with
  | Ok () -> Alcotest.failf "expected invalid spec %s" (Format.asprintf "%a" pp_spec spec)
  | Error _ -> ()

let test_validate_accepts () =
  ok { n = 100; k = 10; a = 5; b = 20 };
  ok { n = 100; k = 10; a = 10; b = 10 };
  ok { n = 100; k = 10; a = 0; b = 100 };
  ok { n = 1; k = 1; a = 0; b = 1 };
  ok { n = 100; k = 100; a = 1; b = 1 }

let test_validate_rejects () =
  bad { n = 0; k = 1; a = 0; b = 0 };
  bad { n = 100; k = 0; a = 0; b = 100 };
  bad { n = 100; k = 101; a = 0; b = 100 };
  bad { n = 100; k = 10; a = -1; b = 100 };
  bad { n = 100; k = 10; a = 50; b = 40 };
  bad { n = 100; k = 10; a = 0; b = 101 };
  bad { n = 100; k = 10; a = 11; b = 100 };  (* a*k > n *)
  bad { n = 100; k = 10; a = 0; b = 9 }  (* b*k < n *)

let test_classify () =
  let check name expected spec =
    Alcotest.(check string) name expected (variant_name (classify spec))
  in
  check "right" "right-grounded" { n = 100; k = 10; a = 5; b = 100 };
  check "left" "left-grounded" { n = 100; k = 10; a = 0; b = 50 };
  check "two" "two-sided" { n = 100; k = 10; a = 5; b = 50 };
  check "unconstrained" "unconstrained" { n = 100; k = 10; a = 0; b = 100 }

let test_even_spec () =
  let s = even_spec ~n:100 ~k:8 in
  Tu.check_int "a" 12 s.a;
  Tu.check_int "b" 13 s.b;
  ok s;
  let exact = even_spec ~n:100 ~k:10 in
  Tu.check_int "a exact" 10 exact.a;
  Tu.check_int "b exact" 10 exact.b

let test_plan () =
  let check name expected spec =
    Alcotest.(check (array int)) name expected (sizes spec);
    Tu.check_int (name ^ " nonempty") (Array.length (Array.of_list (List.filter (( < ) 0) (Array.to_list expected)))) (nonempty spec)
  in
  check "unconstrained" [| 10; 0; 0 |] { n = 10; k = 3; a = 0; b = 10 };
  check "right" [| 10; 10; 10; 70 |] { n = 100; k = 4; a = 10; b = 100 };
  check "left" [| 30; 30; 30; 10; 0 |] { n = 100; k = 5; a = 0; b = 30 };
  check "two-sided shortcut" [| 25; 25; 25; 25 |] { n = 100; k = 4; a = 20; b = 50 };
  (* K' = (1024*16 - 4096) / (1024 - 32) = 12 parts of a, then 3712 / 4. *)
  check "two-sided K'"
    (Array.append (Array.make 12 32) (Array.make 4 928))
    { n = 4096; k = 16; a = 32; b = 1024 }

let test_plan_fits () =
  (* Every valid spec's plan: sizes in [a, b] (trailing empties only when
     a = 0), summing to n, nonempty ones first. *)
  let n = 60 in
  for k = 1 to n do
    for a = 0 to n / k do
      for b = a to n do
        let spec = { n; k; a; b } in
        if validate spec = Ok () then begin
          let s = sizes spec in
          let name = Format.asprintf "%a" pp_spec spec in
          Tu.check_int (name ^ " sum") n (Array.fold_left ( + ) 0 s);
          Array.iteri
            (fun i size ->
              Tu.check_bool (name ^ " in [a, b]") true (size >= a && size <= b);
              Tu.check_bool (name ^ " nonempty first") (i < nonempty spec) (size > 0);
              Tu.check_int (name ^ " cut") (cut spec (i + 1) - cut spec i) size)
            s
        end
      done
    done
  done

let test_validate_exn () =
  Alcotest.check_raises "raises" (Invalid_argument "Problem.validate: k must be >= 1")
    (fun () -> validate_exn { n = 10; k = 0; a = 0; b = 10 })

let suite =
  [
    Alcotest.test_case "validate: accepts" `Quick test_validate_accepts;
    Alcotest.test_case "validate: rejects" `Quick test_validate_rejects;
    Alcotest.test_case "classify" `Quick test_classify;
    Alcotest.test_case "even_spec" `Quick test_even_spec;
    Alcotest.test_case "validate_exn" `Quick test_validate_exn;
    Alcotest.test_case "plan: sizes per regime" `Quick test_plan;
    Alcotest.test_case "plan: fits every valid spec" `Quick test_plan_fits;
  ]
