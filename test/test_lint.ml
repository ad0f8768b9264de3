(* fosc-lint / fosc-race self-test: every fixture under lint_fixtures/
   (parsetree pass) and race_fixtures/ (typedtree pass) must produce
   exactly the expected findings (rule ids and line numbers), the scope
   flag must gate R2/R4, and the live repo must come out clean under
   both passes. *)

let exe = "../tool/lint/fosc_lint.exe"
let race_exe = "../tool/lint/fosc_race.exe"

(* Runs a lint executable and returns (exit code, output lines). *)
let run_tool ?(scope_lib = false) tool paths =
  let out = Filename.temp_file "fosc_lint" ".out" in
  let cmd =
    Printf.sprintf "%s%s %s > %s 2>&1" tool
      (if scope_lib then " --scope lib" else "")
      (String.concat " " paths) out
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  Sys.remove out;
  (code, lines)

let run ?scope_lib paths = run_tool ?scope_lib exe paths
let run_race paths = run_tool race_exe paths

(* "path:LINE:COL: [RULE] msg" -> (LINE, RULE); other lines dropped. *)
let findings_of lines =
  List.filter_map
    (fun line ->
      match (String.index_opt line '[', String.index_opt line ']') with
      | Some i, Some j when i < j -> (
          let rule = String.sub line (i + 1) (j - i - 1) in
          match String.split_on_char ':' line with
          | _path :: l :: _ -> (
              match int_of_string_opt l with
              | Some l -> Some (l, rule)
              | None -> None)
          | _ -> None)
      | _ -> None)
    lines

let finding = Alcotest.(pair int string)

let check_fixture ?scope_lib name expected () =
  let code, lines = run ?scope_lib [ "lint_fixtures/" ^ name ] in
  Alcotest.(check int) "exit code" (if expected = [] then 0 else 1) code;
  Alcotest.(check (list finding)) "findings" expected (findings_of lines)

let fixture_cases =
  [
    ( "r1_bad.ml",
      None,
      [ (6, "R1"); (7, "R1"); (8, "R1"); (9, "R1"); (10, "R1"); (11, "R1");
        (12, "R1"); (13, "R1") ] );
    ( "r2_bad.ml",
      Some true,
      [ (7, "R2"); (8, "R2"); (9, "R2"); (10, "R2"); (11, "R2") ] );
    ("r3_bad.ml", None, [ (3, "R3"); (4, "R3") ]);
    ("r4_bad.ml", Some true, [ (4, "R4"); (5, "R4"); (6, "R4"); (7, "R4") ]);
    ("r5_bad.ml", None, [ (7, "R5"); (8, "R5"); (8, "R5"); (9, "R5") ]);
    ("clean.ml", Some true, []);
  ]

(* R2/R4 only apply in lib scope: out of scope (fixture paths contain
   no "lib") the binding/call findings vanish.  The attribute-grammar
   check is scope-independent, so r2_bad's invalid "spinlock"
   discipline must still be reported. *)
let test_scope_gating () =
  List.iter
    (fun (name, expected) ->
      let code, lines = run [ "lint_fixtures/" ^ name ] in
      Alcotest.(check (list finding))
        (name ^ " findings out of lib scope") expected (findings_of lines);
      Alcotest.(check int)
        (name ^ " exit code out of lib scope")
        (if expected = [] then 0 else 1)
        code)
    [ ("r2_bad.ml", [ (11, "R2") ]); ("r4_bad.ml", []) ]

let test_repo_clean () =
  let code, lines = run [ "../lib"; "../bin"; "../bench"; "."; "../tool" ] in
  Alcotest.(check (list finding)) "repo findings" [] (findings_of lines);
  Alcotest.(check int) "repo exit code" 0 code

(* ------------------------------------------------- fosc-race (R6-R9) *)

let check_race_fixture name expected () =
  let code, lines = run_race [ "race_fixtures/" ^ name ] in
  Alcotest.(check int) "exit code" (if expected = [] then 0 else 1) code;
  Alcotest.(check (list finding)) "findings" expected (findings_of lines)

(* Exact line/rule assertions: a shifted finding means the analyzer
   started anchoring somewhere else, which is a behavior change. *)
let race_fixture_cases =
  [
    ("r6_bad.cmt", [ (11, "R6") ]);
    ("r7_bad.cmt", [ (9, "R7") ]);
    ("r8_bad.cmt", [ (11, "R8") ]);
    ("r9_bad.cmt", [ (19, "R9"); (23, "R9"); (40, "R9") ]);
    (* Regression guard for the pre-PR Thermal.Reduced shape: a shared
       lazy record field forced inside a pool closure (Lazy.RacyLazy
       class).  The live code now prepares on the submitting domain and
       annotates the field; this fixture keeps the detector honest. *)
    ("lazy_regression.cmt", [ (17, "R8") ]);
    ("clean.cmt", []);
  ]

let test_race_repo_clean () =
  let code, lines = run_race [ "../lib" ] in
  Alcotest.(check (list finding)) "race findings" [] (findings_of lines);
  Alcotest.(check int) "race exit code" 0 code

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        List.map
          (fun (name, scope_lib, expected) ->
            Alcotest.test_case name `Quick
              (check_fixture ?scope_lib name expected))
          fixture_cases );
      ( "scope",
        [ Alcotest.test_case "R2/R4 gated by lib scope" `Quick test_scope_gating ]
      );
      ("repo", [ Alcotest.test_case "live repo lints clean" `Quick test_repo_clean ]);
      ( "race fixtures",
        List.map
          (fun (name, expected) ->
            Alcotest.test_case name `Quick (check_race_fixture name expected))
          race_fixture_cases );
      ( "race repo",
        [
          Alcotest.test_case "live lib cmts race-clean" `Quick
            test_race_repo_clean;
        ] );
    ]
