(* Golden bit fixture for the evaluation context: the exact IEEE-754 bit
   pattern of every [Core.Eval] evaluator on fixed inputs, for a dense
   3-core platform and a sparse 3x3 sheet, each with the memo tables
   disabled (cache_size 0) and at their default size.  A refactor of
   the evaluator layers must reproduce these bits — memoization,
   dispatch and the backend seam may change cost, never a float.

   Regenerate (only when a numerical change is intended and documented)
   with

     FOSC_GOLDEN_DUMP=1 dune exec test/test_golden.exe

   which prints the tables below in OCaml syntax instead of checking. *)

module P = Core.Platform
module Eval = Core.Eval

let dense_platform () = Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:65.

let sparse_platform () =
  P.sheet ~rows:3 ~cols:3 ~levels:(Power.Vf.table_iv 5) ~t_max:80. ()

(* Fixed inputs, shaped by the core count.  The duty ratios hit the
   snapped all-low / all-high boundaries of the two-mode decomposition
   as well as interior values. *)
let voltages n = Array.init n (fun i -> 0.6 +. (0.7 *. float_of_int (i mod 4) /. 3.))
let period = 0.05
let low n = Array.init n (fun i -> 0.6 +. (0.1 *. float_of_int (i mod 3)))
let high n = Array.map (fun v -> v +. 0.5) (low n)

let high_ratio n =
  Array.init n (fun i ->
      match i mod 4 with 0 -> 0.25 | 1 -> 1. | 2 -> 0. | _ -> 0.6)

(* Every evaluator, labelled; vectors contribute one entry per core. *)
let evaluate ev =
  let n = P.n_cores (Eval.platform ev) in
  let low = low n and high = high n and high_ratio = high_ratio n in
  let step_up = Sched.Schedule.two_mode ~period ~low ~high ~high_ratio in
  let shifted = Sched.Schedule.shift step_up 0 (period /. 3.) in
  let out = ref [] in
  let scalar label v = out := (label, v) :: !out in
  let vector label vs =
    Array.iteri (fun i v -> scalar (Printf.sprintf "%s.(%d)" label i) v) vs
  in
  scalar "steady_peak" (Eval.steady_peak ev (voltages n));
  scalar "step_up_peak" (Eval.step_up_peak ev step_up);
  scalar "two_mode_peak" (Eval.two_mode_peak ev ~period ~low ~high ~high_ratio);
  scalar "any_peak" (Eval.any_peak ev ~samples_per_segment:16 shifted);
  vector "stable_end_core_temps" (Eval.stable_end_core_temps ev shifted);
  vector "two_mode_end_core_temps"
    (Eval.two_mode_end_core_temps ev ~period ~low ~high ~high_ratio);
  Eval.two_mode_delta_base ev ~period ~low ~high ~high_ratio;
  scalar "two_mode_delta_peak"
    (Eval.two_mode_delta_peak ev ~core:1 ~low:low.(1) ~high:high.(1)
       ~high_ratio:0.4);
  scalar "two_mode_delta_temp_at"
    (Eval.two_mode_delta_temp_at ev ~at:0 ~core:2 ~low:low.(2) ~high:high.(2)
       ~high_ratio:0.7);
  scalar "rom_two_mode_peak"
    (Eval.rom_two_mode_peak ev ~period ~low ~high ~high_ratio);
  scalar "rom_any_peak" (Eval.rom_any_peak ev ~samples_per_segment:16 shifted);
  List.rev !out

let dense_golden =
  [
    ("steady_peak", 0x404abd49fc59e8ecL);
    ("step_up_peak", 0x404cdaa39e1f0d9cL);
    ("two_mode_peak", 0x404cdaa39e1f0d9cL);
    ("any_peak", 0x404cdba45824370dL);
    ("stable_end_core_temps.(0)", 0x4048c7ca971037c8L);
    ("stable_end_core_temps.(1)", 0x404cdba45824370dL);
    ("stable_end_core_temps.(2)", 0x4048d9a6aa0d15acL);
    ("two_mode_end_core_temps.(0)", 0x4048f5e7a3dc0301L);
    ("two_mode_end_core_temps.(1)", 0x404cdaa39e1f0d9cL);
    ("two_mode_end_core_temps.(2)", 0x4048d9a39cf284a6L);
    ("two_mode_delta_peak", 0x404953c20ca47ce7L);
    ("two_mode_delta_temp_at", 0x404986b09883e268L);
    ("rom_two_mode_peak", 0x404cdaa39e1f0d9cL);
    ("rom_any_peak", 0x404cdba45824370dL);
  ]

let sparse_golden =
  [
    ("steady_peak", 0x404faf3b7c985138L);
    ("step_up_peak", 0x405012313fc14bd2L);
    ("two_mode_peak", 0x405012313fc14bd2L);
    ("any_peak", 0x40501395bbd02342L);
    ("stable_end_core_temps.(0)", 0x4049fc4232ae7d92L);
    ("stable_end_core_temps.(1)", 0x404e19582cdbc320L);
    ("stable_end_core_temps.(2)", 0x404b6a9bc9a2cc32L);
    ("stable_end_core_temps.(3)", 0x404b01ce82c1ada4L);
    ("stable_end_core_temps.(4)", 0x404ce72fb8642f90L);
    ("stable_end_core_temps.(5)", 0x405012311da66978L);
    ("stable_end_core_temps.(6)", 0x40486d8eff54a8cbL);
    ("stable_end_core_temps.(7)", 0x404c885cbcfa2987L);
    ("stable_end_core_temps.(8)", 0x404cdba81c0209f6L);
    ("two_mode_end_core_temps.(0)", 0x404a2b294a3ee3eaL);
    ("two_mode_end_core_temps.(1)", 0x404e185cd523201aL);
    ("two_mode_end_core_temps.(2)", 0x404b6a9885528c8bL);
    ("two_mode_end_core_temps.(3)", 0x404b00d32b090aa0L);
    ("two_mode_end_core_temps.(4)", 0x404ce728e6a710caL);
    ("two_mode_end_core_temps.(5)", 0x405012313fc14bd2L);
    ("two_mode_end_core_temps.(6)", 0x40486d8bbb046923L);
    ("two_mode_end_core_temps.(7)", 0x404c885d012fee40L);
    ("two_mode_end_core_temps.(8)", 0x404cdba81e245bdeL);
    ("two_mode_delta_peak", 0x404fbf617d273b04L);
    ("two_mode_delta_temp_at", 0x404a903010712fe8L);
    ("rom_two_mode_peak", 0x405012313fc14bd2L);
    ("rom_any_peak", 0x40501395bbd0233cL);
  ]

(* The one documented numerical difference the fixture tolerates.  The
   sparse fused two-mode end-of-period temperatures stream the spans
   into the backend's stable-status fixed point with [t_p = period];
   the superseded profile-based path summed the span durations instead,
   which rounds differently in the last ulp of the period.  The two
   agree to a few 1e-14 K, far below any decision threshold. *)
let tolerance ~sparse label =
  if sparse && String.starts_with ~prefix:"two_mode_end_core_temps" label then 1e-12
  else 0.

let check ~sparse golden ev =
  let got = evaluate ev in
  Alcotest.(check int) "entry count" (List.length golden) (List.length got);
  List.iter2
    (fun (label, bits) (label', v) ->
      Alcotest.(check string) "label" label label';
      let expected = Int64.float_of_bits bits in
      let tol = tolerance ~sparse label in
      if Float.equal tol 0. then
        Alcotest.(check int64) label bits (Int64.bits_of_float v)
      else if Float.abs (v -. expected) > tol then
        Alcotest.failf "%s: %.17g differs from golden %.17g by more than %g"
          label v expected tol)
    golden got;
  (* A second pass must replay the identical floats (memo hits on a
     default-size context, fresh solves on a disabled one). *)
  List.iter2
    (fun (label, v) (_, v') ->
      Alcotest.(check int64) (label ^ " replay") (Int64.bits_of_float v)
        (Int64.bits_of_float v'))
    got (evaluate ev)

let context ~sparse ~cache_size =
  if sparse then Eval.create ~cache_size ~backend:Eval.Sparse (sparse_platform ())
  else Eval.create ~cache_size (dense_platform ())

let dump () =
  List.iter
    (fun (name, sparse) ->
      Printf.printf "let %s_golden =\n  [\n" name;
      List.iter
        (fun (label, v) ->
          Printf.printf "    (%S, 0x%LxL);\n" label (Int64.bits_of_float v))
        (evaluate (context ~sparse ~cache_size:0));
      Printf.printf "  ]\n\n")
    [ ("dense", false); ("sparse", true) ]

let case name ~sparse ~cache_size golden =
  Alcotest.test_case name `Quick (fun () ->
      check ~sparse golden (context ~sparse ~cache_size))

let () =
  if Sys.getenv_opt "FOSC_GOLDEN_DUMP" <> None then dump ()
  else
    Alcotest.run "golden"
      [
        ( "dense",
          [
            case "cache off" ~sparse:false ~cache_size:0 dense_golden;
            case "cache on" ~sparse:false ~cache_size:1024 dense_golden;
          ] );
        ( "sparse",
          [
            case "cache off" ~sparse:true ~cache_size:0 sparse_golden;
            case "cache on" ~sparse:true ~cache_size:1024 sparse_golden;
          ] );
      ]
