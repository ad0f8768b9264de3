(* Golden bit fixture for the evaluation context: the exact IEEE-754 bit
   pattern of every [Core.Eval] evaluator on fixed inputs, for a dense
   3-core platform and a sparse 3x3 sheet, each with the memo tables
   disabled (cache_size 0) and at their default size.  A refactor of
   the evaluator layers must reproduce these bits — memoization,
   dispatch and the backend seam may change cost, never a float.

   Regenerate (only when a numerical change is intended and documented)
   with

     FOSC_GOLDEN_DUMP=1 dune exec test/test_golden.exe

   which prints the tables below in OCaml syntax instead of checking.

   The policy table does the same one layer up: the bits of every
   search's answer (throughput, peak, each high time and offset) and
   its discrete choices (m, step counts), plus how many candidates each
   search sent through the ROM screen and the delta tier.  A refactor of
   the search loops must reproduce both — the same answer, reached by
   pricing the same candidates on the same tiers. *)

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
  scalar "of_any_refined"
    (Sched.Peak.of_any_refined (Eval.backend ev) (Eval.platform ev).P.power
       ~samples_per_segment:16 shifted);
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
    ("of_any_refined", 0x404cdba480ce8bdfL);
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
    ("of_any_refined", 0x405013961145c3eaL);
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
   sparse fused two-mode end-of-period temperatures feed the spans
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

(* ------------------------------------------------------ policy table *)

(* A policy entry is a float (pinned by its bits) or a count. *)
type pin = F of float | I of int

let bits = function F v -> Int64.bits_of_float v | I k -> Int64.of_int k

(* Run [f] and append the deltas of the process-wide search funnels and
   of the context's memo lookups around it. *)
let funnel ev f =
  let lookups () =
    let s = Eval.stats ev in
    let open Sched.Peak.Cache in
    s.Eval.steady.hits + s.Eval.steady.misses + s.Eval.stepup.hits
    + s.Eval.stepup.misses
  in
  let s0 = Core.Screen.stats ()
  and d0 = Core.Tpt.delta_stats ()
  and l0 = lookups () in
  let pins = f () in
  let s1 = Core.Screen.stats ()
  and d1 = Core.Tpt.delta_stats ()
  and l1 = lookups () in
  pins
  @ [
      ("screen.scored", I (s1.Core.Screen.scored - s0.Core.Screen.scored));
      ("screen.survivors", I (s1.survivors - s0.survivors));
      ("delta.cached", I (d1.Core.Tpt.cached - d0.Core.Tpt.cached));
      ("delta.scored", I (d1.scored - d0.scored));
      ("delta.exact", I (d1.exact - d0.exact));
      ("eval.lookups", I (l1 - l0));
    ]

let floats label vs =
  Array.to_list
    (Array.mapi (fun i v -> (Printf.sprintf "%s.(%d)" label i, F v)) vs)

let config_pins (c : Core.Tpt.config) =
  floats "high_time" c.Core.Tpt.high_time @ floats "offset" c.Core.Tpt.offset

let ao_pins (r : Core.Ao.result) =
  [
    ("throughput", F r.Core.Ao.throughput);
    ("peak", F r.peak);
    ("m", I r.m);
    ("m_max", I r.m_max);
    ("adjustment_steps", I r.adjustment_steps);
  ]
  @ config_pins r.config

let pco_pins (r : Core.Pco.result) =
  [
    ("throughput", F r.Core.Pco.throughput);
    ("peak", F r.peak);
    ("m", I r.m);
    ("ao.adjustment_steps", I r.ao.Core.Ao.adjustment_steps);
    ("fill_steps", I r.fill_steps);
  ]
  @ config_pins r.config

let demand_pins (r : Core.Demand.result) =
  [
    ("feasible", I (Bool.to_int r.Core.Demand.feasible));
    ("peak", F r.peak);
    ("m", I r.m);
    ("m_max", I r.m_max);
  ]
  @ floats "delivered" r.delivered

(* The policies' sparse sheet runs cooler than the evaluator sheet's, so
   AO's adjustment loop and the ROM screen's pruning both have work. *)
let policy_sheet () =
  P.sheet ~rows:3 ~cols:3 ~levels:(Power.Vf.table_iv 5) ~t_max:70. ()

let screened () =
  Eval.create ~backend:Eval.Sparse ~screen_margin:0.5 (policy_sheet ())

(* A violating aligned seed for the TPT loops: the ideal speeds as duty
   ratios between two far-apart modes (as in the motivation
   experiment); the headroom fill starts from a drained copy. *)
let tpt_seed (p : P.t) =
  let n = P.n_cores p and period = 0.02 in
  let ideal = Core.Ideal.solve p in
  {
    Core.Tpt.period;
    v_low = Array.make n 0.6;
    v_high = Array.make n 1.3;
    high_time =
      Array.map
        (fun v -> (v -. 0.6) /. (1.3 -. 0.6) *. period)
        ideal.Core.Ideal.voltages;
    offset = Array.make n 0.;
  }

let tpt_pins ev ~quanta ~delta_margin =
  let p = Eval.platform ev in
  let c0 = tpt_seed p in
  let t_unit = c0.Core.Tpt.period /. quanta in
  let adj, steps =
    Core.Tpt.adjust_to_constraint p ~eval:ev ~t_unit ~delta_margin c0
  in
  let drained =
    let high_time = Array.map (fun h -> 0.6 *. h) c0.Core.Tpt.high_time in
    { c0 with Core.Tpt.high_time }
  in
  let filled, fsteps =
    Core.Tpt.fill_headroom p ~eval:ev ~t_unit ~delta_margin drained
  in
  let prefixed prefix = List.map (fun (l, v) -> (prefix ^ l, v)) in
  prefixed "adjust." (("steps", I steps) :: config_pins adj)
  @ prefixed "fill." (("steps", I fsteps) :: config_pins filled)

(* Demand asks for slightly less than the ideal speeds, so the verdict
   depends on the m-sweep finding a cool enough schedule. *)
let demand_pins_of ev p =
  let demands =
    Array.map (fun v -> 0.98 *. v) (Core.Ideal.solve p).Core.Ideal.voltages
  in
  demand_pins (Core.Demand.solve ~eval:ev p ~demands)

let policy_cases =
  let case name context f =
    ( name,
      fun () ->
        let ev = context () in
        funnel ev (fun () -> f ev (Eval.platform ev)) )
  in
  let dense () = Eval.create (dense_platform ()) in
  let sparse () = Eval.create ~backend:Eval.Sparse (policy_sheet ()) in
  [
    case "ao dense" dense (fun ev p -> ao_pins (Core.Ao.solve ~eval:ev p));
    case "ao dense fill" dense (fun ev p ->
        ao_pins (Core.Ao.solve ~eval:ev ~fill:true p));
    case "ao sparse screened delta" screened (fun ev p ->
        ao_pins (Core.Ao.solve ~eval:ev ~delta_margin:1.0 p));
    case "pco dense" dense (fun ev p -> pco_pins (Core.Pco.solve ~eval:ev p));
    case "pco sparse screened" screened (fun ev p ->
        pco_pins (Core.Pco.solve ~eval:ev p));
    case "demand dense" dense demand_pins_of;
    case "demand sparse screened" screened demand_pins_of;
  ]
  @ List.concat_map
      (fun delta_margin ->
        [
          case (Printf.sprintf "tpt dense margin %g" delta_margin) dense
            (fun ev _ -> tpt_pins ev ~quanta:200. ~delta_margin);
          case (Printf.sprintf "tpt sparse margin %g" delta_margin) sparse
            (fun ev _ -> tpt_pins ev ~quanta:50. ~delta_margin);
        ])
      [ 0.; 0.02; 1.0 ]

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
    [ ("dense", false); ("sparse", true) ];
  Printf.printf "let policy_golden =\n  [\n";
  List.iter
    (fun (name, run) ->
      Printf.printf "    ( %S,\n      [\n" name;
      List.iter
        (fun (label, v) ->
          match v with
          | F _ -> Printf.printf "        (%S, 0x%LxL);\n" label (bits v)
          | I k -> Printf.printf "        (%S, %dL);\n" label k)
        (run ());
      Printf.printf "      ] );\n")
    policy_cases;
  Printf.printf "  ]\n"

let policy_golden =
  [
    ( "ao dense",
      [
        ("throughput", 0x3ff355272088621aL);
        ("peak", 0x40503f22768e176dL);
        ("m", 6L);
        ("m_max", 152L);
        ("adjustment_steps", 10L);
        ("high_time.(0)", 0x3f709fa67851744dL);
        ("high_time.(1)", 0x3f8e6f2bc1874427L);
        ("high_time.(2)", 0x3f709fa67851744dL);
        ("offset.(0)", 0x0L);
        ("offset.(1)", 0x0L);
        ("offset.(2)", 0x0L);
        ("screen.scored", 0L);
        ("screen.survivors", 0L);
        ("delta.cached", 0L);
        ("delta.scored", 0L);
        ("delta.exact", 0L);
        ("eval.lookups", 153L);
      ] );
    ( "ao dense fill",
      [
        ("throughput", 0x3ff355272088621aL);
        ("peak", 0x40503f22768e176dL);
        ("m", 6L);
        ("m_max", 152L);
        ("adjustment_steps", 10L);
        ("high_time.(0)", 0x3f709fa67851744dL);
        ("high_time.(1)", 0x3f8e6f2bc1874427L);
        ("high_time.(2)", 0x3f709fa67851744dL);
        ("offset.(0)", 0x0L);
        ("offset.(1)", 0x0L);
        ("offset.(2)", 0x0L);
        ("screen.scored", 0L);
        ("screen.survivors", 0L);
        ("delta.cached", 0L);
        ("delta.scored", 0L);
        ("delta.exact", 0L);
        ("eval.lookups", 157L);
      ] );
    ( "ao sparse screened delta",
      [
        ("throughput", 0x3ff36dfd573a783cL);
        ("peak", 0x40517ed82fa504d9L);
        ("m", 7L);
        ("m_max", 362L);
        ("adjustment_steps", 26L);
        ("high_time.(0)", 0x3f7c87aac584fc3aL);
        ("high_time.(1)", 0x3f33bd0ec207ebd5L);
        ("high_time.(2)", 0x3f7c87aac584fc3aL);
        ("high_time.(3)", 0x3f33bd0ec207ebd5L);
        ("high_time.(4)", 0x3f8386ded707018fL);
        ("high_time.(5)", 0x3f33bd0ec207ebd5L);
        ("high_time.(6)", 0x3f7c87aac584fc3aL);
        ("high_time.(7)", 0x3f33bd0ec207ebd5L);
        ("high_time.(8)", 0x3f7c87aac584fc3aL);
        ("offset.(0)", 0x0L);
        ("offset.(1)", 0x0L);
        ("offset.(2)", 0x0L);
        ("offset.(3)", 0x0L);
        ("offset.(4)", 0x0L);
        ("offset.(5)", 0x0L);
        ("offset.(6)", 0x0L);
        ("offset.(7)", 0x0L);
        ("offset.(8)", 0x0L);
        ("screen.scored", 362L);
        ("screen.survivors", 67L);
        ("delta.cached", 0L);
        ("delta.scored", 234L);
        ("delta.exact", 26L);
        ("eval.lookups", 68L);
      ] );
    ( "pco dense",
      [
        ("throughput", 0x3ff355272088621aL);
        ("peak", 0x40503f1e04c0dc76L);
        ("m", 6L);
        ("ao.adjustment_steps", 10L);
        ("fill_steps", 0L);
        ("high_time.(0)", 0x3f709fa67851744dL);
        ("high_time.(1)", 0x3f8e6f2bc1874427L);
        ("high_time.(2)", 0x3f709fa67851744dL);
        ("offset.(0)", 0x0L);
        ("offset.(1)", 0x3f61111111111111L);
        ("offset.(2)", 0x0L);
        ("screen.scored", 0L);
        ("screen.survivors", 0L);
        ("delta.cached", 0L);
        ("delta.scored", 0L);
        ("delta.exact", 0L);
        ("eval.lookups", 153L);
      ] );
    ( "pco sparse screened",
      [
        ("throughput", 0x3ff36dfd573a783cL);
        ("peak", 0x40517ed82fa504d9L);
        ("m", 7L);
        ("ao.adjustment_steps", 26L);
        ("fill_steps", 0L);
        ("high_time.(0)", 0x3f7c87aac584fc3aL);
        ("high_time.(1)", 0x3f33bd0ec207ebd5L);
        ("high_time.(2)", 0x3f7c87aac584fc3aL);
        ("high_time.(3)", 0x3f33bd0ec207ebd5L);
        ("high_time.(4)", 0x3f8386ded707018fL);
        ("high_time.(5)", 0x3f33bd0ec207ebd5L);
        ("high_time.(6)", 0x3f7c87aac584fc3aL);
        ("high_time.(7)", 0x3f33bd0ec207ebd5L);
        ("high_time.(8)", 0x3f7c87aac584fc3aL);
        ("offset.(0)", 0x0L);
        ("offset.(1)", 0x0L);
        ("offset.(2)", 0x0L);
        ("offset.(3)", 0x0L);
        ("offset.(4)", 0x0L);
        ("offset.(5)", 0x0L);
        ("offset.(6)", 0x0L);
        ("offset.(7)", 0x0L);
        ("offset.(8)", 0x0L);
        ("screen.scored", 426L);
        ("screen.survivors", 131L);
        ("delta.cached", 0L);
        ("delta.scored", 0L);
        ("delta.exact", 0L);
        ("eval.lookups", 78L);
      ] );
    ( "demand dense",
      [
        ("feasible", 1L);
        ("peak", 0x404fe3ef9e865334L);
        ("m", 8L);
        ("m_max", 349L);
        ("delivered.(0)", 0x3ff33fb0506d4a83L);
        ("delivered.(1)", 0x3ff2874d04dffff7L);
        ("delivered.(2)", 0x3ff33fb0506d4a83L);
        ("screen.scored", 0L);
        ("screen.survivors", 0L);
        ("delta.cached", 0L);
        ("delta.scored", 0L);
        ("delta.exact", 0L);
        ("eval.lookups", 349L);
      ] );
    ( "demand sparse screened",
      [
        ("feasible", 1L);
        ("peak", 0x40512c3d250763fcL);
        ("m", 9L);
        ("m_max", 189L);
        ("delivered.(0)", 0x3ff3a52b668f4e0bL);
        ("delivered.(1)", 0x3ff2d5d8b875bee2L);
        ("delivered.(2)", 0x3ff3a52b668f4e0bL);
        ("delivered.(3)", 0x3ff2d5d8b875bee2L);
        ("delivered.(4)", 0x3ff1f2f97be54d24L);
        ("delivered.(5)", 0x3ff2d5d8b875bee2L);
        ("delivered.(6)", 0x3ff3a52b668f4e0bL);
        ("delivered.(7)", 0x3ff2d5d8b875bee2L);
        ("delivered.(8)", 0x3ff3a52b668f4e0bL);
        ("screen.scored", 189L);
        ("screen.survivors", 79L);
        ("delta.cached", 0L);
        ("delta.scored", 0L);
        ("delta.exact", 0L);
        ("eval.lookups", 79L);
      ] );
    ( "tpt dense margin 0",
      [
        ("adjust.steps", 56L);
        ("adjust.high_time.(0)", 0x3f90b9319627a71cL);
        ("adjust.high_time.(1)", 0x3f8d1edcc097f96eL);
        ("adjust.high_time.(2)", 0x3f90b9319627a71cL);
        ("adjust.offset.(0)", 0x0L);
        ("adjust.offset.(1)", 0x0L);
        ("adjust.offset.(2)", 0x0L);
        ("fill.steps", 154L);
        ("fill.high_time.(0)", 0x3f90c0617ff0a23cL);
        ("fill.high_time.(1)", 0x3f8d05e6d65a0994L);
        ("fill.high_time.(2)", 0x3f90c0617ff0a23cL);
        ("fill.offset.(0)", 0x0L);
        ("fill.offset.(1)", 0x0L);
        ("fill.offset.(2)", 0x0L);
        ("screen.scored", 0L);
        ("screen.survivors", 0L);
        ("delta.cached", 0L);
        ("delta.scored", 0L);
        ("delta.exact", 0L);
        ("eval.lookups", 466L);
      ] );
    ( "tpt sparse margin 0",
      [
        ("adjust.steps", 40L);
        ("adjust.high_time.(0)", 0x3f91df673ab4c5ecL);
        ("adjust.high_time.(1)", 0x3f8f15b15486ac2eL);
        ("adjust.high_time.(2)", 0x3f91df673ab4c5ecL);
        ("adjust.high_time.(3)", 0x3f8f15b15486ac2eL);
        ("adjust.high_time.(4)", 0x3f8951e936ebcfa0L);
        ("adjust.high_time.(5)", 0x3f8f15b15486ac2eL);
        ("adjust.high_time.(6)", 0x3f91df673ab4c5ecL);
        ("adjust.high_time.(7)", 0x3f8f15b15486ac2eL);
        ("adjust.high_time.(8)", 0x3f91df673ab4c5ecL);
        ("adjust.offset.(0)", 0x0L);
        ("adjust.offset.(1)", 0x0L);
        ("adjust.offset.(2)", 0x0L);
        ("adjust.offset.(3)", 0x0L);
        ("adjust.offset.(4)", 0x0L);
        ("adjust.offset.(5)", 0x0L);
        ("adjust.offset.(6)", 0x0L);
        ("adjust.offset.(7)", 0x0L);
        ("adjust.offset.(8)", 0x0L);
        ("fill.steps", 120L);
        ("fill.high_time.(0)", 0x3f9203b50c9d1fd6L);
        ("fill.high_time.(1)", 0x3f8ef057f752d9fbL);
        ("fill.high_time.(2)", 0x3f9203b50c9d1fd6L);
        ("fill.high_time.(3)", 0x3f8ef057f752d9fbL);
        ("fill.high_time.(4)", 0x3f89ad804bcbfdd3L);
        ("fill.high_time.(5)", 0x3f8ef057f752d9fbL);
        ("fill.high_time.(6)", 0x3f9203b50c9d1fd6L);
        ("fill.high_time.(7)", 0x3f8ef057f752d9fbL);
        ("fill.high_time.(8)", 0x3f9203b50c9d1fd6L);
        ("fill.offset.(0)", 0x0L);
        ("fill.offset.(1)", 0x0L);
        ("fill.offset.(2)", 0x0L);
        ("fill.offset.(3)", 0x0L);
        ("fill.offset.(4)", 0x0L);
        ("fill.offset.(5)", 0x0L);
        ("fill.offset.(6)", 0x0L);
        ("fill.offset.(7)", 0x0L);
        ("fill.offset.(8)", 0x0L);
        ("screen.scored", 0L);
        ("screen.survivors", 0L);
        ("delta.cached", 0L);
        ("delta.scored", 0L);
        ("delta.exact", 0L);
        ("eval.lookups", 1090L);
      ] );
    ( "tpt dense margin 0.02",
      [
        ("adjust.steps", 56L);
        ("adjust.high_time.(0)", 0x3f90b9319627a71cL);
        ("adjust.high_time.(1)", 0x3f8d1edcc097f96eL);
        ("adjust.high_time.(2)", 0x3f90b9319627a71cL);
        ("adjust.offset.(0)", 0x0L);
        ("adjust.offset.(1)", 0x0L);
        ("adjust.offset.(2)", 0x0L);
        ("fill.steps", 154L);
        ("fill.high_time.(0)", 0x3f90c0617ff0a23cL);
        ("fill.high_time.(1)", 0x3f8d05e6d65a0994L);
        ("fill.high_time.(2)", 0x3f90c0617ff0a23cL);
        ("fill.offset.(0)", 0x0L);
        ("fill.offset.(1)", 0x0L);
        ("fill.offset.(2)", 0x0L);
        ("screen.scored", 0L);
        ("screen.survivors", 0L);
        ("delta.cached", 92L);
        ("delta.scored", 541L);
        ("delta.exact", 238L);
        ("eval.lookups", 183L);
      ] );
    ( "tpt sparse margin 0.02",
      [
        ("adjust.steps", 40L);
        ("adjust.high_time.(0)", 0x3f91df673ab4c5ecL);
        ("adjust.high_time.(1)", 0x3f8f15b15486ac2eL);
        ("adjust.high_time.(2)", 0x3f91df673ab4c5ecL);
        ("adjust.high_time.(3)", 0x3f8f15b15486ac2eL);
        ("adjust.high_time.(4)", 0x3f8951e936ebcfa0L);
        ("adjust.high_time.(5)", 0x3f8f15b15486ac2eL);
        ("adjust.high_time.(6)", 0x3f91df673ab4c5ecL);
        ("adjust.high_time.(7)", 0x3f8f15b15486ac2eL);
        ("adjust.high_time.(8)", 0x3f91df673ab4c5ecL);
        ("adjust.offset.(0)", 0x0L);
        ("adjust.offset.(1)", 0x0L);
        ("adjust.offset.(2)", 0x0L);
        ("adjust.offset.(3)", 0x0L);
        ("adjust.offset.(4)", 0x0L);
        ("adjust.offset.(5)", 0x0L);
        ("adjust.offset.(6)", 0x0L);
        ("adjust.offset.(7)", 0x0L);
        ("adjust.offset.(8)", 0x0L);
        ("fill.steps", 120L);
        ("fill.high_time.(0)", 0x3f9203b50c9d1fd6L);
        ("fill.high_time.(1)", 0x3f8ef057f752d9fbL);
        ("fill.high_time.(2)", 0x3f9203b50c9d1fd6L);
        ("fill.high_time.(3)", 0x3f8ef057f752d9fbL);
        ("fill.high_time.(4)", 0x3f89ad804bcbfdd3L);
        ("fill.high_time.(5)", 0x3f8ef057f752d9fbL);
        ("fill.high_time.(6)", 0x3f9203b50c9d1fd6L);
        ("fill.high_time.(7)", 0x3f8ef057f752d9fbL);
        ("fill.high_time.(8)", 0x3f9203b50c9d1fd6L);
        ("fill.offset.(0)", 0x0L);
        ("fill.offset.(1)", 0x0L);
        ("fill.offset.(2)", 0x0L);
        ("fill.offset.(3)", 0x0L);
        ("fill.offset.(4)", 0x0L);
        ("fill.offset.(5)", 0x0L);
        ("fill.offset.(6)", 0x0L);
        ("fill.offset.(7)", 0x0L);
        ("fill.offset.(8)", 0x0L);
        ("screen.scored", 0L);
        ("screen.survivors", 0L);
        ("delta.cached", 625L);
        ("delta.scored", 824L);
        ("delta.exact", 340L);
        ("eval.lookups", 301L);
      ] );
    ( "tpt dense margin 1",
      [
        ("adjust.steps", 56L);
        ("adjust.high_time.(0)", 0x3f90b9319627a71cL);
        ("adjust.high_time.(1)", 0x3f8d1edcc097f96eL);
        ("adjust.high_time.(2)", 0x3f90b9319627a71cL);
        ("adjust.offset.(0)", 0x0L);
        ("adjust.offset.(1)", 0x0L);
        ("adjust.offset.(2)", 0x0L);
        ("fill.steps", 154L);
        ("fill.high_time.(0)", 0x3f90c0617ff0a23cL);
        ("fill.high_time.(1)", 0x3f8d05e6d65a0994L);
        ("fill.high_time.(2)", 0x3f90c0617ff0a23cL);
        ("fill.offset.(0)", 0x0L);
        ("fill.offset.(1)", 0x0L);
        ("fill.offset.(2)", 0x0L);
        ("screen.scored", 0L);
        ("screen.survivors", 0L);
        ("delta.cached", 0L);
        ("delta.scored", 633L);
        ("delta.exact", 229L);
        ("eval.lookups", 174L);
      ] );
    ( "tpt sparse margin 1",
      [
        ("adjust.steps", 40L);
        ("adjust.high_time.(0)", 0x3f91df673ab4c5ecL);
        ("adjust.high_time.(1)", 0x3f8f15b15486ac2eL);
        ("adjust.high_time.(2)", 0x3f91df673ab4c5ecL);
        ("adjust.high_time.(3)", 0x3f8f15b15486ac2eL);
        ("adjust.high_time.(4)", 0x3f8951e936ebcfa0L);
        ("adjust.high_time.(5)", 0x3f8f15b15486ac2eL);
        ("adjust.high_time.(6)", 0x3f91df673ab4c5ecL);
        ("adjust.high_time.(7)", 0x3f8f15b15486ac2eL);
        ("adjust.high_time.(8)", 0x3f91df673ab4c5ecL);
        ("adjust.offset.(0)", 0x0L);
        ("adjust.offset.(1)", 0x0L);
        ("adjust.offset.(2)", 0x0L);
        ("adjust.offset.(3)", 0x0L);
        ("adjust.offset.(4)", 0x0L);
        ("adjust.offset.(5)", 0x0L);
        ("adjust.offset.(6)", 0x0L);
        ("adjust.offset.(7)", 0x0L);
        ("adjust.offset.(8)", 0x0L);
        ("fill.steps", 120L);
        ("fill.high_time.(0)", 0x3f9203b50c9d1fd6L);
        ("fill.high_time.(1)", 0x3f8ef057f752d9fbL);
        ("fill.high_time.(2)", 0x3f9203b50c9d1fd6L);
        ("fill.high_time.(3)", 0x3f8ef057f752d9fbL);
        ("fill.high_time.(4)", 0x3f89ad804bcbfdd3L);
        ("fill.high_time.(5)", 0x3f8ef057f752d9fbL);
        ("fill.high_time.(6)", 0x3f9203b50c9d1fd6L);
        ("fill.high_time.(7)", 0x3f8ef057f752d9fbL);
        ("fill.high_time.(8)", 0x3f9203b50c9d1fd6L);
        ("fill.offset.(0)", 0x0L);
        ("fill.offset.(1)", 0x0L);
        ("fill.offset.(2)", 0x0L);
        ("fill.offset.(3)", 0x0L);
        ("fill.offset.(4)", 0x0L);
        ("fill.offset.(5)", 0x0L);
        ("fill.offset.(6)", 0x0L);
        ("fill.offset.(7)", 0x0L);
        ("fill.offset.(8)", 0x0L);
        ("screen.scored", 0L);
        ("screen.survivors", 0L);
        ("delta.cached", 0L);
        ("delta.scored", 1449L);
        ("delta.exact", 189L);
        ("eval.lookups", 150L);
      ] );
  ]

let check_policy golden run () =
  let got = run () in
  Alcotest.(check int) "entry count" (List.length golden) (List.length got);
  List.iter2
    (fun (label, expected) (label', v) ->
      Alcotest.(check string) "label" label label';
      Alcotest.(check int64) label expected (bits v))
    golden got

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
        ( "policy",
          List.map2
            (fun (name, run) (name', golden) ->
              assert (name = name');
              Alcotest.test_case name `Quick (check_policy golden run))
            policy_cases policy_golden );
      ]
