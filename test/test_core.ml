(* Tests for the policy layer: Platform, Ideal, LNS, EXS, TPT, AO, PCO. *)

module P = Core.Platform

let check_close tol = Alcotest.(check (float tol))

let platform3 () = Workload.Configs.platform ~cores:3 ~levels:2 ~t_max:65.
let platform3_5lv () = Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:65.

(* ------------------------------------------------------------- platform *)

let test_platform_construction () =
  let p = platform3 () in
  Alcotest.(check int) "core count" 3 (P.n_cores p);
  check_close 1e-12 "default tau" 5e-6 p.P.tau;
  Alcotest.(check bool) "feasible at 65C" true (P.feasible p)

let test_platform_validation () =
  let model =
    Thermal.Hotspot.core_level
      (Thermal.Floorplan.grid ~rows:1 ~cols:2 ~core_width:4e-3 ~core_height:4e-3)
  in
  Alcotest.(check bool) "t_max below ambient rejected" true
    (match P.make ~levels:(Power.Vf.table_iv 2) ~t_max:30. model with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* NaN must fail the range tests, not slip past [<=]/[<] guards. *)
  let rejected ?tau t_max =
    match P.make ?tau ~levels:(Power.Vf.table_iv 2) ~t_max model with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "NaN t_max rejected" true (rejected nan);
  Alcotest.(check bool) "infinite t_max rejected" true (rejected infinity);
  Alcotest.(check bool) "NaN tau rejected" true (rejected ~tau:nan 65.)

let test_platform_infeasible_detected () =
  (* A 1-degree margin above ambient is below even the all-low steady state. *)
  let p = Workload.Configs.platform ~cores:3 ~levels:2 ~t_max:36. in
  Alcotest.(check bool) "infeasible platform flagged" false (P.feasible p)

(* ---------------------------------------------------------------- ideal *)

let test_ideal_reaches_tmax () =
  let p = platform3 () in
  let r = Core.Ideal.solve p in
  (* Unclamped ideal assignment puts the steady state exactly at T_max. *)
  let peak = Sched.Peak.steady_constant (Thermal.Backend.of_model p.P.model) p.P.power r.Core.Ideal.voltages in
  Alcotest.(check bool) "no clamping on this platform" true
    (Array.for_all not r.Core.Ideal.clamped);
  check_close 1e-6 "steady peak = T_max" 65. peak

let test_ideal_edge_cores_faster () =
  let r = Core.Ideal.solve (platform3 ()) in
  let v = r.Core.Ideal.voltages in
  Alcotest.(check bool) "edge > middle (Section III shape)" true
    (v.(0) > v.(1) && v.(2) > v.(1));
  check_close 1e-9 "symmetry" v.(0) v.(2)

let test_ideal_matches_paper_motivation () =
  (* The paper's Section III: [1.2085; 1.1748; 1.2085] at 65C.  Our
     calibration reproduces this within a few percent. *)
  let r = Core.Ideal.solve (platform3 ()) in
  let v = r.Core.Ideal.voltages in
  Alcotest.(check bool) "edge cores ~1.21 +- 0.05" true (Float.abs (v.(0) -. 1.21) < 0.05);
  Alcotest.(check bool) "middle core ~1.17 +- 0.05" true (Float.abs (v.(1) -. 1.17) < 0.05)

let test_ideal_clamps_at_vmax () =
  (* Generous threshold: every core clamps at the highest level. *)
  let p = Workload.Configs.platform ~cores:2 ~levels:2 ~t_max:90. in
  let r = Core.Ideal.solve p in
  Alcotest.(check bool) "all clamped" true (Array.for_all (fun c -> c) r.Core.Ideal.clamped);
  Array.iter (fun v -> check_close 1e-12 "at vmax" 1.3 v) r.Core.Ideal.voltages

let test_ideal_refine_no_worse () =
  let p = Workload.Configs.platform ~cores:3 ~levels:2 ~t_max:80. in
  let plain = Core.Ideal.solve ~refine:false p in
  let refined = Core.Ideal.solve ~refine:true p in
  Alcotest.(check bool) "refinement never loses throughput" true
    (refined.Core.Ideal.throughput >= plain.Core.Ideal.throughput -. 1e-9);
  (* Refined assignment stays feasible. *)
  let peak =
    Sched.Peak.steady_constant (Thermal.Backend.of_model p.P.model) p.P.power refined.Core.Ideal.voltages
  in
  Alcotest.(check bool) "refined stays under T_max" true (peak <= p.P.t_max +. 1e-6)

(* ------------------------------------------------------------------ lns *)

let test_lns_rounds_down () =
  let p = platform3 () in
  let r = Core.Lns.solve p in
  (* Ideal ~1.2 with levels {0.6, 1.3}: all round down to 0.6. *)
  Array.iter (fun v -> check_close 1e-12 "rounded to 0.6" 0.6 v) r.Core.Lns.voltages;
  check_close 1e-12 "throughput 0.6" 0.6 r.Core.Lns.throughput

let test_lns_feasible () =
  List.iter
    (fun levels ->
      let p = Workload.Configs.platform ~cores:3 ~levels ~t_max:65. in
      let r = Core.Lns.solve p in
      Alcotest.(check bool)
        (Printf.sprintf "LNS under T_max with %d levels" levels)
        true
        (r.Core.Lns.peak <= 65. +. 1e-6))
    [ 2; 3; 4; 5 ]

let test_lns_improves_with_levels () =
  let thr levels =
    (Core.Lns.solve (Workload.Configs.platform ~cores:3 ~levels ~t_max:65.)).Core.Lns.throughput
  in
  Alcotest.(check bool) "finer grid never hurts LNS" true
    (thr 5 >= thr 4 -. 1e-12 && thr 4 >= thr 3 -. 1e-12 && thr 3 >= thr 2 -. 1e-12)

(* ------------------------------------------------------------------ exs *)

let test_exs_explores_whole_space () =
  let p = platform3 () in
  let r = Core.Exs.solve p in
  Alcotest.(check int) "2^3 combinations" 8 r.Core.Exs.evaluated;
  Alcotest.(check bool) "feasible" true r.Core.Exs.feasible

let test_exs_beats_lns () =
  let p = platform3 () in
  let lns = Core.Lns.solve p in
  let exs = Core.Exs.solve p in
  Alcotest.(check bool) "EXS >= LNS" true
    (exs.Core.Exs.throughput >= lns.Core.Lns.throughput -. 1e-12)

let test_exs_respects_tmax () =
  List.iter
    (fun (cores, levels) ->
      let p = Workload.Configs.platform ~cores ~levels ~t_max:65. in
      let r = Core.Exs.solve p in
      Alcotest.(check bool)
        (Printf.sprintf "%d cores %d levels" cores levels)
        true
        (r.Core.Exs.peak <= 65. +. 1e-6))
    [ (2, 2); (3, 3); (6, 2) ]

let test_exs_incremental_matches_naive () =
  List.iter
    (fun (cores, levels) ->
      let p = Workload.Configs.platform ~cores ~levels ~t_max:65. in
      let fast = Core.Exs.solve p in
      let naive = Core.Exs.solve_naive p in
      Alcotest.(check bool)
        (Printf.sprintf "same throughput (%d cores, %d levels)" cores levels)
        true
        (Float.abs (fast.Core.Exs.throughput -. naive.Core.Exs.throughput) < 1e-9);
      Alcotest.(check int) "same evaluation count" naive.Core.Exs.evaluated
        fast.Core.Exs.evaluated)
    [ (2, 3); (3, 2); (3, 4) ]

let test_exs_pruned_matches_flat () =
  List.iter
    (fun (cores, levels, t_max) ->
      let p = Workload.Configs.platform ~cores ~levels ~t_max in
      let flat = Core.Exs.solve p in
      let pruned = Core.Exs.solve_pruned p in
      Alcotest.(check bool)
        (Printf.sprintf "same throughput (%d cores, %d levels, %.0fC)" cores levels t_max)
        true
        (Float.abs (flat.Core.Exs.throughput -. pruned.Core.Exs.throughput) < 1e-9);
      Alcotest.(check bool) "same feasibility" true
        (flat.Core.Exs.feasible = pruned.Core.Exs.feasible);
      Alcotest.(check bool) "pruning visits fewer nodes on big spaces" true
        (cores < 6 || pruned.Core.Exs.evaluated < flat.Core.Exs.evaluated))
    [ (2, 2, 65.); (3, 3, 65.); (3, 5, 55.); (6, 4, 60.); (9, 3, 55.); (3, 2, 36.) ]

(* The anytime regime: a finite node budget must still return a
   feasible assignment (the greedy warm start at minimum), never beat
   the proven optimum, and report the truncation; the exact regime must
   report completeness. *)
let test_exs_anytime_budget () =
  let p = Workload.Configs.platform ~cores:6 ~levels:4 ~t_max:60. in
  let exact = Core.Exs.solve_pruned p in
  Alcotest.(check bool) "paper-scale search completes" true
    exact.Core.Exs.exhaustive;
  let capped = Core.Exs.solve_pruned ~node_cap:1 p in
  Alcotest.(check bool) "truncation reported" false capped.Core.Exs.exhaustive;
  Alcotest.(check bool) "greedy seed keeps the result feasible" true
    capped.Core.Exs.feasible;
  Alcotest.(check bool) "within constraint" true
    (capped.Core.Exs.peak <= p.Core.Platform.t_max +. 1e-6);
  Alcotest.(check bool) "anytime result never beats the optimum" true
    (capped.Core.Exs.throughput <= exact.Core.Exs.throughput +. 1e-12)

let test_exs_motivation_pattern () =
  (* The paper's motivation: with levels {0.6, 1.3} at 65C, EXS can raise
     a strict subset of cores to 1.3 V. *)
  let r = Core.Exs.solve (platform3 ()) in
  let highs =
    Array.fold_left (fun n v -> if v > 1.0 then n + 1 else n) 0 r.Core.Exs.voltages
  in
  Alcotest.(check bool) "some but not all cores at 1.3" true (highs >= 1 && highs < 3)

let test_exs_infeasible_platform () =
  let p = Workload.Configs.platform ~cores:3 ~levels:2 ~t_max:36. in
  let r = Core.Exs.solve p in
  Alcotest.(check bool) "reports infeasible" false r.Core.Exs.feasible;
  check_close 1e-12 "zero throughput" 0. r.Core.Exs.throughput

let test_exs_solvers_agree () =
  (* All four solvers reduce with the same deterministic total order
     (score, then lexicographically smallest digits), so they must agree
     *exactly* on voltages/throughput/feasibility — across random
     thresholds, including infeasible ones.  The (6, 4) shape's 4^6
     space is large enough that [solve_par] takes its parallel branch on
     the forced 4-domain pool even on a single-core host. *)
  let pool = Util.Pool.create ~size:4 () in
  let rng = Random.State.make [| 2016 |] in
  List.iter
    (fun (cores, levels) ->
      for trial = 1 to 3 do
        let t_max = 40. +. Random.State.float rng 50. in
        let p = Workload.Configs.platform ~cores ~levels ~t_max in
        let reference = Core.Exs.solve p in
        let tag name =
          Printf.sprintf "%s (%d cores, %d levels, %.2fC, trial %d)" name cores
            levels t_max trial
        in
        List.iter
          (fun (name, (r : Core.Exs.result)) ->
            Alcotest.(check bool) (tag (name ^ " feasibility"))
              reference.Core.Exs.feasible r.Core.Exs.feasible;
            Alcotest.(check (array (float 0.))) (tag (name ^ " voltages"))
              reference.Core.Exs.voltages r.Core.Exs.voltages;
            Alcotest.(check (float 0.)) (tag (name ^ " throughput"))
              reference.Core.Exs.throughput r.Core.Exs.throughput)
          [
            ("naive", Core.Exs.solve_naive p);
            ("pruned", Core.Exs.solve_pruned p);
            ("par", Core.Exs.solve_par ~pool p);
          ]
      done)
    [ (2, 2); (3, 2); (3, 3); (2, 5); (9, 2); (6, 4) ];
  Util.Pool.shutdown pool

(* ------------------------------------------------------------------ tpt *)

let config_for_tests () =
  {
    Core.Tpt.period = 0.01;
    v_low = [| 0.6; 0.6; 0.6 |];
    v_high = [| 1.3; 1.3; 1.3 |];
    high_time = [| 0.009; 0.009; 0.009 |];
    offset = [| 0.; 0.; 0. |];
  }

let test_tpt_schedule_materialization () =
  let c = config_for_tests () in
  let s = Core.Tpt.schedule_of_config c in
  Alcotest.(check bool) "aligned config is step-up" true (Sched.Stepup.is_step_up s);
  check_close 1e-12 "period" 0.01 (Sched.Schedule.period s)

let test_tpt_adjust_reaches_constraint () =
  let p = platform3 () in
  let c = config_for_tests () in
  Alcotest.(check bool) "initial config violates" true (Core.Tpt.peak p c > p.P.t_max);
  let adjusted, steps = Core.Tpt.adjust_to_constraint p c in
  Alcotest.(check bool) "made exchanges" true (steps > 0);
  Alcotest.(check bool) "meets T_max" true (Core.Tpt.peak p adjusted <= p.P.t_max +. 1e-9)

let test_tpt_adjust_only_lowers_high_time () =
  let p = platform3 () in
  let c = config_for_tests () in
  let adjusted, _ = Core.Tpt.adjust_to_constraint p c in
  Array.iteri
    (fun i h ->
      Alcotest.(check bool) "high time never grows" true (h <= c.Core.Tpt.high_time.(i) +. 1e-12))
    adjusted.Core.Tpt.high_time

let test_tpt_fill_headroom_stops_at_constraint () =
  let p = platform3 () in
  let c =
    { (config_for_tests ()) with Core.Tpt.high_time = [| 0.001; 0.001; 0.001 |] }
  in
  let filled, steps = Core.Tpt.fill_headroom p c in
  Alcotest.(check bool) "made exchanges" true (steps > 0);
  Alcotest.(check bool) "stays under T_max" true (Core.Tpt.peak p filled <= p.P.t_max +. 1e-9);
  let total_before = Array.fold_left ( +. ) 0. c.Core.Tpt.high_time in
  let total_after = Array.fold_left ( +. ) 0. filled.Core.Tpt.high_time in
  Alcotest.(check bool) "high time grew" true (total_after > total_before)

let test_tpt_validation () =
  let c = config_for_tests () and p = platform3 () in
  let rejects f = match f () with exception Invalid_argument _ -> true | _ -> false in
  let bad = { c with Core.Tpt.high_time = [| 0.02; 0.; 0. |] } in
  Alcotest.(check bool) "high_time > period rejected" true
    (rejects (fun () -> Core.Tpt.validate bad));
  Alcotest.(check bool) "NaN period rejected" true
    (rejects (fun () -> Core.Tpt.validate { c with Core.Tpt.period = nan }));
  Alcotest.(check bool) "NaN high_time rejected" true
    (rejects (fun () ->
         Core.Tpt.validate { c with Core.Tpt.high_time = [| 0.009; nan; 0.009 |] }));
  Alcotest.(check bool) "adjust rejects NaN t_unit" true
    (rejects (fun () -> Core.Tpt.adjust_to_constraint p ~t_unit:nan c));
  Alcotest.(check bool) "fill rejects NaN t_unit" true
    (rejects (fun () -> Core.Tpt.fill_headroom p ~t_unit:nan c))

(* ------------------------------------------------------------------- ao *)

let test_ao_meets_constraint () =
  let p = platform3 () in
  let r = Core.Ao.solve p in
  Alcotest.(check bool) "peak <= T_max" true (r.Core.Ao.peak <= p.P.t_max +. 1e-6)

let test_ao_beats_exs_on_coarse_levels () =
  let p = platform3 () in
  let exs = Core.Exs.solve p in
  let ao = Core.Ao.solve p in
  Alcotest.(check bool) "AO > EXS with 2 levels" true
    (ao.Core.Ao.throughput > exs.Core.Exs.throughput)

let test_ao_below_ideal () =
  let p = platform3 () in
  let r = Core.Ao.solve p in
  Alcotest.(check bool) "AO cannot beat the continuous ideal" true
    (r.Core.Ao.throughput <= r.Core.Ao.ideal.Core.Ideal.throughput +. 1e-9)

let test_ao_schedule_is_step_up () =
  let r = Core.Ao.solve (platform3 ()) in
  Alcotest.(check bool) "step-up" true (Sched.Stepup.is_step_up r.Core.Ao.schedule)

let test_ao_m_within_bound () =
  let r = Core.Ao.solve (platform3 ()) in
  Alcotest.(check bool) "1 <= m <= M" true (r.Core.Ao.m >= 1 && r.Core.Ao.m <= r.Core.Ao.m_max)

let test_ao_oscillation_helps () =
  (* Force m = 1 via m_cap and compare: allowing oscillation must not
     reduce throughput. *)
  let p = platform3 () in
  let m1 = Core.Ao.solve ~m_cap:1 p in
  let free = Core.Ao.solve p in
  Alcotest.(check bool) "m free >= m=1" true
    (free.Core.Ao.throughput >= m1.Core.Ao.throughput -. 1e-9)

let test_ao_fine_levels_close_to_ideal () =
  let p = platform3_5lv () in
  let r = Core.Ao.solve p in
  Alcotest.(check bool) "within 10% of ideal with 5 levels" true
    (r.Core.Ao.throughput >= 0.9 *. r.Core.Ao.ideal.Core.Ideal.throughput)

let test_ao_with_fill () =
  let p = platform3 () in
  let plain = Core.Ao.solve p in
  let filled = Core.Ao.solve ~fill:true p in
  Alcotest.(check bool) "fill never hurts" true
    (filled.Core.Ao.throughput >= plain.Core.Ao.throughput -. 1e-9);
  Alcotest.(check bool) "fill stays feasible" true (filled.Core.Ao.peak <= p.P.t_max +. 1e-6)

let prop_ao_always_feasible =
  QCheck.Test.make ~name:"AO meets T_max on random platforms" ~count:40
    QCheck.(
      make
        Gen.(
          let* cores = oneofl [ 2; 3 ] in
          let* levels = int_range 2 5 in
          let* t_max = float_range 45. 70. in
          return (cores, levels, t_max)))
    (fun (cores, levels, t_max) ->
      let p = Workload.Configs.platform ~cores ~levels ~t_max in
      let ao = Core.Ao.solve p in
      let dense =
        Sched.Peak.of_any_refined (Thermal.Backend.of_model p.P.model) p.P.power ~samples_per_segment:32
          ao.Core.Ao.schedule
      in
      ao.Core.Ao.peak <= t_max +. 1e-6 && dense <= t_max +. 0.05)

(* ------------------------------------------------------------------ pco *)

let test_pco_meets_constraint () =
  let p = platform3 () in
  let r = Core.Pco.solve p in
  Alcotest.(check bool) "peak <= T_max" true (r.Core.Pco.peak <= p.P.t_max +. 0.05)

let test_pco_rounds () =
  let p = platform3 () in
  let r1 = Core.Pco.solve ~rounds:1 p in
  let r2 = Core.Pco.solve ~rounds:2 p in
  Alcotest.(check bool) "extra rounds never hurt" true
    (r2.Core.Pco.throughput >= r1.Core.Pco.throughput -. 1e-6);
  Alcotest.(check bool) "rounds < 1 rejected" true
    (match Core.Pco.solve ~rounds:0 p with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_pco_at_least_ao () =
  let p = platform3 () in
  let r = Core.Pco.solve p in
  Alcotest.(check bool) "PCO >= its AO seed" true
    (r.Core.Pco.throughput >= r.Core.Pco.ao.Core.Ao.throughput -. 1e-9)

let () =
  Alcotest.run "core"
    [
      ( "platform",
        [
          Alcotest.test_case "construction" `Quick test_platform_construction;
          Alcotest.test_case "validation" `Quick test_platform_validation;
          Alcotest.test_case "infeasible detection" `Quick test_platform_infeasible_detected;
        ] );
      ( "ideal",
        [
          Alcotest.test_case "reaches T_max" `Quick test_ideal_reaches_tmax;
          Alcotest.test_case "edge cores faster" `Quick test_ideal_edge_cores_faster;
          Alcotest.test_case "matches paper motivation" `Quick test_ideal_matches_paper_motivation;
          Alcotest.test_case "clamps at vmax" `Quick test_ideal_clamps_at_vmax;
          Alcotest.test_case "refine no worse" `Quick test_ideal_refine_no_worse;
        ] );
      ( "lns",
        [
          Alcotest.test_case "rounds down" `Quick test_lns_rounds_down;
          Alcotest.test_case "always feasible" `Quick test_lns_feasible;
          Alcotest.test_case "monotone in levels" `Quick test_lns_improves_with_levels;
        ] );
      ( "exs",
        [
          Alcotest.test_case "full exploration" `Quick test_exs_explores_whole_space;
          Alcotest.test_case "beats LNS" `Quick test_exs_beats_lns;
          Alcotest.test_case "respects T_max" `Quick test_exs_respects_tmax;
          Alcotest.test_case "incremental = naive" `Quick test_exs_incremental_matches_naive;
          Alcotest.test_case "pruned = flat" `Quick test_exs_pruned_matches_flat;
          Alcotest.test_case "anytime budget" `Quick test_exs_anytime_budget;
          Alcotest.test_case "motivation pattern" `Quick test_exs_motivation_pattern;
          Alcotest.test_case "infeasible platform" `Quick test_exs_infeasible_platform;
          Alcotest.test_case "all solvers agree (incl. parallel)" `Quick
            test_exs_solvers_agree;
        ] );
      ( "tpt",
        [
          Alcotest.test_case "schedule materialization" `Quick test_tpt_schedule_materialization;
          Alcotest.test_case "adjust reaches constraint" `Quick test_tpt_adjust_reaches_constraint;
          Alcotest.test_case "adjust only lowers" `Quick test_tpt_adjust_only_lowers_high_time;
          Alcotest.test_case "fill stops at constraint" `Quick test_tpt_fill_headroom_stops_at_constraint;
          Alcotest.test_case "validation" `Quick test_tpt_validation;
        ] );
      ( "ao",
        [
          Alcotest.test_case "meets constraint" `Quick test_ao_meets_constraint;
          Alcotest.test_case "beats EXS (2 levels)" `Quick test_ao_beats_exs_on_coarse_levels;
          Alcotest.test_case "below ideal" `Quick test_ao_below_ideal;
          Alcotest.test_case "schedule is step-up" `Quick test_ao_schedule_is_step_up;
          Alcotest.test_case "m within bound" `Quick test_ao_m_within_bound;
          Alcotest.test_case "oscillation helps" `Quick test_ao_oscillation_helps;
          Alcotest.test_case "fine levels near ideal" `Quick test_ao_fine_levels_close_to_ideal;
          Alcotest.test_case "headroom fill" `Quick test_ao_with_fill;
        ] );
      ( "pco",
        [
          Alcotest.test_case "meets constraint" `Quick test_pco_meets_constraint;
          Alcotest.test_case "at least AO" `Quick test_pco_at_least_ao;
          Alcotest.test_case "multi-round" `Quick test_pco_rounds;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_ao_always_feasible ]);
    ]
