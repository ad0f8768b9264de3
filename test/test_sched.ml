(* Tests for periodic schedules, the step-up transform, m-oscillation,
   throughput accounting and peak-temperature evaluation. *)

module S = Sched.Schedule
module Stepup = Sched.Stepup
module Osc = Sched.Oscillate
module Thr = Sched.Throughput
module Peak = Sched.Peak

let check_close tol = Alcotest.(check (float tol))

let seg d v = { S.duration = d; voltage = v }

let model3 () =
  Thermal.Hotspot.core_level (Thermal.Floorplan.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)

let pm = Power.Power_model.default

(* ------------------------------------------------------------- schedule *)

let test_make_validates () =
  Alcotest.(check bool) "durations must cover period" true
    (match S.make ~period:1. [| [ seg 0.5 1. ] |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative voltage rejected" true
    (match S.make ~period:1. [| [ seg 1. (-0.5) ] |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "empty core rejected" true
    (match S.make ~period:1. [| [] |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* A NaN duty ratio fails the range check in the constructor and in
     its fused mirror, with the same message. *)
  let low = [| 0.6; 0.6; 0.6 |] and high = [| 1.0; 1.0; 1.0 |] in
  let high_ratio = [| 0.5; nan; 0.25 |] in
  let message f =
    match f () with
    | exception Invalid_argument msg -> msg
    | _ -> Alcotest.fail "NaN accepted"
  in
  let expected = "Schedule.two_mode: ratio nan for core 1 not in [0,1]" in
  Alcotest.(check string) "two_mode rejects NaN ratio" expected
    (message (fun () -> S.two_mode ~period:1. ~low ~high ~high_ratio));
  Alcotest.(check string) "fused two_mode, same message" expected
    (message (fun () ->
         Peak.of_two_mode (Thermal.Backend.of_model (model3 ())) pm ~period:1. ~low
           ~high ~high_ratio));
  (* NaN periods, durations and voltages fail positive range tests
     instead of pricing as the coolest possible peak. *)
  let rejected f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "NaN period rejected" true
    (rejected (fun () -> S.make ~period:nan [| [ seg nan 1. ] |]));
  Alcotest.(check bool) "infinite period rejected" true
    (rejected (fun () -> S.make ~period:infinity [| [ seg infinity 1. ] |]));
  Alcotest.(check bool) "NaN duration rejected" true
    (rejected (fun () -> S.make ~period:1. [| [ seg 0.5 1.; seg nan 1. ] |]));
  Alcotest.(check bool) "NaN voltage rejected" true
    (rejected (fun () -> S.make ~period:1. [| [ seg 1. nan ] |]));
  let high_ratio = [| 0.5; 0.5; 0.25 |] in
  let expected = "Schedule: period must be finite and positive" in
  Alcotest.(check string) "two_mode rejects NaN period" expected
    (message (fun () -> S.two_mode ~period:nan ~low ~high ~high_ratio));
  Alcotest.(check string) "fused two_mode, same period message" expected
    (message (fun () ->
         Peak.of_two_mode (Thermal.Backend.of_model (model3 ())) pm ~period:nan ~low
           ~high ~high_ratio));
  let ev = Core.Eval.create (Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:65.) in
  Alcotest.(check bool) "Eval.two_mode_peak rejects NaN period" true
    (rejected (fun () -> Core.Eval.two_mode_peak ev ~period:nan ~low ~high ~high_ratio))

let test_uniform () =
  let s = S.uniform ~period:2. [| 1.0; 0.6 |] in
  Alcotest.(check int) "cores" 2 (S.n_cores s);
  check_close 1e-12 "voltage" 1.0 (S.voltage_at s 0 1.5);
  Alcotest.(check int) "no transitions" 0 (S.transitions s 0)

let test_two_mode () =
  let s =
    S.two_mode ~period:1. ~low:[| 0.6; 0.6 |] ~high:[| 1.3; 1.3 |]
      ~high_ratio:[| 0.25; 0. |]
  in
  check_close 1e-12 "low phase" 0.6 (S.voltage_at s 0 0.5);
  check_close 1e-12 "high phase" 1.3 (S.voltage_at s 0 0.9);
  Alcotest.(check int) "degenerate ratio 0 is constant" 1
    (List.length (S.core_segments s 1));
  Alcotest.(check int) "two transitions per period" 2 (S.transitions s 0)

let test_voltage_at_wraps () =
  let s = S.make ~period:1. [| [ seg 0.5 0.6; seg 0.5 1.3 ] |] in
  check_close 1e-12 "wraps modulo period" 0.6 (S.voltage_at s 0 1.25);
  check_close 1e-12 "negative time wraps" 1.3 (S.voltage_at s 0 (-0.25))

let test_state_intervals () =
  let s =
    S.make ~period:1.
      [| [ seg 0.5 0.6; seg 0.5 1.3 ]; [ seg 0.25 0.6; seg 0.75 1.3 ] |]
  in
  let ivs = S.state_intervals s in
  Alcotest.(check int) "three state intervals" 3 (List.length ivs);
  let total = List.fold_left (fun acc (d, _) -> acc +. d) 0. ivs in
  check_close 1e-9 "intervals cover the period" 1. total;
  (* Middle interval [0.25, 0.5): core0 low, core1 high. *)
  let _, v_mid = List.nth ivs 1 in
  check_close 1e-12 "core0 mid" 0.6 v_mid.(0);
  check_close 1e-12 "core1 mid" 1.3 v_mid.(1)

let test_shift_round_trip () =
  let s = S.make ~period:1. [| [ seg 0.5 0.6; seg 0.5 1.3 ] |] in
  let shifted = S.shift s 0 0.25 in
  (* After shifting by 0.25, what was at t=0.25 (low) is now at 0. *)
  check_close 1e-12 "shifted start" 0.6 (S.voltage_at shifted 0 0.);
  check_close 1e-12 "shifted high" 1.3 (S.voltage_at shifted 0 0.3);
  let back = S.shift shifted 0 0.75 in
  Alcotest.(check bool) "shift composes to identity" true (S.equal s back)

let test_shift_zero_is_identity () =
  let s = S.make ~period:1. [| [ seg 0.5 0.6; seg 0.5 1.3 ] |] in
  Alcotest.(check bool) "zero shift" true (S.equal s (S.shift s 0 0.))

let test_scale_durations () =
  let s = S.make ~period:1. [| [ seg 0.5 0.6; seg 0.5 1.3 ] |] in
  let half = S.scale_durations s 0.5 in
  check_close 1e-12 "period halves" 0.5 (S.period half);
  check_close 1e-12 "segments halve" 0.25 (List.hd (S.core_segments half 0)).S.duration

let test_transitions_wraparound () =
  (* low-high-low: internal boundaries are 2 changes, wrap is same-voltage. *)
  let s = S.make ~period:1. [| [ seg 0.3 0.6; seg 0.4 1.3; seg 0.3 0.6 ] |] in
  Alcotest.(check int) "two transitions" 2 (S.transitions s 0);
  (* low-high: 1 internal + 1 wrap = 2. *)
  let s2 = S.make ~period:1. [| [ seg 0.5 0.6; seg 0.5 1.3 ] |] in
  Alcotest.(check int) "wrap counted" 2 (S.transitions s2 0)

let test_serialization_round_trip () =
  let s =
    S.make ~period:0.02
      [|
        [ seg 0.012 0.6; seg 0.008 1.3 ];
        [ seg 0.02 1.0 ];
        [ seg 0.005 0.6; seg 0.007 0.8; seg 0.008 1.2 ];
      |]
  in
  Alcotest.(check bool) "round trip exact" true
    (S.equal ~tol:0. s (S.of_string (S.to_string s)))

let test_serialization_errors () =
  let bad what text =
    Alcotest.(check bool) what true
      (match S.of_string text with
      | exception (Failure _ | Invalid_argument _) -> true
      | _ -> false)
  in
  bad "empty" "";
  bad "no period" "core 0: 1@1\n";
  bad "bad segment" "period 1\ncore 0: x@1\n";
  bad "durations do not cover" "period 1\ncore 0: 0.5@1\n"

(* --------------------------------------------------------------- stepup *)

let test_is_step_up () =
  let up = S.make ~period:1. [| [ seg 0.5 0.6; seg 0.5 1.3 ] |] in
  Alcotest.(check bool) "ascending is step-up" true (Stepup.is_step_up up);
  let down = S.make ~period:1. [| [ seg 0.5 1.3; seg 0.5 0.6 ] |] in
  Alcotest.(check bool) "descending is not" false (Stepup.is_step_up down);
  let constant = S.uniform ~period:1. [| 0.8 |] in
  Alcotest.(check bool) "constant is step-up" true (Stepup.is_step_up constant)

let test_reorder_definition2 () =
  let s = S.make ~period:1. [| [ seg 0.2 1.3; seg 0.5 0.6; seg 0.3 0.8 ] |] in
  let r = Stepup.reorder s in
  Alcotest.(check bool) "result is step-up" true (Stepup.is_step_up r);
  (* Same multiset of (duration, voltage). *)
  check_close 1e-12 "total work preserved" (Thr.ideal s) (Thr.ideal r);
  let voltages = List.map (fun x -> x.S.voltage) (S.core_segments r 0) in
  Alcotest.(check (list (float 1e-12))) "sorted voltages" [ 0.6; 0.8; 1.3 ] voltages

let test_reorder_merges_equal_voltages () =
  let s = S.make ~period:1. [| [ seg 0.2 1.3; seg 0.3 0.6; seg 0.5 0.6 ] |] in
  let r = Stepup.reorder s in
  Alcotest.(check int) "equal voltages merged" 2 (List.length (S.core_segments r 0));
  check_close 1e-12 "merged duration" 0.8 (List.hd (S.core_segments r 0)).S.duration

(* ------------------------------------------------------------ oscillate *)

let test_oscillate_scales () =
  let s = S.make ~period:1. [| [ seg 0.5 0.6; seg 0.5 1.3 ] |] in
  let o = Osc.oscillate 4 s in
  check_close 1e-12 "period / m" 0.25 (S.period o);
  Alcotest.(check bool) "m=1 is identity" true (S.equal s (Osc.oscillate 1 s));
  Alcotest.(check bool) "m=0 rejected" true
    (match Osc.oscillate 0 s with exception Invalid_argument _ -> true | _ -> false)

let test_delta_formula () =
  check_close 1e-12 "delta" ((0.6 +. 1.3) *. 5e-6 /. (1.3 -. 0.6))
    (Osc.delta ~tau:5e-6 ~v_low:0.6 ~v_high:1.3);
  Alcotest.(check bool) "equal modes rejected" true
    (match Osc.delta ~tau:1e-6 ~v_low:1.0 ~v_high:1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_max_m () =
  (* t_low = 10 ms, tau = 5 us: delta = 1.9*5e-6/0.7 = 13.57 us;
     M = floor(0.01 / 18.57e-6) = 538. *)
  let m = Osc.max_m_for_core ~tau:5e-6 ~v_low:0.6 ~v_high:1.3 ~t_low:0.01 in
  Alcotest.(check int) "paper formula" 538 m;
  Alcotest.(check int) "constant core unbounded" max_int
    (Osc.max_m_for_core ~tau:5e-6 ~v_low:1.0 ~v_high:1.0 ~t_low:0.01);
  Alcotest.(check int) "chip-wide minimum" 538
    (Osc.max_m ~tau:5e-6 ~modes:[| (0.6, 1.3, 0.01); (1.0, 1.0, 0.01) |]);
  Alcotest.(check int) "zero tau unbounded, clamped to max_int" max_int
    (Osc.max_m ~tau:0. ~modes:[| (0.6, 1.3, 0.01) |])

let test_with_ramps_structure () =
  let s = S.make ~period:1. [| [ seg 0.5 0.6; seg 0.5 1.3 ] |] in
  let r = Osc.with_ramps ~steps:4 ~tau:0.02 s in
  check_close 1e-9 "period preserved" 1. (S.period r);
  (* Two boundaries (internal + wrap), 4 ramp sub-segments each, plus the
     two trimmed base segments. *)
  Alcotest.(check int) "segment count" 10 (List.length (S.core_segments r 0));
  (* Ramp voltages are strictly between the modes. *)
  Alcotest.(check bool) "ramp voltages inside (0.6, 1.3)" true
    (List.for_all
       (fun x -> x.S.voltage >= 0.6 -. 1e-12 && x.S.voltage <= 1.3 +. 1e-12)
       (S.core_segments r 0))

let test_with_ramps_constant_core_untouched () =
  let s = S.uniform ~period:1. [| 0.8 |] in
  Alcotest.(check bool) "constant core unchanged" true
    (S.equal s (Osc.with_ramps ~steps:3 ~tau:0.01 s))

let test_with_ramps_thermal_effect_bounded () =
  (* With a realistic (tiny) ramp the peak must be indistinguishable from
     the instant-switch idealization; with an exaggerated ramp it may
     move, but only by a bounded amount. *)
  let m = model3 () in
  let s =
    S.two_mode ~period:0.05 ~low:[| 0.6; 0.6; 0.6 |] ~high:[| 1.3; 1.3; 1.3 |]
      ~high_ratio:[| 0.5; 0.5; 0.5 |]
  in
  let base = Peak.of_any (Thermal.Backend.of_model m) pm ~samples_per_segment:32 s in
  let tiny = Peak.of_any (Thermal.Backend.of_model m) pm ~samples_per_segment:32 (Osc.with_ramps ~steps:3 ~tau:1e-5 s) in
  check_close 1e-2 "5us-scale ramps are thermally invisible" base tiny;
  let coarse =
    Peak.of_any (Thermal.Backend.of_model m) pm ~samples_per_segment:32 (Osc.with_ramps ~steps:6 ~tau:5e-3 s)
  in
  Alcotest.(check bool) "5ms ramps shift the peak by < 1C" true
    (Float.abs (coarse -. base) < 1.)

let test_with_ramps_validation () =
  let s = S.make ~period:0.01 [| [ seg 0.005 0.6; seg 0.005 1.3 ] |] in
  Alcotest.(check bool) "ramp longer than segment rejected" true
    (match Osc.with_ramps ~steps:2 ~tau:0.006 s with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ----------------------------------------------------------- throughput *)

let test_throughput_eq5 () =
  (* Eq. (5): mean over cores of time-weighted speed. *)
  let s =
    S.make ~period:1. [| [ seg 0.5 0.6; seg 0.5 1.3 ]; [ seg 1.0 1.0 ] |]
  in
  check_close 1e-12 "eq5" ((0.95 +. 1.0) /. 2.) (Thr.ideal s)

let test_throughput_overhead () =
  let s = S.make ~period:1. [| [ seg 0.5 0.6; seg 0.5 1.3 ] |] in
  (* Two boundaries per period, each stalling at the mode being left:
     tau*0.6 at low->high and tau*1.3 at the wrap — (v_L + v_H)*tau in
     total, matching the delta repayment of Section V. *)
  let tau = 1e-3 in
  check_close 1e-12 "stall charged" (0.95 -. (tau *. 1.9))
    (Thr.with_overhead ~tau s);
  check_close 1e-12 "zero tau matches ideal" (Thr.ideal s) (Thr.with_overhead ~tau:0. s)

let test_throughput_clamps_at_zero () =
  (* Absurd tau: net work must clamp at zero, not go negative. *)
  let s = S.make ~period:1e-6 [| [ seg 5e-7 0.6; seg 5e-7 1.3 ] |] in
  Alcotest.(check bool) "non-negative" true (Thr.with_overhead ~tau:1. s >= 0.)

let test_per_core () =
  let s =
    S.make ~period:1. [| [ seg 1.0 0.8 ]; [ seg 0.5 0.6; seg 0.5 1.3 ] |]
  in
  let speeds = Thr.per_core ~tau:0. s in
  check_close 1e-12 "constant core" 0.8 speeds.(0);
  check_close 1e-12 "two-mode core" 0.95 speeds.(1)

(* ----------------------------------------------------------------- peak *)

let test_peak_constant_is_steady () =
  let m = model3 () in
  let v = [| 1.0; 1.0; 1.0 |] in
  let s = S.uniform ~period:0.1 v in
  check_close 1e-9 "constant schedule peak = T^inf"
    (Peak.steady_constant (Thermal.Backend.of_model m) pm v)
    (Peak.of_step_up (Thermal.Backend.of_model m) pm s)

let test_peak_step_up_requires_step_up () =
  let m = model3 () in
  let s =
    S.make ~period:1.
      [|
        [ seg 0.5 1.3; seg 0.5 0.6 ];
        [ seg 1.0 0.6 ];
        [ seg 1.0 0.6 ];
      |]
  in
  Alcotest.check_raises "non-step-up rejected"
    (Invalid_argument "Peak.of_step_up: schedule is not step-up") (fun () ->
      ignore (Peak.of_step_up (Thermal.Backend.of_model m) pm s))

let test_peak_of_any_close_to_step_up_on_step_up_input () =
  let m = model3 () in
  let s =
    S.make ~period:0.4
      [|
        [ seg 0.2 0.6; seg 0.2 1.3 ];
        [ seg 0.3 0.6; seg 0.1 1.3 ];
        [ seg 0.4 0.6 ];
      |]
  in
  let cheap = Peak.of_step_up (Thermal.Backend.of_model m) pm s in
  let scan = Peak.of_any (Thermal.Backend.of_model m) pm ~samples_per_segment:64 s in
  (* Theorem 1: the dense scan cannot find anything above the period end. *)
  Alcotest.(check bool) "scan within 0.01C of end-of-period" true
    (scan <= cheap +. 1e-9 && scan >= cheap -. 0.01)

let test_peak_profile_arity_checked () =
  let m = model3 () in
  let s = S.uniform ~period:1. [| 1.0 |] in
  Alcotest.(check bool) "core count mismatch rejected" true
    (match Peak.profile (Thermal.Backend.of_model m) pm s with exception Invalid_argument _ -> true | _ -> false)

let test_stable_end_core_temps_bounded_by_peak () =
  let m = model3 () in
  let s =
    S.make ~period:0.2
      [|
        [ seg 0.1 0.6; seg 0.1 1.3 ];
        [ seg 0.1 0.6; seg 0.1 1.3 ];
        [ seg 0.2 0.6 ];
      |]
  in
  let temps = Peak.stable_end_core_temps (Thermal.Backend.of_model m) pm s in
  let peak = Peak.of_step_up (Thermal.Backend.of_model m) pm s in
  check_close 1e-9 "max end temp is the step-up peak" peak (Linalg.Vec.max temps)

(* ----------------------------------------------------------------- energy *)

let test_energy_constant_schedule () =
  (* A constant schedule's average power equals the steady total power:
     sum psi + beta * sum T_steady. *)
  let m = model3 () in
  let v = [| 1.0; 0.8; 1.2 |] in
  let s = S.uniform ~period:0.5 v in
  let b = Sched.Energy.per_period m pm s in
  let psi = Power.Power_model.psi_vector pm v in
  let temps = Thermal.Model.steady_core_temps m psi in
  let expected =
    Linalg.Vec.sum psi +. (Thermal.Model.leak_beta m *. Linalg.Vec.sum temps)
  in
  check_close 1e-6 "average power = steady power" expected (Sched.Energy.average_power b)

let test_energy_dynamic_component () =
  let m = model3 () in
  let s =
    S.make ~period:1.
      [|
        [ seg 0.5 0.6; seg 0.5 1.3 ];
        [ seg 1.0 1.0 ];
        [ seg 1.0 0.6 ];
      |]
  in
  let b = Sched.Energy.per_period m pm s in
  let expected_dynamic =
    (0.5 *. Power.Power_model.psi pm 0.6)
    +. (0.5 *. Power.Power_model.psi pm 1.3)
    +. Power.Power_model.psi pm 1.0
    +. Power.Power_model.psi pm 0.6
  in
  check_close 1e-9 "dynamic energy" expected_dynamic b.Sched.Energy.dynamic;
  Alcotest.(check bool) "leakage positive" true (b.Sched.Energy.leakage > 0.)

let test_energy_monotone_in_voltage () =
  let m = model3 () in
  let energy v = Sched.Energy.total (Sched.Energy.per_period m pm (S.uniform ~period:0.2 (Array.make 3 v))) in
  Alcotest.(check bool) "higher voltage, more energy" true (energy 1.2 > energy 0.8)

let test_energy_per_work () =
  (* Constant-speed energy per work: higher voltage is less efficient
     (cubic dynamic power vs linear work). *)
  let m = model3 () in
  let epw v = Sched.Energy.per_work m pm (S.uniform ~period:0.2 (Array.make 3 v)) in
  Alcotest.(check bool) "1.3V less efficient than 0.8V" true (epw 1.3 > epw 0.8);
  Alcotest.(check bool) "idle schedule rejected" true
    (match Sched.Energy.per_work m pm (S.uniform ~period:0.2 (Array.make 3 0.)) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ----------------------------------------------------------------- render *)

let test_gantt_structure () =
  let s =
    S.make ~period:0.01
      [| [ seg 0.004 0.6; seg 0.006 1.3 ]; [ seg 0.01 1.0 ]; [ seg 0.01 0. ] |]
  in
  let svg = Sched.Render.gantt_svg ~title:"test" s in
  let count needle =
    let n = ref 0 in
    let m = String.length svg and k = String.length needle in
    for i = 0 to m - k do
      if String.sub svg i k = needle then incr n
    done;
    !n
  in
  (* 4 segments + background + 3 legend swatches (0.6, 1.0, 1.3). *)
  Alcotest.(check int) "rect count" 8 (count "<rect");
  Alcotest.(check int) "core labels" 3 (count ">core ");
  Alcotest.(check bool) "idle core drawn grey" true (count "#bbbbbb" >= 1);
  Alcotest.(check bool) "well formed" true (count "</svg>" = 1)

let test_gantt_validation () =
  let s = S.uniform ~period:1. [| 1.0 |] in
  Alcotest.(check bool) "bad width rejected" true
    (match Sched.Render.gantt_svg ~width:0 s with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "sched"
    [
      ( "schedule",
        [
          Alcotest.test_case "validation" `Quick test_make_validates;
          Alcotest.test_case "uniform" `Quick test_uniform;
          Alcotest.test_case "two mode" `Quick test_two_mode;
          Alcotest.test_case "voltage_at wraps" `Quick test_voltage_at_wraps;
          Alcotest.test_case "state intervals" `Quick test_state_intervals;
          Alcotest.test_case "shift round trip" `Quick test_shift_round_trip;
          Alcotest.test_case "zero shift identity" `Quick test_shift_zero_is_identity;
          Alcotest.test_case "scale durations" `Quick test_scale_durations;
          Alcotest.test_case "transition counting" `Quick test_transitions_wraparound;
          Alcotest.test_case "serialization round trip" `Quick test_serialization_round_trip;
          Alcotest.test_case "serialization errors" `Quick test_serialization_errors;
        ] );
      ( "stepup",
        [
          Alcotest.test_case "is_step_up" `Quick test_is_step_up;
          Alcotest.test_case "Definition 2 reorder" `Quick test_reorder_definition2;
          Alcotest.test_case "reorder merges" `Quick test_reorder_merges_equal_voltages;
        ] );
      ( "oscillate",
        [
          Alcotest.test_case "scaling" `Quick test_oscillate_scales;
          Alcotest.test_case "delta formula" `Quick test_delta_formula;
          Alcotest.test_case "max m bound" `Quick test_max_m;
          Alcotest.test_case "ramps structure" `Quick test_with_ramps_structure;
          Alcotest.test_case "ramps constant core" `Quick test_with_ramps_constant_core_untouched;
          Alcotest.test_case "ramps thermal effect" `Quick test_with_ramps_thermal_effect_bounded;
          Alcotest.test_case "ramps validation" `Quick test_with_ramps_validation;
        ] );
      ( "throughput",
        [
          Alcotest.test_case "Eq. (5)" `Quick test_throughput_eq5;
          Alcotest.test_case "transition overhead" `Quick test_throughput_overhead;
          Alcotest.test_case "clamps at zero" `Quick test_throughput_clamps_at_zero;
          Alcotest.test_case "per core" `Quick test_per_core;
        ] );
      ( "render",
        [
          Alcotest.test_case "gantt structure" `Quick test_gantt_structure;
          Alcotest.test_case "gantt validation" `Quick test_gantt_validation;
        ] );
      ( "energy",
        [
          Alcotest.test_case "constant schedule" `Quick test_energy_constant_schedule;
          Alcotest.test_case "dynamic component" `Quick test_energy_dynamic_component;
          Alcotest.test_case "monotone in voltage" `Quick test_energy_monotone_in_voltage;
          Alcotest.test_case "per work" `Quick test_energy_per_work;
        ] );
      ( "peak",
        [
          Alcotest.test_case "constant = steady" `Quick test_peak_constant_is_steady;
          Alcotest.test_case "step-up precondition" `Quick test_peak_step_up_requires_step_up;
          Alcotest.test_case "scan vs end-of-period" `Quick
            test_peak_of_any_close_to_step_up_on_step_up_input;
          Alcotest.test_case "profile arity" `Quick test_peak_profile_arity_checked;
          Alcotest.test_case "end temps vs peak" `Quick
            test_stable_end_core_temps_bounded_by_peak;
        ] );
    ]
