(* Property-based validation of the paper's Theorems 1-5 and Lemma 1 on
   randomly generated schedules, plus the Fig. 2 counterexample.

   These are the load-bearing claims of the paper; each test states the
   theorem it checks. *)

module S = Sched.Schedule
module Peak = Sched.Peak
module Matex = Thermal.Matex

let pm = Power.Power_model.default
let levels5 = Power.Vf.table_iv 5
let levels2 = Power.Vf.table_iv 2

let model_of_cores n =
  let rows, cols = Workload.Configs.layout_of_cores n in
  Thermal.Hotspot.core_level
    (Thermal.Floorplan.grid ~rows ~cols ~core_width:4e-3 ~core_height:4e-3)

let model2 = model_of_cores 2
let model3 = model_of_cores 3

let seed_gen = QCheck.(make Gen.(int_range 0 1_000_000))

(* -------------------------------------------------------------- Theorem 1
   The peak temperature of a periodic step-up schedule in the thermal
   stable status occurs at the end of the period.

   Reproduction note: with strong lateral coupling this holds only
   approximately — a constant-high core develops a small interior hump
   while a late-stepping neighbour's residual heat decays (worst observed
   over 3000 random schedules: ~0.6 C absolute, ~2% of the rise over
   ambient; < 0.05 C on AO-shaped schedules).  We assert the violation
   stays below 3% of the rise (+0.05 C slack); see EXPERIMENTS.md. *)

let prop_theorem1 ~model ~n_cores ~period =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "T1: step-up peak at period end (%d cores, %gs period)" n_cores
         period)
    ~count:60 seed_gen
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let s =
        Workload.Random_sched.step_up rng ~n_cores ~period ~max_intervals:4
          ~levels:levels5
      in
      let end_peak = Peak.of_step_up (Thermal.Backend.of_model model) pm s in
      let scan_peak = Peak.of_any (Thermal.Backend.of_model model) pm ~samples_per_segment:48 s in
      let rise = end_peak -. Thermal.Model.ambient model in
      scan_peak <= end_peak +. (0.03 *. rise) +. 0.05)

(* -------------------------------------------------------------- Theorem 2
   The step-up reordering of an arbitrary periodic schedule upper-bounds
   its stable-status peak temperature.

   Reproduction note: like Theorem 1 this is exact for weak coupling but
   only approximate for our strongly-coupled model (~2% of the rise over
   ambient at worst).  Asserted with the same relative tolerance as
   Theorem 1. *)

let prop_theorem2 ~model ~n_cores ~period =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "T2: step-up reorder bounds arbitrary peaks (%d cores)" n_cores)
    ~count:60 seed_gen
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let s =
        Workload.Random_sched.arbitrary rng ~n_cores ~period ~max_intervals:4
          ~levels:levels5
      in
      let arbitrary_peak = Peak.of_any (Thermal.Backend.of_model model) pm ~samples_per_segment:48 s in
      let bound = Peak.of_any (Thermal.Backend.of_model model) pm ~samples_per_segment:48 (Sched.Stepup.reorder s) in
      let rise = bound -. Thermal.Model.ambient model in
      arbitrary_peak <= bound +. (0.03 *. rise) +. 0.05)

(* -------------------------------------------------------------- Theorem 3
   Among equal-throughput step-up schedules, the constant-speed one has
   the lowest stable-status peak. *)

let prop_theorem3 =
  QCheck.Test.make ~name:"T3: constant speed beats equal-work two-mode" ~count:80
    QCheck.(
      make
        Gen.(
          let* x = float_range 0.05 0.95 in
          let* v_low = float_range 0.6 0.9 in
          let* v_high = float_range 1.0 1.3 in
          let* period = float_range 0.01 1.0 in
          return (x, v_low, v_high, period)))
    (fun (x, v_low, v_high, period) ->
      let v_e = (x *. v_low) +. ((1. -. x) *. v_high) in
      (* Core 0 varies; the others idle (the theorem's setup). *)
      let constant = S.uniform ~period [| v_e; 0.; 0. |] in
      let two_mode =
        S.make ~period
          [|
            [
              { S.duration = x *. period; voltage = v_low };
              { S.duration = (1. -. x) *. period; voltage = v_high };
            ];
            [ { S.duration = period; voltage = 0. } ];
            [ { S.duration = period; voltage = 0. } ];
          |]
      in
      Peak.of_step_up (Thermal.Backend.of_model model3) pm constant
      <= Peak.of_step_up (Thermal.Backend.of_model model3) pm two_mode +. 1e-6)

(* -------------------------------------------------------------- Theorem 4
   Using the two *neighbouring* modes gives a lower peak than any wider
   equal-work mode pair. *)

let prop_theorem4 =
  QCheck.Test.make ~name:"T4: neighbouring modes beat wider pairs" ~count:80
    QCheck.(
      make
        Gen.(
          let* v_e = float_range 0.82 0.98 in
          let* period = float_range 0.02 0.5 in
          return (v_e, period)))
    (fun (v_e, period) ->
      (* Neighbours of v_e in Table IV's 5-level set are 0.8/1.0; the wide
         pair is 0.6/1.3.  Both complete the same work v_e * period. *)
      let two_mode ~v_low ~v_high =
        let r_high = (v_e -. v_low) /. (v_high -. v_low) in
        S.make ~period
          [|
            [
              { S.duration = (1. -. r_high) *. period; voltage = v_low };
              { S.duration = r_high *. period; voltage = v_high };
            ];
            [ { S.duration = period; voltage = 0. } ];
            [ { S.duration = period; voltage = 0. } ];
          |]
      in
      let narrow = Peak.of_step_up (Thermal.Backend.of_model model3) pm (two_mode ~v_low:0.8 ~v_high:1.0) in
      let wide = Peak.of_step_up (Thermal.Backend.of_model model3) pm (two_mode ~v_low:0.6 ~v_high:1.3) in
      narrow <= wide +. 1e-6)

(* -------------------------------------------------------------- Theorem 5
   For a step-up schedule, the stable-status peak is monotone
   non-increasing in the oscillation count m. *)

let prop_theorem5 ~model ~n_cores =
  QCheck.Test.make
    ~name:(Printf.sprintf "T5: peak monotone non-increasing in m (%d cores)" n_cores)
    ~count:40 seed_gen
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let s =
        Workload.Random_sched.step_up rng ~n_cores ~period:2.0 ~max_intervals:5
          ~levels:levels2
      in
      let peak m = Peak.of_step_up (Thermal.Backend.of_model model) pm (Sched.Oscillate.oscillate m s) in
      let rec monotone m prev =
        if m > 6 then true
        else
          let p = peak m in
          (* Same coupling caveat as Theorem 1: allow a 0.05 C ripple. *)
          p <= prev +. 0.05 && monotone (m + 1) p
      in
      monotone 2 (peak 1))

(* ------------------------------------------- Theorem 3's scalar lemma
   The proof's final step (Eq. 10) reduces to the scalar inequality
   Upsilon(w) = (1 - e^{-lambda w}) / (1 - e^{-lambda}) - w >= 0 for
   w in [0, 1], lambda >= 0 — concavity plus the two roots at 0 and 1.
   We check it directly, including the boundary cases. *)

let prop_theorem3_scalar_lemma =
  QCheck.Test.make ~name:"T3 scalar lemma: Upsilon(w) >= 0 on [0,1]" ~count:500
    QCheck.(
      make
        Gen.(
          let* w = float_bound_inclusive 1. in
          let* lambda = float_range 1e-3 50. in
          return (w, lambda)))
    (fun (w, lambda) ->
      let upsilon =
        ((1. -. exp (-.lambda *. w)) /. (1. -. exp (-.lambda))) -. w
      in
      upsilon >= -1e-12)

let test_theorem3_scalar_lemma_roots () =
  List.iter
    (fun lambda ->
      let upsilon w = ((1. -. exp (-.lambda *. w)) /. (1. -. exp (-.lambda))) -. w in
      Alcotest.(check (float 1e-12)) "root at 0" 0. (upsilon 0.);
      Alcotest.(check (float 1e-9)) "root at 1" 0. (upsilon 1.);
      Alcotest.(check bool) "strictly positive inside" true (upsilon 0.5 > 0.))
    [ 0.1; 1.; 10. ]

(* --------------------------------------------------------------- Lemma 1
   Exchanging a (low, high) segment pair into (high, low) — segments
   moving WITH their durations, so the workload is preserved — can only
   lower the stable end-of-period temperature, element-wise: the later
   the high segment, the hotter the period boundary.

   Erratum note: the paper prints the inequality as
   T_ss(S(t_p)) <= T_ss(S~(t_p)) with S = low-first, which contradicts
   its own reading ("as a high-speed interval moves toward the end ... it
   tends to increase the temperature at the end"); the prose direction is
   the one Theorem 2's step-up bound needs, holds exactly in our model,
   and is what we assert. *)

let prop_lemma1 =
  QCheck.Test.make ~name:"L1: moving the high interval later heats the period end"
    ~count:100
    QCheck.(
      make
        Gen.(
          let* d1 = float_range 0.05 0.6 in
          let* d2 = float_range 0.05 0.6 in
          let* v_low = float_range 0.6 0.9 in
          let* v_high = float_range 1.0 1.3 in
          let* v_other = float_range 0.6 1.3 in
          return (d1, d2, v_low, v_high, v_other)))
    (fun (d1, d2, v_low, v_high, v_other) ->
      let psi_other = Power.Power_model.psi pm v_other in
      let seg d v =
        { Matex.duration = d; psi = [| Power.Power_model.psi pm v; psi_other |] }
      in
      let low_first = Matex.stable_start model2 [ seg d1 v_low; seg d2 v_high ] in
      let high_first = Matex.stable_start model2 [ seg d2 v_high; seg d1 v_low ] in
      Linalg.Vec.leq high_first (Linalg.Vec.add low_first (Linalg.Vec.create 2 1e-9)))

(* ------------------------------------------------------- Fig. 2 example
   Oscillating only one core does not necessarily reduce the peak — the
   paper's two-core counterexample. *)

let test_fig2_single_core_oscillation () =
  let seg d v = { S.duration = d; voltage = v } in
  let base =
    S.make ~period:0.1
      [| [ seg 0.05 1.3; seg 0.05 0.6 ]; [ seg 0.05 0.6; seg 0.05 1.3 ] |]
  in
  let core1_doubled =
    S.make ~period:0.1
      [|
        [ seg 0.025 1.3; seg 0.025 0.6; seg 0.025 1.3; seg 0.025 0.6 ];
        [ seg 0.05 0.6; seg 0.05 1.3 ];
      |]
  in
  let both_doubled = Sched.Oscillate.oscillate 2 base in
  let peak s = Peak.of_any (Thermal.Backend.of_model model2) pm ~samples_per_segment:64 s in
  let p_base = peak base and p_single = peak core1_doubled and p_both = peak both_doubled in
  Alcotest.(check bool) "single-core oscillation does not reduce the peak" true
    (p_single >= p_base -. 1e-3);
  Alcotest.(check bool) "whole-chip oscillation does reduce the peak" true
    (p_both < p_base -. 0.1)

(* A deterministic instance of Theorem 2 mirroring Fig. 3: the aligned
   (x2 = x3 = half-period) schedule is the hottest of the phase grid. *)

let test_fig3_alignment_is_worst_case () =
  let peak_of_offsets offsets =
    let s =
      Workload.Random_sched.phase_grid ~n_cores:3 ~period:6. ~v_low:0.6 ~v_high:1.3
        ~offsets
    in
    Peak.of_any (Thermal.Backend.of_model model3) pm ~samples_per_segment:32 s
  in
  let aligned = peak_of_offsets [| 3.; 3.; 3. |] in
  List.iter
    (fun offsets ->
      Alcotest.(check bool) "aligned schedule is hottest" true
        (peak_of_offsets offsets <= aligned +. 1e-6))
    [ [| 3.; 0.6; 4.2 |]; [| 3.; 1.5; 4.5 |]; [| 3.; 0.; 3. |]; [| 3.; 5.4; 1.2 |] ]

let () =
  Alcotest.run "theorems"
    [
      ( "theorem 1",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_theorem1 ~model:model2 ~n_cores:2 ~period:0.4;
            prop_theorem1 ~model:model3 ~n_cores:3 ~period:1.0;
          ] );
      ( "theorem 2",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_theorem2 ~model:model2 ~n_cores:2 ~period:0.4;
            prop_theorem2 ~model:model3 ~n_cores:3 ~period:1.0;
          ] );
      ("theorem 3", [ QCheck_alcotest.to_alcotest prop_theorem3 ]);
      ("theorem 4", [ QCheck_alcotest.to_alcotest prop_theorem4 ]);
      ( "theorem 5",
        List.map QCheck_alcotest.to_alcotest
          [ prop_theorem5 ~model:model2 ~n_cores:2; prop_theorem5 ~model:model3 ~n_cores:3 ]
      );
      ("lemma 1", [ QCheck_alcotest.to_alcotest prop_lemma1 ]);
      ( "theorem 3 scalar lemma",
        [
          QCheck_alcotest.to_alcotest prop_theorem3_scalar_lemma;
          Alcotest.test_case "roots and interior" `Quick test_theorem3_scalar_lemma_roots;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "Fig 2: single-core oscillation" `Quick
            test_fig2_single_core_oscillation;
          Alcotest.test_case "Fig 3: alignment worst case" `Quick
            test_fig3_alignment_is_worst_case;
        ] );
    ]
