(* Cross-cutting property-based tests on schedule transforms, the
   thermal algebra and energy accounting — invariants that must hold for
   ANY randomly generated instance, not just the curated unit cases. *)

module S = Sched.Schedule
module Vec = Linalg.Vec

let pm = Power.Power_model.default
let levels5 = Power.Vf.table_iv 5

let model3 =
  Thermal.Hotspot.core_level
    (Thermal.Floorplan.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)

let seed_gen = QCheck.(make Gen.(int_range 0 1_000_000))

let random_schedule seed =
  let rng = Random.State.make [| seed |] in
  Workload.Random_sched.arbitrary rng ~n_cores:3 ~period:0.3 ~max_intervals:5
    ~levels:levels5

(* --------------------------------------------------------- schedule laws *)

let prop_state_intervals_cover_period =
  QCheck.Test.make ~name:"state intervals partition the period" ~count:200 seed_gen
    (fun seed ->
      let s = random_schedule seed in
      let intervals = S.state_intervals s in
      let total = List.fold_left (fun acc (d, _) -> acc +. d) 0. intervals in
      Float.abs (total -. S.period s) < 1e-9
      && List.for_all (fun (d, _) -> d > 0.) intervals)

let prop_state_intervals_match_voltage_at =
  QCheck.Test.make ~name:"state intervals agree with voltage_at" ~count:100 seed_gen
    (fun seed ->
      let s = random_schedule seed in
      let ok = ref true in
      let at = ref 0. in
      List.iter
        (fun (d, voltages) ->
          let mid = !at +. (d /. 2.) in
          Array.iteri
            (fun i v -> if Float.abs (S.voltage_at s i mid -. v) > 1e-12 then ok := false)
            voltages;
          at := !at +. d)
        (S.state_intervals s);
      !ok)

let prop_shift_preserves_throughput =
  QCheck.Test.make ~name:"shift preserves per-core work" ~count:200
    QCheck.(pair seed_gen (make Gen.(float_range 0. 0.3)))
    (fun (seed, offset) ->
      let s = random_schedule seed in
      let shifted = S.shift s 1 offset in
      Float.abs (Sched.Throughput.ideal s -. Sched.Throughput.ideal shifted) < 1e-9)

let prop_oscillate_composes =
  QCheck.Test.make ~name:"oscillate m1*m2 = oscillate m1 . oscillate m2" ~count:100
    QCheck.(triple seed_gen (make Gen.(int_range 1 5)) (make Gen.(int_range 1 5)))
    (fun (seed, m1, m2) ->
      let s = random_schedule seed in
      S.equal ~tol:1e-15
        (Sched.Oscillate.oscillate (m1 * m2) s)
        (Sched.Oscillate.oscillate m1 (Sched.Oscillate.oscillate m2 s)))

let prop_oscillate_preserves_throughput =
  QCheck.Test.make ~name:"oscillate preserves ideal throughput" ~count:100
    QCheck.(pair seed_gen (make Gen.(int_range 1 16)))
    (fun (seed, m) ->
      let s = random_schedule seed in
      Float.abs
        (Sched.Throughput.ideal s
        -. Sched.Throughput.ideal (Sched.Oscillate.oscillate m s))
      < 1e-9)

let prop_reorder_idempotent =
  QCheck.Test.make ~name:"step-up reorder is idempotent" ~count:200 seed_gen
    (fun seed ->
      let s = random_schedule seed in
      let once = Sched.Stepup.reorder s in
      S.equal ~tol:1e-12 once (Sched.Stepup.reorder once))

let prop_reorder_preserves_work =
  QCheck.Test.make ~name:"step-up reorder preserves per-core work" ~count:200 seed_gen
    (fun seed ->
      let s = random_schedule seed in
      let r = Sched.Stepup.reorder s in
      let work sched = Sched.Throughput.per_core ~tau:0. sched in
      Vec.approx_equal ~tol:1e-9 (work s) (work r))

let prop_serialization_round_trip =
  QCheck.Test.make ~name:"to_string/of_string round trip" ~count:200 seed_gen
    (fun seed ->
      let s = random_schedule seed in
      S.equal ~tol:0. s (S.of_string (S.to_string s)))

(* --------------------------------------------------------- thermal laws *)

let prop_thermal_reciprocity =
  QCheck.Test.make ~name:"steady response is reciprocal (G'^-1 symmetric)" ~count:50
    QCheck.(pair (make Gen.(int_range 0 2)) (make Gen.(int_range 0 2)))
    (fun (i, j) ->
      let unit k =
        let p = Array.make 3 0. in
        p.(k) <- 1.;
        p
      in
      let base = Thermal.Model.steady_core_temps model3 (Array.make 3 0.) in
      let ti = Thermal.Model.steady_core_temps model3 (unit i) in
      let tj = Thermal.Model.steady_core_temps model3 (unit j) in
      Float.abs ((ti.(j) -. base.(j)) -. (tj.(i) -. base.(i))) < 1e-9)

let prop_stable_rotation_invariance =
  (* Rotating a periodic profile by one segment rotates its stable
     boundary states: theta*_rot(0) = theta*(t_1). *)
  QCheck.Test.make ~name:"stable status commutes with profile rotation" ~count:60
    seed_gen
    (fun seed ->
      let s = random_schedule seed in
      let profile = Sched.Peak.profile (Thermal.Backend.of_model model3) pm s in
      match profile with
      | [] | [ _ ] -> true
      | first :: rest ->
          let rotated = rest @ [ first ] in
          let boundaries = Oracle.Reference.stable_boundaries model3 profile in
          let rotated_start = Thermal.Matex.stable_start model3 rotated in
          Vec.approx_equal ~tol:1e-7 boundaries.(1) rotated_start)

let prop_superposition =
  (* The theta-space response is affine in the power vector. *)
  QCheck.Test.make ~name:"steady state is affine in power" ~count:100
    QCheck.(
      make
        Gen.(
          let* a = array_size (return 3) (float_bound_inclusive 20.) in
          let* b = array_size (return 3) (float_bound_inclusive 20.) in
          let* w = float_bound_inclusive 1. in
          return (a, b, w)))
    (fun (a, b, w) ->
      let mix = Array.init 3 (fun i -> (w *. a.(i)) +. ((1. -. w) *. b.(i))) in
      let t v = Thermal.Model.theta_inf model3 v in
      let lhs = t mix in
      let rhs = Vec.add (Vec.scale w (t a)) (Vec.scale (1. -. w) (t b)) in
      (* theta_inf is affine, not linear (the beta*T_amb input), but the
         convex combination keeps the affine part intact. *)
      Vec.approx_equal ~tol:1e-8 lhs rhs)

(* ---------------------------------------------------------- energy laws *)

let prop_energy_bounds =
  QCheck.Test.make ~name:"energy between leakage floor and peak-power cap" ~count:60
    seed_gen
    (fun seed ->
      let s = random_schedule seed in
      let b = Sched.Energy.per_period model3 pm s in
      let beta = Thermal.Model.leak_beta model3 in
      let avg = Sched.Energy.average_power b in
      (* Lower bound: dynamic + leakage at ambient.  Upper bound: dynamic
         + leakage at a generous 150 C. *)
      let dyn_rate = b.Sched.Energy.dynamic /. b.Sched.Energy.period in
      avg >= dyn_rate +. (3. *. beta *. 35.) -. 1e-9
      && avg <= dyn_rate +. (3. *. beta *. 150.))

let prop_energy_additive_under_oscillation =
  (* m-oscillation leaves the per-period-fraction energy almost unchanged
     (identical psi integral; leakage differs only through the slightly
     different temperature trajectory). *)
  QCheck.Test.make ~name:"oscillation changes energy only via leakage" ~count:40
    seed_gen
    (fun seed ->
      let s = Sched.Stepup.reorder (random_schedule seed) in
      let rate sched =
        Sched.Energy.average_power (Sched.Energy.per_period model3 pm sched)
      in
      Float.abs (rate s -. rate (Sched.Oscillate.oscillate 4 s)) < 0.2)

let () =
  Alcotest.run "properties"
    [
      ( "schedule",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_state_intervals_cover_period;
            prop_state_intervals_match_voltage_at;
            prop_shift_preserves_throughput;
            prop_oscillate_composes;
            prop_oscillate_preserves_throughput;
            prop_reorder_idempotent;
            prop_reorder_preserves_work;
            prop_serialization_round_trip;
          ] );
      ( "thermal",
        List.map QCheck_alcotest.to_alcotest
          [ prop_thermal_reciprocity; prop_stable_rotation_invariance; prop_superposition ]
      );
      ( "energy",
        List.map QCheck_alcotest.to_alcotest
          [ prop_energy_bounds; prop_energy_additive_under_oscillation ] );
    ]
