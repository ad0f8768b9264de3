(* Differential tests for the modal (eigenbasis) evaluation engine: the
   Matex hot path, and the library callers that step through Modal
   (Trace, Ptrace, Energy), must agree with the dense-propagator oracle
   (Oracle.Reference) to <= 1e-9 on trajectories, stable statuses,
   refined peaks and energy integrals. *)

module Vec = Linalg.Vec
module Model = Thermal.Model
module Modal = Thermal.Modal
module Matex = Thermal.Matex

let pm = Power.Power_model.default
let levels5 = Power.Vf.table_iv 5

let model3 =
  Thermal.Hotspot.core_level
    (Thermal.Floorplan.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)

let model9 =
  Thermal.Hotspot.core_level
    (Thermal.Floorplan.grid ~rows:3 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)

let model2 =
  Thermal.Hotspot.core_level
    (Thermal.Floorplan.grid ~rows:1 ~cols:2 ~core_width:4e-3 ~core_height:4e-3)

let seed_gen = QCheck.(make Gen.(int_range 0 1_000_000))

(* Random piecewise-constant power sequence on [model]. *)
let random_segments rng model n_segs =
  List.init n_segs (fun _ ->
      {
        Thermal.Matex.duration = 0.01 +. Random.State.float rng 0.5;
        psi =
          Array.init (Model.n_cores model) (fun _ ->
              Random.State.float rng 20.);
      })

let random_step_up rng ~n_cores ~period =
  Workload.Random_sched.step_up rng ~n_cores ~period ~max_intervals:5
    ~levels:levels5

(* ------------------------------------------------- trajectory agreement *)

let prop_trajectory_matches_reference model name =
  QCheck.Test.make ~name ~count:50 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let segs = random_segments rng model 6 in
      let eng = Modal.make model in
      let theta = ref (Vec.zeros (Model.n_nodes model)) in
      let z = ref (Modal.ambient_state eng) in
      List.for_all
        (fun (s : Thermal.Matex.segment) ->
          theta := Oracle.Reference.step model ~dt:s.duration ~theta:!theta ~psi:s.psi;
          z := Modal.step eng ~dt:s.duration ~z:!z ~psi:s.psi;
          let round_trip = Modal.of_modal eng !z in
          Vec.dist_inf !theta round_trip <= 1e-9
          && Float.abs
               (Modal.max_core_temp eng !z -. Model.max_core_temp model !theta)
             <= 1e-9)
        segs)

(* Interior sampling: an in-period walk's step (z_inf_into once, then
   one sample_segment sub-step of any offset) must agree with a direct
   reference step of the same offset. *)
let prop_interior_samples_match =
  QCheck.Test.make ~name:"Modal.at matches Model.step at interior times" ~count:100
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = model3 in
      let psi = Array.init 3 (fun _ -> Random.State.float rng 20.) in
      let duration = 0.2 +. Random.State.float rng 1.0 in
      let theta0 =
        Array.init (Model.n_nodes model) (fun _ -> Random.State.float rng 30.)
      in
      let eng = Modal.make model in
      let eq = Array.make (Model.n_nodes model) 0. in
      Modal.z_inf_into eng eq psi;
      let z0 = Modal.to_modal eng theta0 in
      List.for_all
        (fun frac ->
          let t = frac *. duration in
          let reference = Oracle.Reference.step model ~dt:t ~theta:theta0 ~psi in
          let z = Array.copy z0 in
          ignore (Modal.sample_segment eng ~dt:t ~samples:1 ~eq ~walker:z : int * float);
          let modal = Modal.of_modal eng z in
          Vec.dist_inf reference modal <= 1e-9)
        [ 0.1; 0.37; 0.5; 0.99 ])

(* ------------------------------------------------ stable-status agreement *)

let prop_stable_start_matches model name =
  QCheck.Test.make ~name ~count:50 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let s = random_step_up rng ~n_cores:(Model.n_cores model) ~period:5. in
      let profile = Sched.Peak.profile (Thermal.Backend.of_model model) pm s in
      let reference = Oracle.Reference.stable_start model profile in
      let modal = Matex.stable_start model profile in
      Vec.dist_inf reference modal <= 1e-9)

let prop_stable_core_temps_match =
  QCheck.Test.make ~name:"stable_core_temps = core temps of stable_start"
    ~count:50 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let s = random_step_up rng ~n_cores:3 ~period:5. in
      let profile = Sched.Peak.profile (Thermal.Backend.of_model model3) pm s in
      let via_state =
        Model.core_temps_of_theta model3 (Matex.stable_start model3 profile)
      in
      let direct =
        Sched.Peak.profile_end_core_temps (Thermal.Backend.of_model model3) profile
      in
      Vec.dist_inf via_state direct <= 1e-9)

(* ------------------------------------------------------- peak agreement *)

(* Both production backends, against the dense-propagator oracle: the
   default-style walk, a one-sample walk (each segment one sub-step plus
   its boundary step) and a one-segment profile. *)
let scan_backends3 =
  [
    Thermal.Backend.of_model model3;
    Thermal.Backend.of_response
      (Thermal.Sparse_response.of_spec (Thermal.Spec.of_model model3));
  ]

let prop_peak_scan_matches =
  QCheck.Test.make ~name:"peak_scan agrees with reference" ~count:50 seed_gen
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let segs = random_segments rng model3 4 in
      let one_segment = random_segments rng model3 1 in
      List.for_all
        (fun (samples_per_segment, profile) ->
          let reference =
            Oracle.Reference.peak_scan model3 ~samples_per_segment profile
          in
          List.for_all
            (fun b ->
              Float.abs
                (reference -. Sched.Peak.profile_scan_peak b ~samples_per_segment profile)
              <= 1e-9)
            scan_backends3)
        [ (16, segs); (1, segs); (16, one_segment) ])

(* The Fig. 2 two-mode schedules, evaluated by both peak_refined paths. *)
let test_peak_refined_fig2 () =
  let seg d v = { Sched.Schedule.duration = d; voltage = v } in
  let base =
    Sched.Schedule.make ~period:0.1
      [| [ seg 0.05 1.3; seg 0.05 0.6 ]; [ seg 0.05 0.6; seg 0.05 1.3 ] |]
  in
  let single =
    Sched.Schedule.make ~period:0.1
      [|
        [ seg 0.025 1.3; seg 0.025 0.6; seg 0.025 1.3; seg 0.025 0.6 ];
        [ seg 0.05 0.6; seg 0.05 1.3 ];
      |]
  in
  List.iteri
    (fun i s ->
      let profile = Sched.Peak.profile (Thermal.Backend.of_model model2) pm s in
      let reference =
        Oracle.Reference.peak_refined model2 ~samples_per_segment:32 profile
      in
      let modal =
        Sched.Peak.profile_refined_peak (Thermal.Backend.of_model model2)
          ~samples_per_segment:32 profile
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "fig2 schedule %d refined peak" i)
        reference modal)
    [ base; single; Sched.Oscillate.oscillate 2 base ]

let prop_peak_refined_matches =
  QCheck.Test.make ~name:"peak_refined agrees with reference (two-mode)" ~count:30
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let ratio () = 0.1 +. Random.State.float rng 0.8 in
      let s =
        Sched.Schedule.two_mode ~period:0.1 ~low:[| 0.6; 0.6; 0.6 |]
          ~high:[| 1.3; 1.3; 1.3 |]
          ~high_ratio:[| ratio (); ratio (); ratio () |]
      in
      let profile = Sched.Peak.profile (Thermal.Backend.of_model model3) pm s in
      let reference =
        Oracle.Reference.peak_refined model3 ~samples_per_segment:16 profile
      in
      let modal =
        Sched.Peak.profile_refined_peak (Thermal.Backend.of_model model3)
          ~samples_per_segment:16 profile
      in
      Float.abs (reference -. modal) <= 1e-9)

(* ------------------------------------------------------ ported callers *)

(* The library callers that step through Modal, each against its oracle
   formulation (node-space reference steps read through the core nodes).
   [run rng model] returns the caller's floats and the oracle's. *)
let prop_caller_matches_reference (name, run) =
  QCheck.Test.make ~name ~count:30 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = if seed mod 2 = 0 then model3 else model9 in
      let got, want = run rng model in
      Array.length got = Array.length want && Vec.dist_inf got want <= 1e-9)

let trace_temps trace =
  Array.concat (Array.to_list (Array.map (fun s -> s.Thermal.Trace.core_temps) trace))

let reference_walk model steps =
  let theta = ref (Vec.zeros (Model.n_nodes model)) in
  let temps = ref [ Model.core_temps_of_theta model !theta ] in
  List.iter
    (fun (dt, psi) ->
      theta := Oracle.Reference.step model ~dt ~theta:!theta ~psi;
      temps := Model.core_temps_of_theta model !theta :: !temps)
    steps;
  Array.concat (List.rev !temps)

let trace_from_ambient rng model =
  let profile = random_segments rng model 3 in
  let samples = 1 + Random.State.int rng 4 in
  let steps =
    List.concat_map
      (fun (s : Matex.segment) ->
        List.init samples (fun _ -> (s.duration /. float_of_int samples, s.psi)))
      profile
  in
  ( trace_temps
      (Thermal.Trace.from_ambient model ~periods:3 ~samples_per_segment:samples profile),
    reference_walk model (List.concat [ steps; steps; steps ]) )

let periods_to_stable rng model =
  let profile = random_segments rng model 2 in
  let rec reference theta count =
    if count >= 10_000 then count
    else
      let next =
        List.fold_left
          (fun acc (s : Matex.segment) ->
            Oracle.Reference.step model ~dt:s.duration ~theta:acc ~psi:s.psi)
          theta profile
      in
      if Vec.dist_inf next theta < 1e-6 then count + 1 else reference next (count + 1)
  in
  ( [| float_of_int (Thermal.Trace.periods_to_stable model ~tol:1e-6 profile) |],
    [| float_of_int (reference (Vec.zeros (Model.n_nodes model)) 0) |] )

let ptrace_replay rng model =
  let nc = Model.n_cores model in
  let rows =
    Array.init 12 (fun _ -> Array.init nc (fun _ -> Random.State.float rng 20.))
  in
  let trace =
    { Thermal.Ptrace.names = Array.init nc (Printf.sprintf "core%d"); samples = rows }
  in
  let interval = 0.001 +. Random.State.float rng 0.05 in
  ( trace_temps
      (Thermal.Ptrace.replay model trace ~interval ~column_map:(Array.init nc Fun.id)),
    reference_walk model (Array.to_list (Array.map (fun psi -> (interval, psi)) rows)) )

let energy_per_period rng model =
  let s = random_step_up rng ~n_cores:(Model.n_cores model) ~period:0.5 in
  let got = Sched.Energy.per_period model pm s in
  let profile = Sched.Peak.profile (Thermal.Backend.of_model model) pm s in
  let boundaries = Oracle.Reference.stable_boundaries model profile in
  let beta = Model.leak_beta model and ambient = Model.ambient model in
  let dynamic = ref 0. and leakage = ref 0. in
  List.iteri
    (fun q (seg : Matex.segment) ->
      dynamic := !dynamic +. (Vec.sum seg.psi *. seg.duration);
      let integral =
        Oracle.Reference.integrate_theta model ~dt:seg.duration ~theta:boundaries.(q)
          ~psi:seg.psi
      in
      Array.iter
        (fun i ->
          leakage := !leakage +. (beta *. (integral.(i) +. (ambient *. seg.duration))))
        (Model.core_nodes model))
    profile;
  ([| got.Sched.Energy.dynamic; got.Sched.Energy.leakage |], [| !dynamic; !leakage |])

(* ------------------------------------------------- engine-level algebra *)

let test_round_trip () =
  let eng = Modal.make model9 in
  let theta = Array.init (Model.n_nodes model9) (fun i -> float_of_int i +. 0.5) in
  let back = Modal.of_modal eng (Modal.to_modal eng theta) in
  Alcotest.(check bool) "W (W^-1 theta) = theta" true (Vec.dist_inf theta back <= 1e-9)

let test_z_inf_is_steady_state () =
  let eng = Modal.make model9 in
  let psi = Array.init 9 (fun i -> 5. +. float_of_int i) in
  let z = Modal.z_inf eng psi in
  (* Stepping the steady state must leave it fixed. *)
  let z' = Modal.step eng ~dt:3.7 ~z ~psi in
  Alcotest.(check bool) "steady state is a fixed point" true
    (Vec.dist_inf z z' <= 1e-9);
  Alcotest.(check bool) "core temps match steady_core_temps" true
    (Vec.dist_inf (Modal.core_temps eng z) (Model.steady_core_temps model9 psi)
    <= 1e-9)

let test_stable_z_periodicity () =
  let eng = Modal.make model9 in
  let rng = Random.State.make [| 42 |] in
  let profile = random_segments rng model9 5 in
  let z_star =
    Array.copy
      (Modal.stable eng ~t_p:(Thermal.Matex.period profile) (Thermal.Matex.spans profile))
  in
  let z_end = Array.copy z_star in
  List.iter
    (fun (s : Thermal.Matex.segment) ->
      ignore
        (Modal.sample_segment eng ~dt:s.duration ~samples:1 ~eq:(Modal.z_inf eng s.psi)
           ~walker:z_end
          : int * float))
    profile;
  Alcotest.(check bool) "stable status repeats after one period" true
    (Vec.dist_inf z_star z_end <= 1e-9)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "modal"
    [
      qsuite "trajectories"
        [
          prop_trajectory_matches_reference model3 "modal = reference (3x1)";
          prop_trajectory_matches_reference model9 "modal = reference (3x3)";
          prop_interior_samples_match;
        ];
      qsuite "stable status"
        [
          prop_stable_start_matches model3 "stable_start old = new (3x1)";
          prop_stable_start_matches model9 "stable_start old = new (3x3)";
          prop_stable_core_temps_match;
        ];
      qsuite "peaks" [ prop_peak_scan_matches; prop_peak_refined_matches ];
      qsuite "callers"
        (List.map prop_caller_matches_reference
           [
             ("Trace.from_ambient = reference steps", trace_from_ambient);
             ("Trace.periods_to_stable = reference periods", periods_to_stable);
             ("Ptrace.replay = reference steps", ptrace_replay);
             ("Energy.per_period = reference integrate_theta", energy_per_period);
           ]);
      ( "units",
        [
          Alcotest.test_case "fig2 refined peaks" `Quick test_peak_refined_fig2;
          Alcotest.test_case "modal round trip" `Quick test_round_trip;
          Alcotest.test_case "z_inf fixed point" `Quick test_z_inf_is_steady_state;
          Alcotest.test_case "stable_z periodicity" `Quick test_stable_z_periodicity;
        ] );
    ]
