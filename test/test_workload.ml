(* Tests for the random-schedule generators and canonical configurations. *)

module Rs = Workload.Random_sched
module S = Sched.Schedule

let check_close tol = Alcotest.(check (float tol))
let levels2 = Power.Vf.table_iv 2
let levels5 = Power.Vf.table_iv 5

let test_step_up_generator () =
  let rng = Random.State.make [| 1 |] in
  for _ = 1 to 50 do
    let s = Rs.step_up rng ~n_cores:4 ~period:1. ~max_intervals:5 ~levels:levels5 in
    Alcotest.(check bool) "generated schedule is step-up" true (Sched.Stepup.is_step_up s);
    Alcotest.(check int) "core count" 4 (S.n_cores s);
    check_close 1e-12 "period" 1. (S.period s)
  done

let test_arbitrary_generator_valid () =
  let rng = Random.State.make [| 2 |] in
  for _ = 1 to 50 do
    let s = Rs.arbitrary rng ~n_cores:3 ~period:0.5 ~max_intervals:6 ~levels:levels5 in
    (* make already validates; re-validate to be explicit. *)
    S.validate s;
    Alcotest.(check bool) "voltages are available levels" true
      (Array.for_all
         (fun i ->
           List.for_all
             (fun seg -> Power.Vf.mem levels5 seg.S.voltage)
             (S.core_segments s i))
         (Array.init (S.n_cores s) (fun i -> i)))
  done

let test_arbitrary_sometimes_not_step_up () =
  let rng = Random.State.make [| 3 |] in
  let any_non_step_up = ref false in
  for _ = 1 to 100 do
    let s = Rs.arbitrary rng ~n_cores:3 ~period:1. ~max_intervals:5 ~levels:levels2 in
    if not (Sched.Stepup.is_step_up s) then any_non_step_up := true
  done;
  Alcotest.(check bool) "generator explores non-step-up space" true !any_non_step_up

let test_generators_deterministic () =
  let s1 =
    Rs.step_up (Random.State.make [| 9 |]) ~n_cores:3 ~period:1. ~max_intervals:4
      ~levels:levels5
  in
  let s2 =
    Rs.step_up (Random.State.make [| 9 |]) ~n_cores:3 ~period:1. ~max_intervals:4
      ~levels:levels5
  in
  Alcotest.(check bool) "same seed, same schedule" true (S.equal s1 s2)

let test_phase_grid_shapes () =
  let s =
    Rs.phase_grid ~n_cores:3 ~period:6. ~v_low:0.6 ~v_high:1.3 ~offsets:[| 3.; 0.6; 4.2 |]
  in
  check_close 1e-12 "period" 6. (S.period s);
  (* Core 0: high on [3, 6). *)
  check_close 1e-12 "core0 low early" 0.6 (S.voltage_at s 0 1.);
  check_close 1e-12 "core0 high late" 1.3 (S.voltage_at s 0 5.);
  (* Core 2: high on [4.2, 6) + [0, 1.2) — wraps. *)
  check_close 1e-12 "core2 wraps high" 1.3 (S.voltage_at s 2 0.5);
  check_close 1e-12 "core2 low mid" 0.6 (S.voltage_at s 2 3.);
  (* Every core has exactly 50% duty at high voltage. *)
  Array.iteri
    (fun i _ ->
      let high =
        List.fold_left
          (fun acc seg -> if seg.S.voltage > 1. then acc +. seg.S.duration else acc)
          0. (S.core_segments s i)
      in
      check_close 1e-9 (Printf.sprintf "core %d half-high" i) 3. high)
    [| (); (); () |]

let test_phase_grid_zero_offset_step_like () =
  let s = Rs.phase_grid ~n_cores:2 ~period:1. ~v_low:0.6 ~v_high:1.3 ~offsets:[| 0.; 0. |] in
  check_close 1e-12 "high first" 1.3 (S.voltage_at s 0 0.1)

let test_phase_grid_rejects_bad_offset () =
  Alcotest.(check bool) "offset at period rejected" true
    (match
       Rs.phase_grid ~n_cores:1 ~period:1. ~v_low:0.6 ~v_high:1.3 ~offsets:[| 1. |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --------------------------------------------------------------- phases *)

let test_phases_shape () =
  let rng = Random.State.make [| 4 |] in
  let trace =
    Workload.Phases.generate rng ~phases:Workload.Phases.default_phases
      ~names:[| "core_0_0"; "core_0_1" |] ~duration:1.0 ~dt:0.01
      ~power:Power.Power_model.default ~levels:(Power.Vf.table_iv 5)
  in
  Alcotest.(check int) "rows" 100 (Array.length trace.Thermal.Ptrace.samples);
  Alcotest.(check int) "columns" 2 (Array.length trace.Thermal.Ptrace.names);
  Alcotest.(check bool) "powers within the mode range" true
    (Array.for_all
       (fun row ->
         Array.for_all
           (fun p ->
             p >= Power.Power_model.psi Power.Power_model.default 0.6 -. 1e-9
             && p <= Power.Power_model.psi Power.Power_model.default 1.3 +. 1e-9)
           row)
       trace.Thermal.Ptrace.samples)

let test_phases_deterministic () =
  let gen seed =
    Workload.Phases.generate (Random.State.make [| seed |])
      ~phases:Workload.Phases.default_phases ~names:[| "a" |] ~duration:0.5 ~dt:0.01
      ~power:Power.Power_model.default ~levels:(Power.Vf.table_iv 2)
  in
  Alcotest.(check (array (array (float 0.)))) "same seed same trace"
    (gen 7).Thermal.Ptrace.samples (gen 7).Thermal.Ptrace.samples;
  Alcotest.(check bool) "phases actually vary" true
    (let t = gen 7 in
     let col = Array.map (fun row -> row.(0)) t.Thermal.Ptrace.samples in
     Array.exists (fun p -> p <> col.(0)) col)

let test_phases_mean_utilization () =
  Alcotest.(check bool) "stationary mean in (0, 1)" true
    (let u = Workload.Phases.mean_utilization Workload.Phases.default_phases in
     u > 0.1 && u < 0.9)

let test_phases_replay_through_model () =
  (* End-to-end: synthetic trace -> ptrace replay -> sane temperatures. *)
  let fp = Thermal.Floorplan.grid ~rows:1 ~cols:2 ~core_width:4e-3 ~core_height:4e-3 in
  let model = Thermal.Hotspot.core_level fp in
  let rng = Random.State.make [| 9 |] in
  let names = Array.map (fun b -> b.Thermal.Floorplan.name) fp.Thermal.Floorplan.blocks in
  let trace =
    Workload.Phases.generate rng ~phases:Workload.Phases.default_phases ~names
      ~duration:2.0 ~dt:0.02 ~power:Power.Power_model.default
      ~levels:(Power.Vf.table_iv 5)
  in
  let map = Thermal.Ptrace.columns_for_model trace names in
  let temps = Thermal.Ptrace.replay model trace ~interval:0.02 ~column_map:map in
  let peak = Thermal.Trace.peak temps in
  Alcotest.(check bool) "temperatures in a physical band" true (peak > 36. && peak < 80.)

let test_phases_validation () =
  let rng = Random.State.make [| 1 |] in
  Alcotest.(check bool) "bad utilization rejected" true
    (match
       Workload.Phases.generate rng
         ~phases:[ { Workload.Phases.name = "x"; utilization = 1.5; mean_dwell = 0.1 } ]
         ~names:[| "a" |] ~duration:1. ~dt:0.1 ~power:Power.Power_model.default
         ~levels:(Power.Vf.table_iv 2)
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "empty phases rejected" true
    (match Workload.Phases.mean_utilization [] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_configs_layouts () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "%d cores" n)
        expected
        (Workload.Configs.layout_of_cores n))
    [ (2, (1, 2)); (3, (1, 3)); (6, (2, 3)); (9, (3, 3)) ];
  Alcotest.(check bool) "unknown count rejected" true
    (match Workload.Configs.layout_of_cores 5 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_configs_platform_cores () =
  List.iter
    (fun n ->
      let p = Workload.Configs.platform ~cores:n ~levels:2 ~t_max:65. in
      Alcotest.(check int) (Printf.sprintf "%d-core platform" n) n (Core.Platform.n_cores p))
    Workload.Configs.core_counts

let test_configs_platform_3d () =
  let p = Workload.Configs.platform_3d ~layers:2 ~rows:2 ~cols:2 ~levels:2 ~t_max:65. in
  Alcotest.(check int) "8 cores in 2x2x2 stack" 8 (Core.Platform.n_cores p)

let () =
  Alcotest.run "workload"
    [
      ( "random_sched",
        [
          Alcotest.test_case "step-up generator" `Quick test_step_up_generator;
          Alcotest.test_case "arbitrary generator valid" `Quick test_arbitrary_generator_valid;
          Alcotest.test_case "explores non-step-up" `Quick test_arbitrary_sometimes_not_step_up;
          Alcotest.test_case "deterministic" `Quick test_generators_deterministic;
          Alcotest.test_case "phase grid shapes" `Quick test_phase_grid_shapes;
          Alcotest.test_case "phase grid zero offset" `Quick test_phase_grid_zero_offset_step_like;
          Alcotest.test_case "phase grid validation" `Quick test_phase_grid_rejects_bad_offset;
        ] );
      ( "phases",
        [
          Alcotest.test_case "shape" `Quick test_phases_shape;
          Alcotest.test_case "deterministic" `Quick test_phases_deterministic;
          Alcotest.test_case "mean utilization" `Quick test_phases_mean_utilization;
          Alcotest.test_case "replay end to end" `Quick test_phases_replay_through_model;
          Alcotest.test_case "validation" `Quick test_phases_validation;
        ] );
      ( "configs",
        [
          Alcotest.test_case "layouts" `Quick test_configs_layouts;
          Alcotest.test_case "platform cores" `Quick test_configs_platform_cores;
          Alcotest.test_case "3d platform" `Quick test_configs_platform_3d;
        ] );
    ]
