(* Tests for the extension layer: HotSpot file formats (.flp/.ptrace),
   refined peak finding, the TSP baseline, the reactive-governor runtime
   and the Hotspot builder's sensitivity knobs. *)

module Fp = Thermal.Floorplan

let check_close tol = Alcotest.(check (float tol))
let pm = Power.Power_model.default

(* One exact step of [state] into a fresh buffer. *)
let step_state (b : Thermal.Backend.t) ~dt ~state ~psi =
  let dst = b.Thermal.Backend.ambient_state () in
  b.Thermal.Backend.step_into ~dt ~state ~psi ~dst;
  dst

(* ------------------------------------------------------------------ flp *)

let sample_flp =
  "# a comment\n\
   \n\
   core0\t4.0e-3\t4.0e-3\t0.0\t0.0\n\
   core1 4.0e-3 4.0e-3 4.0e-3 0.0 1.75e6 0.01\n"

let test_flp_parse () =
  let fp = Thermal.Flp.of_string sample_flp in
  Alcotest.(check int) "two blocks" 2 (Fp.n_blocks fp);
  Alcotest.(check string) "name" "core1" fp.Fp.blocks.(1).Fp.name;
  check_close 1e-12 "x position" 4e-3 fp.Fp.blocks.(1).Fp.x;
  check_close 1e-12 "adjacency survives" 4e-3
    (Fp.shared_edge fp.Fp.blocks.(0) fp.Fp.blocks.(1))

let test_flp_round_trip () =
  let fp = Fp.grid ~rows:2 ~cols:3 ~core_width:4e-3 ~core_height:3e-3 in
  let fp' = Thermal.Flp.of_string (Thermal.Flp.to_string fp) in
  Alcotest.(check int) "block count" (Fp.n_blocks fp) (Fp.n_blocks fp');
  Array.iteri
    (fun i b ->
      let b' = fp'.Fp.blocks.(i) in
      Alcotest.(check string) "name" b.Fp.name b'.Fp.name;
      check_close 1e-9 "x" b.Fp.x b'.Fp.x;
      check_close 1e-9 "width" b.Fp.width b'.Fp.width)
    fp.Fp.blocks

let expect_parse_error what f =
  Alcotest.(check bool) what true
    (match f () with exception Thermal.Flp.Parse_error _ -> true | _ -> false)

let test_flp_errors () =
  expect_parse_error "too few columns" (fun () ->
      Thermal.Flp.of_string "core0 1.0 2.0\n");
  expect_parse_error "non-numeric" (fun () ->
      Thermal.Flp.of_string "core0 a b 0 0\n");
  expect_parse_error "duplicate names" (fun () ->
      Thermal.Flp.of_string "c 1e-3 1e-3 0 0\nc 1e-3 1e-3 1e-3 0\n");
  expect_parse_error "negative size" (fun () ->
      Thermal.Flp.of_string "c -1e-3 1e-3 0 0\n");
  expect_parse_error "empty" (fun () -> Thermal.Flp.of_string "# nothing\n")

let test_flp_rejects_3d () =
  let fp = Fp.stack3d ~layers:2 ~rows:1 ~cols:1 ~core_width:1e-3 ~core_height:1e-3 in
  Alcotest.(check bool) "stacked floorplan rejected" true
    (match Thermal.Flp.to_string fp with exception Invalid_argument _ -> true | _ -> false)

let test_flp_model_matches_grid () =
  (* A parsed grid must produce the same compact model as the built one. *)
  let built = Fp.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3 in
  let parsed = Thermal.Flp.of_string (Thermal.Flp.to_string built) in
  let m1 = Thermal.Hotspot.core_level built in
  let m2 = Thermal.Hotspot.core_level parsed in
  let psi = [| 10.; 5.; 10. |] in
  Alcotest.(check bool) "same steady state" true
    (Linalg.Vec.approx_equal ~tol:1e-6
       (Thermal.Model.steady_core_temps m1 psi)
       (Thermal.Model.steady_core_temps m2 psi))

let prop_flp_round_trip =
  QCheck.Test.make ~name:"flp: grid floorplans survive the text format" ~count:60
    QCheck.(
      make
        Gen.(
          let* rows = int_range 1 4 in
          let* cols = int_range 1 4 in
          let* w_mm = float_range 1. 8. in
          let* h_mm = float_range 1. 8. in
          return (rows, cols, w_mm, h_mm)))
    (fun (rows, cols, w_mm, h_mm) ->
      let fp =
        Fp.grid ~rows ~cols ~core_width:(w_mm *. 1e-3) ~core_height:(h_mm *. 1e-3)
      in
      let fp' = Thermal.Flp.of_string (Thermal.Flp.to_string fp) in
      Fp.n_blocks fp = Fp.n_blocks fp'
      && Array.for_all2
           (fun a b ->
             a.Fp.name = b.Fp.name
             && Float.abs (a.Fp.x -. b.Fp.x) < 1e-9
             && Float.abs (a.Fp.width -. b.Fp.width) < 1e-9)
           fp.Fp.blocks fp'.Fp.blocks)

(* --------------------------------------------------------------- ptrace *)

let sample_ptrace = "core0\tcore1\n10.0\t2.0\n2.0 10.0\n"

let test_ptrace_parse () =
  let t = Thermal.Ptrace.of_string sample_ptrace in
  Alcotest.(check int) "columns" 2 (Array.length t.Thermal.Ptrace.names);
  Alcotest.(check int) "rows" 2 (Array.length t.Thermal.Ptrace.samples);
  check_close 1e-12 "cell" 10. t.Thermal.Ptrace.samples.(1).(1)

let test_ptrace_round_trip () =
  let t = Thermal.Ptrace.of_string sample_ptrace in
  let t' = Thermal.Ptrace.of_string (Thermal.Ptrace.to_string t) in
  Alcotest.(check (array (array (float 0.)))) "identical samples"
    t.Thermal.Ptrace.samples t'.Thermal.Ptrace.samples

let test_ptrace_errors () =
  let bad what s =
    Alcotest.(check bool) what true
      (match Thermal.Ptrace.of_string s with
      | exception Thermal.Ptrace.Parse_error _ -> true
      | _ -> false)
  in
  bad "ragged row" "a b\n1.0\n";
  bad "non-numeric" "a\nx\n";
  bad "no body" "a b\n";
  bad "empty" "\n"

let test_ptrace_column_mapping () =
  let t = Thermal.Ptrace.of_string "core1\tcore0\n1.0\t2.0\n" in
  let map = Thermal.Ptrace.columns_for_model t [| "core0"; "core1" |] in
  Alcotest.(check (array int)) "reordered" [| 1; 0 |] map;
  Alcotest.(check bool) "missing unit fails" true
    (match Thermal.Ptrace.columns_for_model t [| "core0"; "coreX" |] with
    | exception Failure _ -> true
    | _ -> false)

let test_ptrace_replay_matches_matex () =
  (* A constant trace replayed long enough converges to the steady state. *)
  let fp = Fp.grid ~rows:1 ~cols:2 ~core_width:4e-3 ~core_height:4e-3 in
  let model = Thermal.Hotspot.core_level fp in
  let rows = Array.make 60 [| 12.; 4. |] in
  let t = { Thermal.Ptrace.names = [| "core_0_0"; "core_0_1" |]; samples = rows } in
  let map = Thermal.Ptrace.columns_for_model t [| "core_0_0"; "core_0_1" |] in
  let trace = Thermal.Ptrace.replay model t ~interval:0.05 ~column_map:map in
  let final = trace.(Array.length trace - 1).Thermal.Trace.core_temps in
  let steady = Thermal.Model.steady_core_temps model [| 12.; 4. |] in
  Alcotest.(check bool) "converged to steady state" true
    (Linalg.Vec.approx_equal ~tol:1e-3 steady final)

(* --------------------------------------------------------- peak_refined *)

let model3 () =
  Thermal.Hotspot.core_level (Fp.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)

let test_peak_refined_at_least_scan () =
  let m = model3 () in
  let rng = Random.State.make [| 21 |] in
  for _ = 1 to 20 do
    let s =
      Workload.Random_sched.arbitrary rng ~n_cores:3 ~period:0.5 ~max_intervals:4
        ~levels:(Power.Vf.table_iv 5)
    in
    let b = Thermal.Backend.of_model m in
    let profile = Sched.Peak.profile b pm s in
    let scan = Sched.Peak.profile_scan_peak b ~samples_per_segment:16 profile in
    let refined = Sched.Peak.profile_refined_peak b ~samples_per_segment:16 profile in
    Alcotest.(check bool) "refined >= scan" true (refined >= scan -. 1e-9)
  done

let test_peak_refined_converges () =
  (* Refinement at coarse sampling must reach what plain scanning needs
     very fine sampling for. *)
  let m = model3 () in
  let seg d v =
    { Thermal.Matex.duration = d; psi = Power.Power_model.psi_vector pm v }
  in
  let profile = [ seg 0.4 [| 1.3; 0.6; 0.6 |]; seg 0.4 [| 0.6; 0.6; 0.6 |] ] in
  let b = Thermal.Backend.of_model m in
  let fine = Sched.Peak.profile_scan_peak b ~samples_per_segment:512 profile in
  let refined = Sched.Peak.profile_refined_peak b ~samples_per_segment:8 profile in
  check_close 1e-3 "coarse+golden = very fine scan" fine refined

let test_peak_of_any_refined_step_up_consistent () =
  let m = model3 () in
  let s =
    Sched.Schedule.two_mode ~period:0.05 ~low:[| 0.6; 0.6; 0.6 |]
      ~high:[| 1.3; 1.3; 1.3 |] ~high_ratio:[| 0.4; 0.5; 0.6 |]
  in
  let cheap = Sched.Peak.of_step_up (Thermal.Backend.of_model m) pm s in
  let refined = Sched.Peak.of_any_refined (Thermal.Backend.of_model m) pm ~samples_per_segment:16 s in
  Alcotest.(check bool) "refined within coupling tolerance of Theorem 1" true
    (refined >= cheap -. 1e-9 && refined <= cheap +. 0.1)

(* ------------------------------------------------------------------ tsp *)

let test_tsp_feasible () =
  List.iter
    (fun cores ->
      let p = Workload.Configs.platform ~cores ~levels:5 ~t_max:55. in
      let r = Core.Tsp.solve p in
      Alcotest.(check bool)
        (Printf.sprintf "TSP stays under T_max (%d cores)" cores)
        true
        (r.Core.Tsp.peak <= 55. +. 1e-6))
    [ 2; 3; 6; 9 ]

let test_tsp_uniform () =
  let p = Workload.Configs.platform ~cores:6 ~levels:5 ~t_max:55. in
  let r = Core.Tsp.solve p in
  Array.iter
    (fun v -> check_close 1e-12 "same mode everywhere" r.Core.Tsp.voltages.(0) v)
    r.Core.Tsp.voltages

let test_tsp_pessimistic_vs_exs () =
  (* TSP budgets for the worst-positioned core, so EXS (which may push
     cooler cores higher) can only match or beat it. *)
  let p = Workload.Configs.platform ~cores:9 ~levels:5 ~t_max:55. in
  let tsp = Core.Tsp.solve p in
  let exs = Core.Exs.solve p in
  Alcotest.(check bool) "EXS >= TSP" true
    (exs.Core.Exs.throughput >= tsp.Core.Tsp.throughput -. 1e-9)

let test_tsp_budget_consistent () =
  (* Running every core exactly at the continuous budget puts the hottest
     core exactly at T_max. *)
  let p = Workload.Configs.platform ~cores:3 ~levels:2 ~t_max:60. in
  let r = Core.Tsp.solve p in
  let n = Core.Platform.n_cores p in
  let temps =
    Thermal.Model.steady_core_temps p.Core.Platform.model
      (Array.make n r.Core.Tsp.power_budget)
  in
  check_close 1e-6 "budget saturates T_max" 60. (Linalg.Vec.max temps)

(* ------------------------------------------------------------- governor *)

let platform3 () = Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:65.

(* The reactive governors run as {!Runtime.Controllers} entries through
   the epoch loop on a dense context: 20 ms control epochs, eight plant
   substeps per epoch, and (optionally) an observer of gain 0.2
   filtering the sensors. *)
let simulate ?(duration = 8.) ?(sensor_noise = 0.) ?(use_observer = false)
    ?(seed = 0) p controller =
  let config =
    {
      Runtime.Loop.default with
      Runtime.Loop.control_interval = 20e-3;
      duration;
      substeps = 8;
      seed;
      sensor_noise;
      observer_gain = (if use_observer then Some 0.2 else None);
    }
  in
  Runtime.Loop.run ~config (Core.Eval.create p) controller

let threshold guard = Runtime.Controllers.threshold ~guard ()

let test_governor_large_guard_safe () =
  let g = simulate (platform3 ()) (threshold 6.) ~duration:4. in
  Alcotest.(check int) "no violations with a wide guard" 0 g.Runtime.Loop.violations;
  Alcotest.(check bool) "does useful work" true (g.Runtime.Loop.throughput > 0.6)

let test_governor_noise_hurts () =
  let guard = 0.5 in
  let clean = simulate (platform3 ()) (threshold guard) ~duration:6. in
  let noisy =
    simulate (platform3 ()) (threshold guard) ~duration:6. ~sensor_noise:2.0
      ~seed:1
  in
  Alcotest.(check bool) "noise increases violations" true
    (noisy.Runtime.Loop.violations >= clean.Runtime.Loop.violations)

let test_governor_static () =
  let p = platform3 () in
  let low = simulate p (Runtime.Controllers.static [| 0; 0; 0 |]) ~duration:4. in
  check_close 1e-2 "all-low throughput ~0.6" 0.6 low.Runtime.Loop.throughput;
  let high = simulate p (Runtime.Controllers.static [| 4; 4; 4 |]) ~duration:4. in
  Alcotest.(check bool) "all-high overheats" true (high.Runtime.Loop.peak > 65.);
  Alcotest.(check bool) "arity checked" true
    (match simulate p (Runtime.Controllers.static [| 0 |]) ~duration:1. with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_governor_pid_tracks_setpoint () =
  let g =
    simulate (platform3 ())
      (Runtime.Controllers.pid ~kp:0.05 ~ki:0.005 ~guard:2. ())
      ~duration:10.
  in
  (* The PI loop must settle somewhere useful: above all-low throughput,
     with a peak in the neighbourhood of the setpoint. *)
  Alcotest.(check bool) "useful throughput" true (g.Runtime.Loop.throughput > 0.7);
  Alcotest.(check bool) "peak near setpoint band" true
    (g.Runtime.Loop.peak > 55. && g.Runtime.Loop.peak < 72.)

let test_governor_observer_reduces_violations () =
  (* Same aggressive guard and noise, with and without observer-based
     filtering: the filtered loop must violate at most as often. *)
  let p = platform3 () in
  let run use_observer =
    simulate p (threshold 0.5) ~duration:8. ~sensor_noise:2.0 ~use_observer
      ~seed:5
  in
  let raw = run false and filtered = run true in
  Alcotest.(check bool)
    (Printf.sprintf "filtered %d <= raw %d violations"
       filtered.Runtime.Loop.violations raw.Runtime.Loop.violations)
    true
    (filtered.Runtime.Loop.violations <= raw.Runtime.Loop.violations);
  Alcotest.(check bool) "filtered loop switches less" true
    (filtered.Runtime.Loop.switches <= raw.Runtime.Loop.switches)

let test_governor_deterministic () =
  let run () =
    simulate (platform3 ()) (threshold 1.) ~duration:3. ~sensor_noise:1. ~seed:9
  in
  let a = run () and b = run () in
  let bits what x y =
    Alcotest.(check int64) what (Int64.bits_of_float x) (Int64.bits_of_float y)
  in
  bits "same throughput" a.Runtime.Loop.throughput b.Runtime.Loop.throughput;
  bits "same peak" a.Runtime.Loop.peak b.Runtime.Loop.peak;
  bits "same mean temperature" a.Runtime.Loop.mean_temp b.Runtime.Loop.mean_temp;
  Alcotest.(check int) "same violations" a.Runtime.Loop.violations
    b.Runtime.Loop.violations;
  Alcotest.(check int) "same switches" a.Runtime.Loop.switches b.Runtime.Loop.switches;
  Alcotest.(check int) "same epochs" a.Runtime.Loop.epochs b.Runtime.Loop.epochs

(* --------------------------------------------------------------- export *)

let test_export_matrix_csv_round_trip () =
  let m = Linalg.Mat.of_rows [| [| 1.5; -2.25 |]; [| 1e-17; 3. |] |] in
  let csv = Thermal.Export.matrix_to_csv m in
  let parsed =
    String.split_on_char '\n' (String.trim csv)
    |> List.map (fun line ->
           String.split_on_char ',' line |> List.map float_of_string |> Array.of_list)
    |> Array.of_list
  in
  Alcotest.(check bool) "exact decimal round trip" true
    (Linalg.Mat.approx_equal ~tol:0. m (Linalg.Mat.of_rows parsed))

let test_export_model_files () =
  let model = model3 () in
  let dir = Filename.temp_file "fosc_export" "" in
  Sys.remove dir;
  let paths = Thermal.Export.write_model ~dir ~prefix:"m3" model in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove paths;
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check int) "three files" 3 (List.length paths);
      List.iter
        (fun p -> Alcotest.(check bool) (p ^ " exists") true (Sys.file_exists p))
        paths;
      (* The response map reproduces a steady solve. *)
      let resp =
        let ic = open_in (List.nth paths 2) in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            In_channel.input_all ic |> String.trim |> String.split_on_char '\n'
            |> List.map (fun l ->
                   String.split_on_char ',' l |> List.map float_of_string
                   |> Array.of_list)
            |> Array.of_list)
      in
      let psi = [| 10.; 5.; 2. |] in
      let reconstructed =
        Array.init 3 (fun j ->
            resp.(0).(j)
            +. (psi.(0) *. resp.(1).(j))
            +. (psi.(1) *. resp.(2).(j))
            +. (psi.(2) *. resp.(3).(j)))
      in
      Alcotest.(check bool) "response map = steady solve" true
        (Linalg.Vec.approx_equal ~tol:1e-9 reconstructed
           (Thermal.Model.steady_core_temps model psi)))

(* --------------------------------------------------------------- sprint *)

let test_sprint_positive_burst () =
  let p = Workload.Configs.platform ~cores:3 ~levels:2 ~t_max:60. in
  let plan = Core.Sprint.plan p in
  Alcotest.(check bool) "finite positive burst" true
    (Float.is_finite plan.Core.Sprint.burst_duration
    && plan.Core.Sprint.burst_duration > 0.);
  Alcotest.(check bool) "sprinting beats steady during the burst" true
    (plan.Core.Sprint.sprint_gain > 0.);
  (* The burst really stays under T_max: simulate it. *)
  let model = p.Core.Platform.model in
  let psi =
    Power.Power_model.psi_vector p.Core.Platform.power plan.Core.Sprint.burst_voltages
  in
  let theta =
    Oracle.Reference.step model ~dt:plan.Core.Sprint.burst_duration
      ~theta:(Linalg.Vec.zeros (Thermal.Model.n_nodes model))
      ~psi
  in
  Alcotest.(check bool) "end-of-burst temperature at the backed-off cap" true
    (Thermal.Model.max_core_temp model theta <= p.Core.Platform.t_max -. 0.5 +. 1e-3)

let test_sprint_longer_with_higher_tmax () =
  let burst t_max =
    (Core.Sprint.plan (Workload.Configs.platform ~cores:3 ~levels:2 ~t_max)).Core.Sprint.burst_duration
  in
  Alcotest.(check bool) "higher cap, longer sprint" true (burst 65. > burst 50.)

let test_sprint_infinite_when_sustainable () =
  (* With a generous cap the all-high assignment is sustainable: no
     finite burst. *)
  let p = Workload.Configs.platform ~cores:2 ~levels:2 ~t_max:75. in
  let plan = Core.Sprint.plan p in
  Alcotest.(check bool) "no throttle needed" true
    (Float.is_finite plan.Core.Sprint.burst_duration = false);
  Alcotest.(check (float 1e-12)) "no sprint gain to speak of" 0.
    plan.Core.Sprint.sprint_gain

(* ------------------------------------------------------------- observer *)

let test_observer_converges_from_wrong_state () =
  (* Plant and observer start apart; with exact measurements the estimate
     must converge to the true backend state, including the components
     the sensors never read directly (use the layered model for its
     passive sink nodes). *)
  let fp = Fp.grid ~rows:1 ~cols:2 ~core_width:4e-3 ~core_height:4e-3 in
  let model = Thermal.Hotspot.layered fp in
  let b = Thermal.Backend.of_model model in
  (* The layered model's heat sink has a multi-second time constant; the
     observer only corrects core readings directly, so give the hidden
     components several sink time constants to converge. *)
  let dt = 0.05 in
  let obs = Runtime.Observer.create b ~dt ~gain:0.6 in
  let psi = [| 15.; 5. |] in
  let truth = ref (b.Thermal.Backend.ambient_state ()) in
  (* Seed the estimate wrong: both core sensors read 8 K hot. *)
  let est = ref (Runtime.Observer.initial obs) in
  b.Thermal.Backend.correct_cores ~state:!est ~deltas:[| 8.; 8. |];
  for _ = 1 to 1200 do
    truth := step_state b ~dt ~state:!truth ~psi;
    let measured = b.Thermal.Backend.core_temps !truth in
    est := Runtime.Observer.update obs ~estimate:!est ~psi ~measured
  done;
  Alcotest.(check bool) "full state recovered (hidden components too)" true
    (Linalg.Vec.dist_inf !truth !est < 0.05)

let test_observer_filters_noise () =
  (* With noisy sensors, the observer's core estimates must track the
     truth more tightly than the raw measurements do. *)
  let fp = Fp.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3 in
  let b = Thermal.Backend.of_model (Thermal.Hotspot.core_level fp) in
  let dt = 0.01 in
  let obs = Runtime.Observer.create b ~dt ~gain:0.25 in
  let rng = Random.State.make [| 12 |] in
  let gaussian sigma =
    let u1 = Float.max 1e-12 (Random.State.float rng 1.) in
    let u2 = Random.State.float rng 1. in
    sigma *. sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)
  in
  let psi = Power.Power_model.psi_vector pm [| 1.3; 0.6; 1.0 |] in
  let truth = ref (b.Thermal.Backend.ambient_state ()) in
  let est = ref (Runtime.Observer.initial obs) in
  let raw_err = ref 0. and obs_err = ref 0. and samples = ref 0 in
  for step = 1 to 600 do
    truth := step_state b ~dt ~state:!truth ~psi;
    let true_temps = b.Thermal.Backend.core_temps !truth in
    let measured = Array.map (fun t -> t +. gaussian 1.5) true_temps in
    est := Runtime.Observer.update obs ~estimate:!est ~psi ~measured;
    if step > 100 then begin
      (* Skip the initial transient, then accumulate RMS errors. *)
      let est_temps = Runtime.Observer.core_estimates obs !est in
      for i = 0 to 2 do
        raw_err := !raw_err +. ((measured.(i) -. true_temps.(i)) ** 2.);
        obs_err := !obs_err +. ((est_temps.(i) -. true_temps.(i)) ** 2.);
        incr samples
      done
    end
  done;
  let rms x = sqrt (x /. float_of_int !samples) in
  Alcotest.(check bool)
    (Printf.sprintf "observer RMS %.3f < raw RMS %.3f" (rms !obs_err) (rms !raw_err))
    true
    (rms !obs_err < 0.7 *. rms !raw_err)

let test_observer_validation () =
  let fp = Fp.grid ~rows:1 ~cols:2 ~core_width:4e-3 ~core_height:4e-3 in
  let b = Thermal.Backend.of_model (Thermal.Hotspot.core_level fp) in
  Alcotest.(check bool) "bad gain rejected" true
    (match Runtime.Observer.create b ~dt:0.01 ~gain:1.5 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let obs = Runtime.Observer.create b ~dt:0.01 in
  Alcotest.(check bool) "measurement arity checked" true
    (match
       Runtime.Observer.update obs ~estimate:(Runtime.Observer.initial obs)
         ~psi:[| 1.; 1. |] ~measured:[| 40. |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* -------------------------------------------------- hotspot scale knobs *)

let test_lateral_scale_zero_decouples () =
  let fp = Fp.grid ~rows:1 ~cols:2 ~core_width:4e-3 ~core_height:4e-3 in
  let m = Thermal.Hotspot.core_level ~lateral_scale:0. fp in
  (* With no coupling, heating core 0 must leave core 1 at its leakage
     floor. *)
  let base = Thermal.Model.steady_core_temps m [| 0.; 0. |] in
  let hot = Thermal.Model.steady_core_temps m [| 20.; 0. |] in
  check_close 1e-9 "neighbour unaffected" base.(1) hot.(1);
  Alcotest.(check bool) "heated core responds" true (hot.(0) > base.(0) +. 10.)

let test_vertical_scale_cools () =
  let fp = Fp.grid ~rows:1 ~cols:2 ~core_width:4e-3 ~core_height:4e-3 in
  let base = Thermal.Hotspot.core_level fp in
  let cooled = Thermal.Hotspot.core_level ~vertical_scale:2. fp in
  let psi = [| 15.; 15. |] in
  Alcotest.(check bool) "doubling the sink path lowers steady temps" true
    (Linalg.Vec.max (Thermal.Model.steady_core_temps cooled psi)
    < Linalg.Vec.max (Thermal.Model.steady_core_temps base psi))

let test_capacitance_scale_slows () =
  let fp = Fp.grid ~rows:1 ~cols:2 ~core_width:4e-3 ~core_height:4e-3 in
  let base = Thermal.Hotspot.core_level fp in
  let heavy = Thermal.Hotspot.core_level ~capacitance_scale:4. fp in
  let tc m = (Thermal.Model.time_constants m).(0) in
  check_close 1e-9 "4x capacitance = 4x slowest time constant" (4. *. tc base) (tc heavy)

let test_theorem1_exact_without_coupling () =
  (* The sensitivity experiment's anchor point: zero lateral coupling
     makes Theorem 1 exact. *)
  let fp = Fp.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3 in
  let m = Thermal.Hotspot.core_level ~lateral_scale:0. fp in
  let rng = Random.State.make [| 31 |] in
  for _ = 1 to 20 do
    let s =
      Workload.Random_sched.step_up rng ~n_cores:3 ~period:0.6 ~max_intervals:4
        ~levels:(Power.Vf.table_iv 5)
    in
    let b = Thermal.Backend.of_model m in
    let profile = Sched.Peak.profile b pm s in
    let end_peak = Sched.Peak.profile_end_peak b profile in
    let true_peak = Sched.Peak.profile_refined_peak b ~samples_per_segment:32 profile in
    Alcotest.(check bool) "no exceedance at zero coupling" true
      (true_peak <= end_peak +. 1e-6)
  done

let () =
  Alcotest.run "extensions"
    [
      ( "flp",
        [
          Alcotest.test_case "parse" `Quick test_flp_parse;
          Alcotest.test_case "round trip" `Quick test_flp_round_trip;
          Alcotest.test_case "errors" `Quick test_flp_errors;
          Alcotest.test_case "rejects 3d" `Quick test_flp_rejects_3d;
          Alcotest.test_case "model equivalence" `Quick test_flp_model_matches_grid;
          QCheck_alcotest.to_alcotest prop_flp_round_trip;
        ] );
      ( "ptrace",
        [
          Alcotest.test_case "parse" `Quick test_ptrace_parse;
          Alcotest.test_case "round trip" `Quick test_ptrace_round_trip;
          Alcotest.test_case "errors" `Quick test_ptrace_errors;
          Alcotest.test_case "column mapping" `Quick test_ptrace_column_mapping;
          Alcotest.test_case "replay converges" `Quick test_ptrace_replay_matches_matex;
        ] );
      ( "peak_refined",
        [
          Alcotest.test_case "at least scan" `Quick test_peak_refined_at_least_scan;
          Alcotest.test_case "converges" `Quick test_peak_refined_converges;
          Alcotest.test_case "step-up consistent" `Quick
            test_peak_of_any_refined_step_up_consistent;
        ] );
      ( "tsp",
        [
          Alcotest.test_case "feasible" `Quick test_tsp_feasible;
          Alcotest.test_case "uniform" `Quick test_tsp_uniform;
          Alcotest.test_case "pessimistic vs EXS" `Quick test_tsp_pessimistic_vs_exs;
          Alcotest.test_case "budget consistency" `Quick test_tsp_budget_consistent;
        ] );
      ( "governor",
        [
          Alcotest.test_case "wide guard safe" `Quick test_governor_large_guard_safe;
          Alcotest.test_case "noise hurts" `Quick test_governor_noise_hurts;
          Alcotest.test_case "static extremes" `Quick test_governor_static;
          Alcotest.test_case "PID tracks" `Quick test_governor_pid_tracks_setpoint;
          Alcotest.test_case "deterministic" `Quick test_governor_deterministic;
          Alcotest.test_case "observer in the loop" `Quick test_governor_observer_reduces_violations;
        ] );
      ( "export",
        [
          Alcotest.test_case "csv round trip" `Quick test_export_matrix_csv_round_trip;
          Alcotest.test_case "model files" `Quick test_export_model_files;
        ] );
      ( "sprint",
        [
          Alcotest.test_case "positive burst" `Quick test_sprint_positive_burst;
          Alcotest.test_case "monotone in t_max" `Quick test_sprint_longer_with_higher_tmax;
          Alcotest.test_case "infinite when sustainable" `Quick test_sprint_infinite_when_sustainable;
        ] );
      ( "observer",
        [
          Alcotest.test_case "converges" `Quick test_observer_converges_from_wrong_state;
          Alcotest.test_case "filters noise" `Quick test_observer_filters_noise;
          Alcotest.test_case "validation" `Quick test_observer_validation;
        ] );
      ( "hotspot scales",
        [
          Alcotest.test_case "lateral zero decouples" `Quick test_lateral_scale_zero_decouples;
          Alcotest.test_case "vertical cools" `Quick test_vertical_scale_cools;
          Alcotest.test_case "capacitance slows" `Quick test_capacitance_scale_slows;
          Alcotest.test_case "Theorem 1 exact uncoupled" `Quick
            test_theorem1_exact_without_coupling;
        ] );
    ]
