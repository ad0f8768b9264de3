(* Tests for the epoch-driven closed-loop runtime: the controller
   registry, the Loop simulator against both thermal plants, observer
   properties under noise, cross-pool-size determinism, and
   offline-replay parity against the exact stable-status evaluator. *)

let check_close tol = Alcotest.(check (float tol))
let platform3 () = Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:65.

(* ------------------------------------------------- controller registry *)

let test_registry_names () =
  let names = Runtime.Controllers.names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [ "threshold"; "pid"; "integral"; "tsp"; "offline-ao"; "rh-ao" ];
  Alcotest.(check bool) "find hit" true
    (Option.is_some (Runtime.Controllers.find "threshold"));
  Alcotest.(check bool) "find miss" true
    (Option.is_none (Runtime.Controllers.find "nonesuch"));
  Alcotest.(check bool) "find_exn names the known set" true
    (match Runtime.Controllers.find_exn "nonesuch" with
    | exception Invalid_argument msg ->
        (* The error must list at least one real controller. *)
        let has sub =
          let nl = String.length msg and sl = String.length sub in
          let rec at i = i + sl <= nl && (String.sub msg i sl = sub || at (i + 1)) in
          at 0
        in
        has "threshold"
    | _ -> false)

let test_static_validation () =
  (* Arity and range surface as clear [Invalid_argument]s at controller
     init, not as [Array] bounds errors mid-run. *)
  let ev = Core.Eval.create ~cache_size:0 (platform3 ()) in
  let config = { Runtime.Loop.default with Runtime.Loop.duration = 0.1 } in
  Alcotest.check_raises "arity validated"
    (Invalid_argument "Controllers.static: 1 level indices for 3 cores")
    (fun () ->
      ignore (Runtime.Loop.run ~config ev (Runtime.Controllers.static [| 0 |])));
  Alcotest.check_raises "range validated"
    (Invalid_argument "Controllers.static: level index 9 outside 0..4")
    (fun () ->
      ignore
        (Runtime.Loop.run ~config ev (Runtime.Controllers.static [| 0; 9; 0 |])))

(* Every range check is written so that NaN fails it: a NaN or infinite
   knob must raise, not run to a peak of -inf or a NaN throughput.  No
   infinite duration here: it would ask for an unbounded epoch count if
   it ever got past validation. *)
let test_loop_config_validation () =
  let ev = Core.Eval.create ~cache_size:0 (platform3 ()) in
  let base = { Runtime.Loop.default with Runtime.Loop.duration = 0.1 } in
  let raises what f =
    Alcotest.(check bool) (what ^ " rejected") true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  let run config () =
    ignore (Runtime.Loop.run ~config ev (Runtime.Controllers.static [| 0; 0; 0 |]))
  in
  raises "NaN control interval" (run { base with control_interval = nan });
  raises "infinite control interval" (run { base with control_interval = infinity });
  raises "NaN duration" (run { base with duration = nan });
  raises "epoch count past int range" (run { base with duration = 1e30 });
  raises "NaN sensor noise" (run { base with sensor_noise = nan });
  raises "infinite sensor noise" (run { base with sensor_noise = infinity });
  raises "NaN sensor quantization" (run { base with sensor_quant = nan });
  raises "NaN power noise" (run { base with power_noise = nan });
  raises "NaN observer gain" (run { base with observer_gain = Some nan });
  let b = Core.Eval.backend ev in
  raises "observer NaN gain" (fun () -> ignore (Runtime.Observer.create ~gain:nan b ~dt:0.01));
  raises "observer NaN dt" (fun () -> ignore (Runtime.Observer.create b ~dt:nan));
  raises "observer infinite dt" (fun () -> ignore (Runtime.Observer.create b ~dt:infinity));
  let psi = Array.make 3 1. in
  List.iter
    (fun (b : Thermal.Backend.t) ->
      let state = b.Thermal.Backend.ambient_state () in
      let dst = b.Thermal.Backend.ambient_state () in
      List.iter
        (fun dt ->
          raises
            (Printf.sprintf "%s step_into dt %g" b.Thermal.Backend.name dt)
            (fun () -> b.Thermal.Backend.step_into ~dt ~state ~psi ~dst))
        [ nan; infinity; -1. ];
      (* The ping-pong contract: [dst] must be a buffer distinct from
         [state] on either backend. *)
      raises
        (b.Thermal.Backend.name ^ " step_into aliased dst")
        (fun () -> b.Thermal.Backend.step_into ~dt:0.01 ~state ~psi ~dst:state))
    [ b; Core.Eval.backend (Core.Eval.create ~backend:Core.Eval.Sparse (platform3 ())) ]

let test_all_controllers_both_backends () =
  (* Every registered controller must complete a (short) run on the
     dense modal plant AND the sparse Krylov plant — the acceptance bar
     for the backend-generic loop. *)
  List.iter
    (fun backend ->
      let ev = Core.Eval.create ~backend (platform3 ()) in
      let bname = (Core.Eval.backend ev).Thermal.Backend.name in
      let config =
        { Runtime.Loop.default with Runtime.Loop.duration = 0.2; substeps = 2 }
      in
      List.iter
        (fun (c : Runtime.Controller.t) ->
          let s = Runtime.Loop.run ~config ev c in
          let label = c.Runtime.Controller.name ^ " on " ^ bname in
          Alcotest.(check int) (label ^ ": epochs") 10 s.Runtime.Loop.epochs;
          Alcotest.(check bool) (label ^ ": works") true
            (s.Runtime.Loop.throughput > 0.);
          Alcotest.(check bool) (label ^ ": plausible peak") true
            (s.Runtime.Loop.peak > 20. && s.Runtime.Loop.peak < 100.))
        (Runtime.Controllers.all ()))
    [ Core.Eval.Dense; Core.Eval.Sparse ]

(* ---------------------------------------------------------- determinism *)

let test_seed_determinism_across_pool_sizes () =
  (* One noisy, phased scenario; every registered controller must produce
     bit-identical stats whether the eval's pool has 1 participant or 4.
     Controllers carry mutable state once initialized, so each run takes
     a fresh registry. *)
  let p = platform3 () in
  let config =
    {
      Runtime.Loop.default with
      Runtime.Loop.duration = 1.0;
      sensor_noise = 0.8;
      power_noise = 0.05;
      phases = Some Workload.Phases.default_phases;
      observer_gain = Some 0.3;
      seed = 7;
    }
  in
  let run pool_size =
    let ev = Core.Eval.create ~pool:(Util.Pool.create ~size:pool_size ()) p in
    List.map
      (fun (c : Runtime.Controller.t) -> Runtime.Loop.run ~config ev c)
      (Runtime.Controllers.all ())
  in
  Alcotest.(check bool) "pool size 1 = pool size 4" true (run 1 = run 4)

(* ------------------------------------------------------------- observer *)

(* One exact step of [state] into a fresh buffer. *)
let step_state (b : Thermal.Backend.t) ~dt ~state ~psi =
  let dst = b.Thermal.Backend.ambient_state () in
  b.Thermal.Backend.step_into ~dt ~state ~psi ~dst;
  dst

let obs_platform = platform3 ()
let obs_backend = Thermal.Backend.of_model obs_platform.Core.Platform.model

let prop_observer_filters_and_update_parity =
  (* For any gain and noise seed: (a) the observer's core estimates track
     the truth at least as tightly as the raw noisy sensors on average,
     and (b) the allocating [update] and in-place [update_into] paths are
     bit-identical. *)
  QCheck.Test.make ~name:"observer filters noise; update = update_into"
    ~count:25
    QCheck.(pair (make Gen.(float_range 0.1 0.7)) (make Gen.(int_range 0 10_000)))
    (fun (gain, seed) ->
      let p = obs_platform in
      let b = obs_backend in
      let dt = 0.01 in
      let obs = Runtime.Observer.create ~gain b ~dt in
      let rng = Random.State.make [| seed |] in
      let gaussian sigma =
        let u1 = Float.max 1e-12 (Random.State.float rng 1.) in
        sigma
        *. sqrt (-2. *. Float.log u1)
        *. Float.cos (2. *. Float.pi *. Random.State.float rng 1.)
      in
      let psi =
        Power.Power_model.psi_vector p.Core.Platform.power [| 1.3; 0.6; 1.0 |]
      in
      let truth = ref (b.Thermal.Backend.ambient_state ()) in
      let est = ref (Runtime.Observer.initial obs) in
      let est' = Linalg.Vec.copy !est in
      let raw_err = ref 0. and obs_err = ref 0. and parity = ref true in
      for step = 1 to 400 do
        truth := step_state b ~dt ~state:!truth ~psi;
        let true_temps = b.Thermal.Backend.core_temps !truth in
        let measured = Array.map (fun t -> t +. gaussian 1.5) true_temps in
        est := Runtime.Observer.update obs ~estimate:!est ~psi ~measured;
        Runtime.Observer.update_into obs ~estimate:est' ~psi ~measured;
        parity := !parity && Float.equal (Linalg.Vec.dist_inf !est est') 0.;
        if step > 100 then begin
          let est_temps = Runtime.Observer.core_estimates obs !est in
          for i = 0 to 2 do
            raw_err := !raw_err +. Float.abs (measured.(i) -. true_temps.(i));
            obs_err := !obs_err +. Float.abs (est_temps.(i) -. true_temps.(i))
          done
        end
      done;
      !parity && !obs_err <= !raw_err)

let test_observer_converges_noise_free () =
  (* Seeded 8 K hot through the restart hook, an exact-sensor observer
     must pull its core estimates back onto the truth. *)
  let p = obs_platform in
  let b = obs_backend in
  let dt = 0.02 in
  let obs = Runtime.Observer.create ~gain:0.5 b ~dt in
  let psi = Power.Power_model.psi_vector p.Core.Platform.power [| 1.0; 1.0; 1.0 |] in
  let truth = ref (b.Thermal.Backend.ambient_state ()) in
  let est = ref (Runtime.Observer.initial obs) in
  b.Thermal.Backend.correct_cores ~state:!est ~deltas:[| 8.; 8.; 8. |];
  for _ = 1 to 100 do
    truth := step_state b ~dt ~state:!truth ~psi;
    let measured = b.Thermal.Backend.core_temps !truth in
    Runtime.Observer.update_into obs ~estimate:!est ~psi ~measured
  done;
  let t = b.Thermal.Backend.core_temps !truth
  and e = Runtime.Observer.core_estimates obs !est in
  for i = 0 to 2 do
    check_close 0.05
      (Printf.sprintf "core %d estimate converged" i)
      t.(i) e.(i)
  done

(* ------------------------------------------------ offline-replay parity *)

let offline_parity backend () =
  (* A two-mode schedule whose switch points sit exactly on the control
     grid (ratios are multiples of 1/25, interval = period/25) replayed
     through the loop must reproduce the stable-status peak the offline
     evaluator predicts — on the dense AND the sparse plant. *)
  let p = platform3 () in
  let ev = Core.Eval.create ~backend p in
  let period = 0.5 in
  let low = [| 0.8; 0.8; 0.8 |] and high = [| 1.3; 1.2; 1.3 |] in
  let high_ratio = [| 0.4; 0.52; 0.6 |] in
  let s = Sched.Schedule.two_mode ~period ~low ~high ~high_ratio in
  let predicted = Core.Eval.two_mode_peak ev ~period ~low ~high ~high_ratio in
  let config =
    {
      Runtime.Loop.default with
      Runtime.Loop.control_interval = period /. 25.;
      duration = 12.;
    }
  in
  let stats = Runtime.Loop.run ~config ev (Runtime.Controllers.offline_schedule s) in
  check_close 0.8 "replayed peak = predicted stable-status peak" predicted
    stats.Runtime.Loop.peak;
  Alcotest.(check bool) "replay switches as scheduled" true
    (stats.Runtime.Loop.switches > 0)

let () =
  Alcotest.run "runtime"
    [
      ( "registry",
        [
          Alcotest.test_case "names and lookup" `Quick test_registry_names;
          Alcotest.test_case "static validation" `Quick test_static_validation;
          Alcotest.test_case "loop config validation" `Quick test_loop_config_validation;
          Alcotest.test_case "all controllers, both backends" `Slow
            test_all_controllers_both_backends;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seed-deterministic at pool sizes 1 and 4" `Slow
            test_seed_determinism_across_pool_sizes;
        ] );
      ( "observer",
        Alcotest.test_case "noise-free convergence" `Quick
          test_observer_converges_noise_free
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_observer_filters_and_update_parity ] );
      ( "offline parity",
        [
          Alcotest.test_case "dense plant" `Slow (offline_parity Core.Eval.Dense);
          Alcotest.test_case "sparse plant" `Slow
            (offline_parity Core.Eval.Sparse);
        ] );
    ]
