(* Proactive (AO) vs reactive (governor-style) thermal management.

     dune exec examples/governor_compare.exe

   The paper's introduction argues that reactive DTM — throttle when a
   sensor crosses a threshold — cannot guarantee the peak-temperature
   constraint and wastes headroom when guard-banded.  This example runs
   the library's reactive controllers (Runtime.Controllers, driven by
   the Runtime.Loop epoch simulator) on the same 3-core thermal model AO
   plans for:

   - a threshold (ondemand-style) governor at several guard bands,
   - the same governor with noisy sensors (the reliability point the
     paper makes about reactive methods),
   - a chip-wide PI controller,
   - and AO, whose schedule holds T_max by construction. *)

let t_max = 65.

let describe name (g : Runtime.Loop.stats) =
  Printf.printf
    "%-34s THR %.4f  peak %.2f C  %4d fine samples above T_max  %4d switches\n" name
    g.Runtime.Loop.throughput g.Runtime.Loop.peak g.Runtime.Loop.violations
    g.Runtime.Loop.switches

(* 20 ms control epochs, 8 s simulated, eight plant substeps per epoch
   to measure the true peak between sensor reads. *)
let simulate ?(sensor_noise = 0.) ?(observer = false) ?(seed = 0) ev controller =
  let config =
    {
      Runtime.Loop.default with
      Runtime.Loop.control_interval = 20e-3;
      duration = 8.;
      substeps = 8;
      seed;
      sensor_noise;
      observer_gain = (if observer then Some 0.2 else None);
    }
  in
  Runtime.Loop.run ~config ev controller

let () =
  let platform = Workload.Configs.platform ~cores:3 ~levels:5 ~t_max in
  let ev = Core.Eval.create platform in
  let threshold guard = Runtime.Controllers.threshold ~guard () in
  Printf.printf "3x1 platform, 5 DVFS levels, T_max = %.0f C, 20 ms control loop\n\n"
    t_max;

  Printf.printf "-- threshold governor, perfect sensors --\n";
  List.iter
    (fun guard ->
      describe
        (Printf.sprintf "threshold (guard %.1f C)" guard)
        (simulate ev (threshold guard)))
    [ 0.5; 2.0; 5.0 ];

  Printf.printf "\n-- threshold governor, 1.5 C sensor noise --\n";
  List.iter
    (fun guard ->
      describe
        (Printf.sprintf "noisy threshold (guard %.1f C)" guard)
        (simulate ev (threshold guard) ~sensor_noise:1.5 ~seed:3))
    [ 0.5; 2.0 ];

  Printf.printf "\n-- noisy sensors, observer-filtered (model-based estimation) --\n";
  List.iter
    (fun guard ->
      describe
        (Printf.sprintf "filtered threshold (guard %.1f C)" guard)
        (simulate ev (threshold guard) ~sensor_noise:1.5 ~observer:true ~seed:3))
    [ 0.5; 2.0 ];

  Printf.printf "\n-- chip-wide PI controller --\n";
  describe "PI (kp 0.05, ki 0.01)"
    (simulate ev (Runtime.Controllers.pid ~kp:0.05 ~ki:0.01 ~guard:1.0 ()));

  Printf.printf "\n-- static extremes (calibration) --\n";
  let n = Core.Platform.n_cores platform in
  let top = Power.Vf.n_levels platform.Core.Platform.levels - 1 in
  describe "static all-low" (simulate ev (Runtime.Controllers.static (Array.make n 0)));
  describe "static all-high" (simulate ev (Runtime.Controllers.static (Array.make n top)));

  let ao = Core.Solver.run (Core.Registry.find_exn "ao") ev in
  Printf.printf
    "\nAO (proactive, this paper):        THR %.4f  peak %.2f C  guaranteed <= T_max\n"
    ao.Core.Solver.throughput ao.Core.Solver.peak;
  Printf.printf
    "\nreactive control either overshoots T_max (small guard, noise) or gives up\n\
     throughput (large guard); AO holds the constraint by construction at the\n\
     throughput of the smallest guard band.\n"
