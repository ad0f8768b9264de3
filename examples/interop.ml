(* Toolchain tour: the HotSpot-interop and analysis extensions in one
   pipeline.

     dune exec examples/interop.exe

   1. write a floorplan as a HotSpot .flp and read it back;
   2. generate a synthetic Markov-phased workload as a .ptrace;
   3. replay it through the compact model;
   4. estimate the full thermal state from noisy sensors (observer);
   5. export the model matrices for MATLAB/numpy;
   6. render AO's schedule for the same chip as an SVG Gantt chart.

   Everything lands in a temporary directory printed at the end. *)

let () =
  let dir = Filename.temp_file "fosc_interop" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let in_dir f = Filename.concat dir f in

  (* 1. floorplan round trip. *)
  let fp = Thermal.Floorplan.grid ~rows:2 ~cols:2 ~core_width:4e-3 ~core_height:4e-3 in
  Thermal.Flp.to_file (in_dir "chip.flp") fp;
  let fp = Thermal.Flp.of_file (in_dir "chip.flp") in
  let model = Thermal.Hotspot.core_level fp in
  Printf.printf "floorplan: %d cores via %s\n" (Thermal.Model.n_cores model)
    (in_dir "chip.flp");

  (* 2. synthetic workload -> .ptrace. *)
  let names = Array.map (fun b -> b.Thermal.Floorplan.name) fp.Thermal.Floorplan.blocks in
  let rng = Random.State.make [| 2026 |] in
  let trace =
    Workload.Phases.generate rng ~phases:Workload.Phases.default_phases ~names
      ~duration:4.0 ~dt:0.02 ~power:Power.Power_model.default
      ~levels:(Power.Vf.table_iv 5)
  in
  Thermal.Ptrace.to_file (in_dir "run.ptrace") trace;
  Printf.printf "workload: %d power samples (mean utilization %.2f) -> %s\n"
    (Array.length trace.Thermal.Ptrace.samples)
    (Workload.Phases.mean_utilization Workload.Phases.default_phases)
    (in_dir "run.ptrace");

  (* 3. replay. *)
  let map = Thermal.Ptrace.columns_for_model trace names in
  let temps = Thermal.Ptrace.replay model trace ~interval:0.02 ~column_map:map in
  Printf.printf "replay: peak %.2f C over %.1fs\n" (Thermal.Trace.peak temps) 4.0;

  (* 4. observer vs noisy sensors over the same replay (the observer
     runs on the backend seam, so the same code serves the sparse
     plants). *)
  let b = Thermal.Backend.of_model model in
  let obs = Runtime.Observer.create b ~dt:0.02 ~gain:0.3 in
  let gaussian sigma =
    let u1 = Float.max 1e-12 (Random.State.float rng 1.) in
    sigma *. sqrt (-2. *. Float.log u1)
    *. Float.cos (2. *. Float.pi *. Random.State.float rng 1.)
  in
  let truth = ref (b.Thermal.Backend.ambient_state ()) in
  let next = ref (b.Thermal.Backend.ambient_state ()) in
  let est = ref (Runtime.Observer.initial obs) in
  let raw = ref 0. and filtered = ref 0. and count = ref 0 in
  Array.iter
    (fun row ->
      let psi = Array.map (fun c -> row.(c)) map in
      b.Thermal.Backend.step_into ~dt:0.02 ~state:!truth ~psi ~dst:!next;
      let stepped = !next in
      next := !truth;
      truth := stepped;
      let true_temps = b.Thermal.Backend.core_temps !truth in
      let measured = Array.map (fun t -> t +. gaussian 1.0) true_temps in
      est := Runtime.Observer.update obs ~estimate:!est ~psi ~measured;
      let est_temps = Runtime.Observer.core_estimates obs !est in
      Array.iteri
        (fun i t ->
          raw := !raw +. Float.abs (measured.(i) -. t);
          filtered := !filtered +. Float.abs (est_temps.(i) -. t);
          incr count)
        true_temps)
    trace.Thermal.Ptrace.samples;
  Printf.printf "observer: mean |error| %.3f C filtered vs %.3f C raw sensors\n"
    (!filtered /. float_of_int !count)
    (!raw /. float_of_int !count);

  (* 5. matrix export. *)
  let paths = Thermal.Export.write_model ~dir ~prefix:"chip" model in
  Printf.printf "matrices: %s\n" (String.concat ", " (List.map Filename.basename paths));

  (* 6. AO schedule for the same chip, rendered. *)
  let platform = Core.Platform.make ~levels:(Power.Vf.table_iv 5) ~t_max:60. model in
  let ao = Core.Ao.solve platform in
  Util.Svg_plot.write (in_dir "ao_schedule.svg")
    (Sched.Render.gantt_svg ~title:"AO schedule" ao.Core.Ao.schedule);
  Printf.printf "AO: throughput %.4f at peak %.2f C; gantt -> %s\n"
    ao.Core.Ao.throughput ao.Core.Ao.peak (in_dir "ao_schedule.svg");
  Printf.printf "\nall artifacts in %s\n" dir
