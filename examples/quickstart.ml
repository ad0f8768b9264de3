(* Quickstart: build a temperature-constrained multi-core platform, run
   the paper's AO policy, and inspect the resulting schedule.

     dune exec examples/quickstart.exe

   The flow below is the library's intended API surface:
   1. describe the hardware (a 3x3 grid of 4x4 mm^2 cores);
   2. wrap it in a Platform with a DVFS level set and a T_max;
   3. ask a policy for a schedule;
   4. double-check the schedule against the thermal model. *)

let () =
  (* 1. Hardware: floorplan -> HotSpot-style compact thermal model. *)
  let floorplan =
    Thermal.Floorplan.grid ~rows:3 ~cols:3 ~core_width:4e-3 ~core_height:4e-3
  in
  let model = Thermal.Hotspot.core_level floorplan in
  Printf.printf "thermal model: %d nodes, time constants %s s\n"
    (Thermal.Model.n_nodes model)
    (String.concat ", "
       (Array.to_list
          (Array.map (Printf.sprintf "%.2g") (Thermal.Model.time_constants model))));

  (* 2. The problem instance: two DVFS modes, 60 C peak-temperature cap,
     5 us transition stall. *)
  let platform =
    Core.Platform.make ~levels:(Power.Vf.table_iv 2) ~t_max:60. model
  in
  assert (Core.Platform.feasible platform);

  (* 3. Policies.  LNS and EXS are the baselines; AO is the paper's
     frequency-oscillation algorithm. *)
  let lns = Core.Lns.solve platform in
  let exs = Core.Exs.solve platform in
  let ao = Core.Ao.solve platform in
  Printf.printf "\nLNS throughput: %.4f (peak %.2f C)\n" lns.Core.Lns.throughput
    lns.Core.Lns.peak;
  Printf.printf "EXS throughput: %.4f (peak %.2f C, %d combinations)\n"
    exs.Core.Exs.throughput exs.Core.Exs.peak exs.Core.Exs.evaluated;
  Printf.printf "AO  throughput: %.4f (peak %.2f C, m = %d of %d allowed)\n"
    ao.Core.Ao.throughput ao.Core.Ao.peak ao.Core.Ao.m ao.Core.Ao.m_max;
  Printf.printf "AO improvement over EXS: %+.1f%%\n"
    ((ao.Core.Ao.throughput -. exs.Core.Exs.throughput)
    /. exs.Core.Exs.throughput *. 100.);

  (* 4. Trust but verify: re-evaluate AO's schedule with the dense
     scanner on the full thermal model. *)
  Printf.printf "\nAO mini-period schedule (%.2f ms):\n"
    (Sched.Schedule.period ao.Core.Ao.schedule *. 1e3);
  Format.printf "%a" Sched.Schedule.pp ao.Core.Ao.schedule;
  let verified =
    Sched.Peak.of_any
      (Thermal.Backend.of_model platform.Core.Platform.model)
      platform.Core.Platform.power
      ~samples_per_segment:64 ao.Core.Ao.schedule
  in
  Printf.printf "dense-scan peak of AO's schedule: %.2f C (T_max = %.0f C)\n" verified
    platform.Core.Platform.t_max;

  (* 5. Bonus: render the schedule as an SVG Gantt chart, and see how
     long the chip could sprint at full speed from a cold start. *)
  let svg_path = Filename.concat (Filename.get_temp_dir_name ()) "ao_schedule.svg" in
  Util.Svg_plot.write svg_path
    (Sched.Render.gantt_svg ~title:"AO 9-core schedule" ao.Core.Ao.schedule);
  Printf.printf "schedule rendered to %s\n" svg_path;
  let sprint = Core.Sprint.plan platform in
  Printf.printf "cold-start sprint at 1.3V: %.2fs before hitting T_max (%.2f extra work/core)\n"
    sprint.Core.Sprint.burst_duration sprint.Core.Sprint.sprint_gain
