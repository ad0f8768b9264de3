(* The paper's Section III motivation example, step by step.

     dune exec examples/motivation.exe

   A 3-core processor with T_max = 65 C and only two running modes
   (0.6 V and 1.3 V).  The walk-through shows why oscillating between
   two modes beats every constant assignment: it is easier to tune an
   interval LENGTH than a voltage LEVEL. *)

let () =
  let platform = Workload.Configs.platform ~cores:3 ~levels:2 ~t_max:65. in
  let model = platform.Core.Platform.model in
  let pm = platform.Core.Platform.power in

  Printf.printf "Step 1 - the continuous ideal.\n";
  let ideal = Core.Ideal.solve platform in
  Printf.printf
    "  pinning every core's steady temperature at 65 C allows voltages [%s]\n"
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%.4f") ideal.Core.Ideal.voltages)));
  Printf.printf "  chip throughput %.4f  (paper: 1.1972 with [1.2085; 1.1748; 1.2085])\n"
    ideal.Core.Ideal.throughput;
  Printf.printf "  note the middle core runs slower: its neighbours heat it.\n\n";

  Printf.printf "Step 2 - but only 0.6 V and 1.3 V exist.\n";
  let lns = Core.Lns.solve platform in
  Printf.printf "  LNS rounds everything down to 0.6 V: throughput %.4f.\n"
    lns.Core.Lns.throughput;
  let exs = Core.Exs.solve platform in
  Printf.printf "  EXS searches all %d assignments: best [%s], throughput %.4f.\n"
    exs.Core.Exs.evaluated
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%.1f") exs.Core.Exs.voltages)))
    exs.Core.Exs.throughput;
  Printf.printf "  neither can use the %.1f C of headroom EXS leaves (peak %.2f C).\n\n"
    (65. -. exs.Core.Exs.peak) exs.Core.Exs.peak;

  Printf.printf "Step 3 - oscillate between the two modes instead.\n";
  let ratio =
    Array.map (fun v -> (v -. 0.6) /. (1.3 -. 0.6)) ideal.Core.Ideal.voltages
  in
  Printf.printf "  high-mode ratios preserving the ideal work: [%s] (Table II)\n"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.4f") ratio)));
  let naive =
    Sched.Schedule.two_mode ~period:0.02 ~low:(Array.make 3 0.6)
      ~high:(Array.make 3 1.3) ~high_ratio:ratio
  in
  let naive_peak = Sched.Peak.of_step_up (Thermal.Backend.of_model model) pm naive in
  Printf.printf
    "  run naively with a 20 ms period this peaks at %.2f C - violates 65 C\n"
    naive_peak;
  Printf.printf "  (paper: 79.69 C).  The ratios must come down (Table III),\n";
  Printf.printf "  and oscillating FASTER (m-Oscillating) lets them stay higher:\n\n";

  let ao = Core.Ao.solve platform in
  Printf.printf "Step 4 - AO (Algorithm 2) does all of this automatically:\n";
  Printf.printf "  m = %d oscillations, throughput %.4f, peak %.2f C <= 65 C\n"
    ao.Core.Ao.m ao.Core.Ao.throughput ao.Core.Ao.peak;
  Printf.printf "  improvement over LNS: %+.1f%%  (paper: +45.4%% for its Table III point)\n"
    ((ao.Core.Ao.throughput -. lns.Core.Lns.throughput)
    /. lns.Core.Lns.throughput *. 100.);
  Printf.printf "  improvement over EXS: %+.1f%%\n"
    ((ao.Core.Ao.throughput -. exs.Core.Exs.throughput)
    /. exs.Core.Exs.throughput *. 100.)
