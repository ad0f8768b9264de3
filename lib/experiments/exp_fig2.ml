type result = {
  base_peak : float;
  single_core_doubled_peak : float;
  both_doubled_peak : float;
}

let run () =
  let model =
    Thermal.Hotspot.core_level
      (Thermal.Floorplan.grid ~rows:1 ~cols:2 ~core_width:4e-3 ~core_height:4e-3)
  in
  let pm = Power.Power_model.default in
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
  let b = Thermal.Backend.of_model model in
  let peak s = Sched.Peak.of_any b pm ~samples_per_segment:64 s in
  {
    base_peak = peak base;
    single_core_doubled_peak = peak single;
    both_doubled_peak = peak (Sched.Oscillate.oscillate 2 base);
  }

let print r =
  Exp_common.section "Fig. 2 - single-core oscillation counterexample (2x1, 100ms period)";
  Printf.printf "base schedule peak:                 %.2f C  (paper: 53.3 C)\n" r.base_peak;
  Printf.printf "core-1-only frequency doubled peak: %.2f C  (paper: 54.6 C - HIGHER)\n"
    r.single_core_doubled_peak;
  Printf.printf "both cores doubled (m = 2) peak:    %.2f C  (Theorem 5: lower)\n"
    r.both_doubled_peak;
  Printf.printf "single-core oscillation raised the peak: %b\n"
    (r.single_core_doubled_peak >= r.base_peak -. 1e-6)
