type result = {
  step : float;
  peaks : (float * float * float) list;
  max_peak : float;
  max_at : float * float;
  min_peak : float;
  min_at : float * float;
  step_up_bound : float;
}

let period = 6.
let half = 3.

let run ?(step = 0.6) () =
  let model =
    Thermal.Hotspot.core_level
      (Thermal.Floorplan.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)
  in
  let pm = Power.Power_model.default in
  let b = Thermal.Backend.of_model model in
  let peak_of offsets =
    let s =
      Workload.Random_sched.phase_grid ~n_cores:3 ~period ~v_low:0.6 ~v_high:1.3
        ~offsets
    in
    Sched.Peak.of_any b pm ~samples_per_segment:24 s
  in
  let points = int_of_float (Float.round (period /. step)) in
  let peaks = ref [] in
  for i = 0 to points - 1 do
    for j = 0 to points - 1 do
      let x2 = float_of_int i *. step and x3 = float_of_int j *. step in
      peaks := (x2, x3, peak_of [| half; x2; x3 |]) :: !peaks
    done
  done;
  let peaks = List.rev !peaks in
  let max_peak, max_at =
    List.fold_left
      (fun (best, at) (x2, x3, p) -> if p > best then (p, (x2, x3)) else (best, at))
      (neg_infinity, (0., 0.))
      peaks
  in
  let min_peak, min_at =
    List.fold_left
      (fun (best, at) (x2, x3, p) -> if p < best then (p, (x2, x3)) else (best, at))
      (infinity, (0., 0.))
      peaks
  in
  (* The aligned schedule IS the step-up ordering of every member of the
     family (all lows first, all highs last). *)
  let aligned =
    Workload.Random_sched.phase_grid ~n_cores:3 ~period ~v_low:0.6 ~v_high:1.3
      ~offsets:[| half; half; half |]
  in
  let step_up_bound = Sched.Peak.of_step_up b pm (Sched.Stepup.reorder aligned) in
  { step; peaks; max_peak; max_at; min_peak; min_at; step_up_bound }

let print r =
  Exp_common.section "Fig. 3 - step-up schedule bounds phase-shifted schedules (3x1, 6s period)";
  Printf.printf "swept %d schedules at %.1fs resolution\n" (List.length r.peaks) r.step;
  Printf.printf "max peak: %.2f C at x2 = %.1fs, x3 = %.1fs  (paper: 84.13 C at 3.0, 3.0)\n"
    r.max_peak (fst r.max_at) (snd r.max_at);
  Printf.printf "min peak: %.2f C at x2 = %.1fs, x3 = %.1fs  (paper: 71.22 C at 0.6, 4.2)\n"
    r.min_peak (fst r.min_at) (snd r.min_at);
  Printf.printf "step-up bound (end of period): %.2f C\n" r.step_up_bound;
  Printf.printf "bound holds for the whole family (within coupling tolerance): %b\n"
    (r.max_peak <= r.step_up_bound +. 0.5)

let to_csv path r =
  Util.Csv.write path ~header:[ "x2"; "x3"; "peak" ]
    (List.map (fun (x2, x3, p) -> [ x2; x3; p ]) r.peaks)
