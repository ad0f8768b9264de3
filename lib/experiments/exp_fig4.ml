type result = {
  schedule : Sched.Schedule.t;
  warmup : Thermal.Trace.sample array;
  stable : (float * Linalg.Vec.t) array;
  periods_to_stable : int;
  peak : float;
  end_of_period_peak : float;
}

let run ?(seed = 42) () =
  let model =
    Thermal.Hotspot.core_level
      (Thermal.Floorplan.grid ~rows:2 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)
  in
  let pm = Power.Power_model.default in
  let rng = Random.State.make [| seed |] in
  let schedule =
    Workload.Random_sched.step_up rng ~n_cores:6 ~period:1.0 ~max_intervals:3
      ~levels:(Power.Vf.table_iv 5)
  in
  let b = Thermal.Backend.of_model model in
  let profile = Sched.Peak.profile b pm schedule in
  let periods_to_stable = Thermal.Trace.periods_to_stable model ~tol:1e-4 profile in
  let warmup =
    Thermal.Trace.from_ambient model
      ~periods:(Stdlib.min 12 (periods_to_stable + 3))
      ~samples_per_segment:16 profile
  in
  let stable = Thermal.Matex.stable_core_trace model ~samples_per_segment:16 profile in
  {
    schedule;
    warmup;
    stable;
    periods_to_stable;
    peak = Sched.Peak.of_any b pm ~samples_per_segment:48 schedule;
    end_of_period_peak = Sched.Peak.of_step_up b pm schedule;
  }

let print r =
  Exp_common.section "Fig. 4 - step-up schedule temperature trace (3x2 = 6 cores, 1s period)";
  Printf.printf "schedule:\n";
  Format.printf "%a" Sched.Schedule.pp r.schedule;
  Printf.printf "periods from ambient to stable status: %d\n" r.periods_to_stable;
  Printf.printf "stable-status peak (dense scan):  %.2f C\n" r.peak;
  Printf.printf "temperature at period end:        %.2f C\n" r.end_of_period_peak;
  Printf.printf "peak occurs at the period end (Theorem 1, within tolerance): %b\n"
    (r.peak <= r.end_of_period_peak +. 0.5);
  (* A compact rendering of Fig. 4(a): max core temp at each period end. *)
  let period = Sched.Schedule.period r.schedule in
  Printf.printf "warm-up (hottest core at each period boundary):\n";
  Array.iter
    (fun s ->
      let k = s.Thermal.Trace.time /. period in
      if Float.abs (k -. Float.round k) < 1e-9 then
        Printf.printf "  t = %4.1fs: %.2f C\n" s.Thermal.Trace.time
          (Linalg.Vec.max s.Thermal.Trace.core_temps))
    r.warmup

let to_csv ~warmup_path ~stable_path r =
  let model_cores = Linalg.Vec.dim (snd r.stable.(0)) in
  let header = "time" :: List.init model_cores (Printf.sprintf "core%d") in
  Util.Csv.write warmup_path ~header
    (Array.to_list
       (Array.map
          (fun s -> s.Thermal.Trace.time :: Array.to_list s.Thermal.Trace.core_temps)
          r.warmup));
  Util.Csv.write stable_path ~header
    (Array.to_list (Array.map (fun (t, temps) -> t :: Array.to_list temps) r.stable))
