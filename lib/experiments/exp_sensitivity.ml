type point = {
  lateral_scale : float;
  worst_violation : float;
  mean_violation : float;
}

type result = { points : point list; schedules_per_point : int }

let run ?(schedules = 40) ?(seed = 5) () =
  let fp = Thermal.Floorplan.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3 in
  let pm = Power.Power_model.default in
  let levels = Power.Vf.table_iv 5 in
  let points =
    Util.Pool.map
      (fun lateral_scale ->
        let b = Thermal.Backend.of_model (Thermal.Hotspot.core_level ~lateral_scale fp) in
        let violations =
          Array.init schedules (fun k ->
              let rng = Random.State.make [| seed; k |] in
              let s =
                Workload.Random_sched.step_up rng ~n_cores:3 ~period:0.6
                  ~max_intervals:4 ~levels
              in
              let end_peak = Sched.Peak.of_step_up b pm s in
              let true_peak = Sched.Peak.of_any_refined b pm ~samples_per_segment:48 s in
              Float.max 0. (true_peak -. end_peak))
        in
        {
          lateral_scale;
          worst_violation = Array.fold_left Float.max 0. violations;
          mean_violation = Util.Stats.mean violations;
        })
      [ 0.; 0.5; 1.; 2.; 4. ]
  in
  { points; schedules_per_point = schedules }

let print r =
  Exp_common.section
    "Sensitivity - Theorem 1 exceedance vs lateral coupling strength";
  Printf.printf "(%d random 3-core step-up schedules per point)\n" r.schedules_per_point;
  let t = Util.Table.create [ "lateral scale"; "worst exceedance C"; "mean C" ] in
  List.iter
    (fun p ->
      Util.Table.add_float_row t
        ~label:(Printf.sprintf "%.1fx" p.lateral_scale)
        [ p.worst_violation; p.mean_violation ])
    r.points;
  Util.Table.print t;
  let zero = List.hd r.points in
  Printf.printf
    "at zero coupling Theorem 1 is exact (worst %.2e C); the exceedance is a\n\
     coupling artefact, not a numerical one.\n"
    zero.worst_violation

let to_csv path r =
  Util.Csv.write path
    ~header:[ "lateral_scale"; "worst_violation"; "mean_violation" ]
    (List.map (fun p -> [ p.lateral_scale; p.worst_violation; p.mean_violation ]) r.points)
