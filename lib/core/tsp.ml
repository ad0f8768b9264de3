type result = {
  power_budget : float;
  continuous_voltage : float;
  voltages : float array;
  throughput : float;
  peak : float;
}

let solve ?eval (p : Platform.t) =
  let n = Platform.n_cores p in
  (* Steady core temperatures are affine in the uniform power:
     T(p) = offset + slope * p, with slope from a unit uniform load. *)
  let offset = Thermal.Model.steady_core_temps p.model (Array.make n 0.) in
  let with_unit = Thermal.Model.steady_core_temps p.model (Array.make n 1.) in
  let budget = ref infinity in
  for i = 0 to n - 1 do
    let slope = with_unit.(i) -. offset.(i) in
    if slope > 0. then budget := Float.min !budget ((p.t_max -. offset.(i)) /. slope)
  done;
  if !budget < 0. then invalid_arg "Tsp.solve: t_max below the zero-power steady state";
  let continuous_voltage = Power.Power_model.voltage_for_psi p.power !budget in
  let v =
    Power.Vf.round_down p.levels
      (Float.max (Power.Vf.lowest p.levels) continuous_voltage)
  in
  let voltages = Array.make n v in
  {
    power_budget = !budget;
    continuous_voltage;
    voltages;
    throughput = v;
    peak = Eval.steady_peak (Eval.for_platform eval p) voltages;
  }

type Solver.details += Details of result

let policy =
  {
    Solver.name = "tsp";
    doc = "Thermal Safe Power baseline: one worst-case uniform power budget";
    comparison = false;
    solve =
      (fun ev (_ : Solver.params) ->
        Solver.timed_outcome ev (fun () ->
            let r = solve ~eval:ev (Eval.platform ev) in
            {
              Solver.voltages = Array.copy r.voltages;
              schedule = None;
              throughput = r.throughput;
              peak = r.peak;
              wall_time = 0.;
              evaluations = 0;
              details = Details r;
            }));
  }
