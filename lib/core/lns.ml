type result = { voltages : float array; throughput : float; peak : float }

let solve ?eval (p : Platform.t) =
  let ideal = Ideal.solve p in
  let voltages = Array.map (Power.Vf.round_down p.levels) ideal.Ideal.voltages in
  let peak = Eval.steady_peak (Eval.for_platform eval p) voltages in
  let throughput =
    Array.fold_left ( +. ) 0. voltages /. float_of_int (Array.length voltages)
  in
  { voltages; throughput; peak }

type Solver.details += Details of result

let policy =
  {
    Solver.name = "lns";
    doc = "Lower-neighbouring-speed baseline: ideal assignment rounded down";
    comparison = true;
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
