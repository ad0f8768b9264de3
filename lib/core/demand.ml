type result = {
  feasible : bool;
  schedule : Sched.Schedule.t;
  m : int;
  m_max : int;
  peak : float;
  margin : float;
  delivered : float array;
}

let solve ?eval ?(base_period = 0.1) ?(m_cap = 512) ?(par = true) (p : Platform.t)
    ~demands =
  let n = Platform.n_cores p in
  if Array.length demands <> n then
    invalid_arg "Demand.solve: demands arity differs from core count";
  let ev = Eval.for_platform eval p in
  let v_hi = Power.Vf.highest p.levels and v_lo = Power.Vf.lowest p.levels in
  Array.iter
    (fun d ->
      if not (0. <= d && d <= v_hi +. 1e-12) then
        invalid_arg "Demand.solve: demand outside [0, v_max]")
    demands;
  (* AO's m-sweep with the demands as target speeds; demands below the
     bottom level are served at the bottom level (over-provisioning). *)
  let sweep =
    Ao.m_sweep ev ~base_period ~m_cap ~par (Array.map (Float.max v_lo) demands)
  in
  let schedule = Tpt.schedule_of_config sweep.Ao.config in
  let peak = Tpt.peak p ~eval:(Eval.dense ev) ~dense:true sweep.config in
  {
    feasible = peak <= p.t_max +. 1e-9;
    schedule;
    m = sweep.m;
    m_max = sweep.m_max;
    peak;
    margin = p.t_max -. peak;
    delivered = Sched.Throughput.per_core ~tau:p.tau schedule;
  }

type Solver.details += Details of result

let policy =
  {
    Solver.name = "demand";
    doc = "Feasibility dual: meet given per-core speed demands under T_max";
    comparison = false;
    solve =
      (fun ev (prm : Solver.params) ->
        Solver.timed_outcome ev (fun () ->
            let p = Eval.platform ev in
            (* Without explicit demands, ask for the ideal continuous
               assignment — the hardest demand vector that is still
               sustainable in principle. *)
            let demands =
              match prm.Solver.demands with
              | Some d -> d
              | None -> (Ideal.solve p).Ideal.voltages
            in
            let r = solve ~eval:ev ~par:prm.Solver.par p ~demands in
            {
              Solver.voltages = Array.copy r.delivered;
              schedule = Some r.schedule;
              throughput =
                Array.fold_left ( +. ) 0. r.delivered
                /. float_of_int (Array.length r.delivered);
              peak = r.peak;
              wall_time = 0.;
              evaluations = 0;
              details = Details r;
            }));
  }
