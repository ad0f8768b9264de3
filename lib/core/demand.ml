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
      if d < 0. || d > v_hi +. 1e-12 then
        invalid_arg "Demand.solve: demand outside [0, v_max]")
    demands;
  (* Two neighbouring modes per core; demands below the bottom level are
     served at the bottom level (over-provisioning). *)
  let v_low = Array.make n 0. and v_high = Array.make n 0. and ratio = Array.make n 0. in
  for i = 0 to n - 1 do
    let d = Float.max v_lo demands.(i) in
    let lo, hi = Power.Vf.neighbours p.levels d in
    v_low.(i) <- lo;
    v_high.(i) <- hi;
    ratio.(i) <- (if hi -. lo < 1e-12 then 1. else (d -. lo) /. (hi -. lo))
  done;
  let modes =
    Array.init n (fun i -> (v_low.(i), v_high.(i), (1. -. ratio.(i)) *. base_period))
  in
  let m_max = Stdlib.min m_cap (Sched.Oscillate.max_m ~tau:p.tau ~modes) in
  let config_for m =
    let mini = base_period /. float_of_int m in
    let high_time =
      Array.init n (fun i ->
          if v_high.(i) -. v_low.(i) < 1e-12 || ratio.(i) >= 1. -. 1e-12 then mini
          else if ratio.(i) <= 1e-12 then 0.
          else begin
            let d =
              Sched.Oscillate.delta ~tau:p.tau ~v_low:v_low.(i) ~v_high:v_high.(i)
            in
            Float.min mini ((ratio.(i) *. mini) +. d)
          end)
    in
    {
      Tpt.period = mini;
      v_low = Array.copy v_low;
      v_high = Array.copy v_high;
      high_time;
      offset = Array.make n 0.;
    }
  in
  (* Each m's stable-status evaluation is independent: fan the sweep
     across the pool, then reduce in m order exactly as before (ties
     keep the smallest m).  On a screening context the sweep is
     two-tier — ROM scores for everyone, exact solves for the
     near-minimum survivors — and pruned slots come back +inf, which
     the reduction below never selects. *)
  let peaks =
    let eval_m i = Tpt.peak p ~eval:ev (config_for (i + 1)) in
    let pool = Eval.pool ev in
    (* Same work-size gate as the AO m-sweep: small batches stay inline
       on both the screened and the exhaustive branch. *)
    let work = m_max * n * Thermal.Model.n_nodes p.model in
    let par = par && work >= 32768 in
    match Eval.screening ev with
    | Some margin ->
        let rom_m i = Tpt.rom_peak p ~eval:ev (config_for (i + 1)) in
        Screen.select ~pool ~par ~always:[] ~margin ~n:m_max ~rom:rom_m
          ~exact:eval_m ()
    | None ->
        if par then
          Util.Pool.init ~pool ~chunk:(Util.Pool.chunk_hint ~pool m_max) m_max
            eval_m
        else Array.init m_max eval_m
  in
  let best_m = ref 1 and best_peak = ref infinity in
  for m = 1 to m_max do
    if peaks.(m - 1) < !best_peak -. 1e-12 then begin
      best_peak := peaks.(m - 1);
      best_m := m
    end
  done;
  let config = config_for !best_m in
  let schedule = Tpt.schedule_of_config config in
  let peak = Tpt.peak p ~dense:true config in
  {
    feasible = peak <= p.t_max +. 1e-9;
    schedule;
    m = !best_m;
    m_max;
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
