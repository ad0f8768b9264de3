let log_src = Logs.Src.create "fosc.ao" ~doc:"AO (Algorithm 2) solver"

module Log = (val Logs.src_log log_src)

type result = {
  config : Tpt.config;
  schedule : Sched.Schedule.t;
  m : int;
  m_max : int;
  throughput : float;
  peak : float;
  ideal : Ideal.result;
  adjustment_steps : int;
}

type sweep = { config : Tpt.config; m : int; m_max : int; peak : float }

let m_sweep ev ~base_period ~m_cap ~par speeds =
  let p = Eval.platform ev in
  let n = Platform.n_cores p in
  (* Neighbouring modes and the throughput-preserving ratio of Eq. (11). *)
  let v_low = Array.make n 0. and v_high = Array.make n 0. and ratio = Array.make n 0. in
  for i = 0 to n - 1 do
    let lo, hi = Power.Vf.neighbours p.levels speeds.(i) in
    v_low.(i) <- lo;
    v_high.(i) <- hi;
    ratio.(i) <- (if hi -. lo < 1e-12 then 1. else (speeds.(i) -. lo) /. (hi -. lo))
  done;
  (* Transition-overhead bound M = min_i floor(t_iL / (delta_i + tau)). *)
  let modes =
    Array.init n (fun i -> (v_low.(i), v_high.(i), (1. -. ratio.(i)) *. base_period))
  in
  let m_max = Stdlib.min m_cap (Sched.Oscillate.max_m ~tau:p.tau ~modes) in
  (* The per-core ramp repayment delta_i — loop-invariant across the
     sweep, so computed once.  Cores whose speed coincides with a level
     run constant and incur no overhead. *)
  let deltas =
    Array.init n (fun i ->
        if v_high.(i) -. v_low.(i) < 1e-12 then 0.
        else Sched.Oscillate.delta ~tau:p.tau ~v_low:v_low.(i) ~v_high:v_high.(i))
  in
  (* Core i's high time in the mini-period [mini]: r_H * mini extended by
     delta_i to repay the two transition stalls (Section V).  A constant
     core is encoded as all-high at v_high = v_low. *)
  let high_time ~mini i =
    if v_high.(i) -. v_low.(i) < 1e-12 then mini
    else if ratio.(i) >= 1. -. 1e-12 then mini
    else if ratio.(i) <= 1e-12 then 0.
    else Float.min mini ((ratio.(i) *. mini) +. deltas.(i))
  in
  (* Price oscillation count [i + 1] straight through a fused aligned
     evaluator: the ratios are [Tpt]'s clamp of the config's high times,
     so each candidate's digest — and peak — is bit-identical to
     evaluating the built config, without allocating one per m. *)
  let price evaluate i =
    let mini = base_period /. float_of_int (i + 1) in
    let high_ratio =
      Array.init n (fun j -> Float.max 0. (Float.min 1. (high_time ~mini j /. mini)))
    in
    evaluate ev ~period:mini ~low:v_low ~high:v_high ~high_ratio
  in
  (* Theorem 5 makes the peak non-increasing until overhead extension
     bites, so keep the m with the lowest peak (ties keep the smallest
     m).  The m * cores * nodes product tracks the sweep's
     floating-point volume across platform sizes. *)
  let work = m_max * n * Thermal.Model.n_nodes p.model in
  let best, peak =
    Screen.argmin ev ~par:(Screen.fan_out ~par ~work) ~always:[] ~n:m_max
      ~rom:(price Eval.rom_two_mode_peak) ~exact:(price Eval.two_mode_peak)
  in
  let m = best + 1 in
  let mini = base_period /. float_of_int m in
  let config =
    {
      Tpt.period = mini;
      v_low;
      v_high;
      high_time = Array.init n (high_time ~mini);
      offset = Array.make n 0.;
    }
  in
  { config; m; m_max; peak }

let solve ?eval ?(base_period = 0.1) ?(m_cap = 512) ?t_unit ?(fill = false)
    ?(adjust = `Greedy) ?(par = true) ?(delta_margin = 0.) (p : Platform.t) =
  let ev = Eval.for_platform eval p in
  let ideal = Ideal.solve p in
  let sweep = m_sweep ev ~base_period ~m_cap ~par ideal.Ideal.voltages in
  Log.debug (fun f ->
      f "m sweep done: m = %d of %d, peak %.3f C (t_max %.1f C)" sweep.m
        sweep.m_max sweep.peak p.t_max);
  let config, steps =
    match adjust with
    | `Greedy ->
        Tpt.adjust_to_constraint p ~eval:ev ?t_unit ~par ~delta_margin
          sweep.config
    | `Bisection -> Tpt.adjust_by_bisection p ~eval:ev sweep.config
  in
  (* Theorem 1 is only approximate under strong coupling: re-verify with
     the dense evaluator and, if the cheap search undershot, keep
     adjusting against the dense peak (a no-op when already feasible). *)
  (* The safety pass stays exact: [dense:true] disables the delta tier
     anyway (its evaluators only price the aligned fused path).  The
     re-check itself always runs the dense modal scan, on the context's
     dense engine ([Eval.dense]), even when the search ran on a sparse
     context. *)
  let config, safety_steps =
    if Tpt.peak p ~eval:(Eval.dense ev) ~dense:true config > p.t_max +. 1e-9 then
      Tpt.adjust_to_constraint p ~eval:ev ?t_unit ~dense:true ~par config
    else (config, 0)
  in
  let config, fill_steps =
    if fill then Tpt.fill_headroom p ~eval:ev ?t_unit ~par ~delta_margin config
    else (config, 0)
  in
  let steps = steps + safety_steps in
  Log.debug (fun f -> f "TPT adjustment: %d exchanges (+%d dense)" steps safety_steps);
  let schedule = Tpt.schedule_of_config config in
  {
    config;
    schedule;
    m = sweep.m;
    m_max = sweep.m_max;
    throughput = Tpt.throughput p config;
    peak = Tpt.peak p ~eval:ev config;
    ideal;
    adjustment_steps = steps + fill_steps;
  }

type Solver.details += Details of result

let policy =
  {
    Solver.name = "ao";
    doc = "Aligned oscillation (Algorithm 2): m-oscillating step-up schedule + TPT";
    comparison = true;
    solve =
      (fun ev (prm : Solver.params) ->
        Solver.timed_outcome ev (fun () ->
            let p = Eval.platform ev in
            let r =
              solve ~eval:ev ~par:prm.Solver.par
                ~delta_margin:prm.Solver.delta_margin p
            in
            {
              Solver.voltages = Solver.delivered_speeds p r.schedule;
              schedule = Some r.schedule;
              throughput = r.throughput;
              peak = r.peak;
              wall_time = 0.;
              evaluations = 0;
              details = Details r;
            }));
  }
