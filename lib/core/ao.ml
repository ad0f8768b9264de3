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

(* The per-core ramp repayment delta_i — loop-invariant across the m
   sweep, so computed once.  Cores whose ideal voltage coincides with a
   level run constant and incur no overhead. *)
let deltas_of (p : Platform.t) ~v_low ~v_high =
  Array.init (Array.length v_low) (fun i ->
      if v_high.(i) -. v_low.(i) < 1e-12 then 0.
      else Sched.Oscillate.delta ~tau:p.tau ~v_low:v_low.(i) ~v_high:v_high.(i))

(* The mini-period config for oscillation count [m]: per-core high time
   r_H * (t_p / m) extended by delta_i to repay the two transition stalls
   (Section V). *)
let config_for_m (p : Platform.t) ~base_period ~v_low ~v_high ~ratio ?deltas m =
  let deltas =
    match deltas with Some d -> d | None -> deltas_of p ~v_low ~v_high
  in
  let mini = base_period /. float_of_int m in
  let n = Array.length v_low in
  let high_time =
    Array.init n (fun i ->
        if v_high.(i) -. v_low.(i) < 1e-12 then
          (* Constant mode: encode as all-high at v_high = v_low. *)
          mini
        else if ratio.(i) >= 1. -. 1e-12 then mini
        else if ratio.(i) <= 1e-12 then 0.
        else Float.min mini ((ratio.(i) *. mini) +. deltas.(i)))
  in
  {
    Tpt.period = mini;
    v_low = Array.copy v_low;
    v_high = Array.copy v_high;
    high_time;
    offset = Array.make n 0.;
  }

let solve ?eval ?(base_period = 0.1) ?(m_cap = 512) ?t_unit ?(fill = false)
    ?(adjust = `Greedy) ?(par = true) ?(delta_margin = 0.) (p : Platform.t) =
  let n = Platform.n_cores p in
  let ev = Eval.for_platform eval p in
  let ideal = Ideal.solve p in
  (* Neighbouring modes and the throughput-preserving ratio of Eq. (11). *)
  let v_low = Array.make n 0. and v_high = Array.make n 0. and ratio = Array.make n 0. in
  for i = 0 to n - 1 do
    let lo, hi = Power.Vf.neighbours p.levels ideal.Ideal.voltages.(i) in
    v_low.(i) <- lo;
    v_high.(i) <- hi;
    ratio.(i) <-
      (if hi -. lo < 1e-12 then 1. else (ideal.Ideal.voltages.(i) -. lo) /. (hi -. lo))
  done;
  (* Transition-overhead bound M = min_i floor(t_iL / (delta_i + tau)). *)
  let modes =
    Array.init n (fun i -> (v_low.(i), v_high.(i), (1. -. ratio.(i)) *. base_period))
  in
  let m_max = Stdlib.min m_cap (Sched.Oscillate.max_m ~tau:p.tau ~modes) in
  (* Sweep m: Theorem 5 makes the peak non-increasing until overhead
     extension bites, so keep the m with the lowest peak.  Every m's
     evaluation is independent, so fan them across the pool and run the
     original (ordered, tie-keeps-smallest-m) reduction over the array. *)
  let deltas = deltas_of p ~v_low ~v_high in
  let peaks =
    (* Straight to the fused aligned evaluator: the high-time expressions
       mirror [config_for_m] term for term, so each candidate's digest —
       and peak — is bit-identical to evaluating the built config, without
       allocating one per m. *)
    let ratios_for i =
      let mini = base_period /. float_of_int (i + 1) in
      let high_ratio =
        Array.init n (fun j ->
            let ht =
              if v_high.(j) -. v_low.(j) < 1e-12 then mini
              else if ratio.(j) >= 1. -. 1e-12 then mini
              else if ratio.(j) <= 1e-12 then 0.
              else Float.min mini ((ratio.(j) *. mini) +. deltas.(j))
            in
            Float.max 0. (Float.min 1. (ht /. mini)))
      in
      (mini, high_ratio)
    in
    let eval_m i =
      let period, high_ratio = ratios_for i in
      Eval.two_mode_peak ev ~period ~low:v_low ~high:v_high ~high_ratio
    in
    let pool = Eval.pool ev in
    (* Fan out only when the batch carries real work: a 3-core dense
       candidate evaluation is under a microsecond, and waking the pool
       for ~10k such evaluations costs more than running them inline.
       The m * cores * nodes product tracks the per-sweep floating-point
       volume across platform sizes; the same gate covers the screened
       branch, whose ROM scores are cheaper still. *)
    let work = m_max * n * Thermal.Model.n_nodes p.model in
    let par = par && work >= 32768 in
    match Eval.screening ev with
    | Some margin ->
        (* Two-tier sweep on a screening (sparse) context: every m is
           ROM-scored, only those within [margin] of the ROM minimum pay
           an exact fixed-point solve.  Pruned slots come back +inf, so
           the sequential argmin below (and its smallest-m tie-break) is
           untouched. *)
        let rom_m i =
          let period, high_ratio = ratios_for i in
          Eval.rom_two_mode_peak ev ~period ~low:v_low ~high:v_high ~high_ratio
        in
        Screen.select ~pool ~par ~always:[] ~margin ~n:m_max ~rom:rom_m
          ~exact:eval_m ()
    | None ->
        if par then
          Util.Pool.init ~pool ~chunk:(Util.Pool.chunk_hint ~pool m_max) m_max
            eval_m
        else Array.init m_max eval_m
  in
  let best_m = ref 1 in
  let best_peak = ref infinity in
  for m = 1 to m_max do
    let peak = peaks.(m - 1) in
    if peak < !best_peak -. 1e-12 then begin
      best_peak := peak;
      best_m := m
    end
  done;
  Log.debug (fun f ->
      f "m sweep done: m = %d of %d, peak %.3f C (t_max %.1f C)" !best_m m_max !best_peak
        p.t_max);
  let config0 = config_for_m p ~base_period ~v_low ~v_high ~ratio !best_m in
  let config, steps =
    match adjust with
    | `Greedy ->
        Tpt.adjust_to_constraint p ~eval:ev ?t_unit ~par ~delta_margin config0
    | `Bisection -> Tpt.adjust_by_bisection p ~eval:ev config0
  in
  (* Theorem 1 is only approximate under strong coupling: re-verify with
     the dense evaluator and, if the cheap search undershot, keep
     adjusting against the dense peak (a no-op when already feasible). *)
  (* The safety pass stays exact: [dense:true] disables the delta tier
     anyway (its evaluators only price the aligned fused path).  The
     re-check itself deliberately passes no context: it always runs the
     dense modal scan, even when the search ran on a sparse one. *)
  let config, safety_steps =
    if Tpt.peak p ~dense:true config > p.t_max +. 1e-9 then
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
    m = !best_m;
    m_max;
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
