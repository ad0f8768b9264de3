type result = {
  three_mode_peak : float;
  two_mode_peak : float;
  ambient_sweep : (float * float) list;
      (* (ambient C, AO throughput) on the 3x1 2-level 65C platform *)
  ao_m1_throughput : float;
  ao_full_throughput : float;
  ao_full_m : int;
  neighbour_peak : float;
  wide_peak : float;
  exs_incremental_time : float;
  exs_naive_time : float;
  exs_pruned_nodes : int;
  exs_flat_nodes : int;
  refine_gain : float;
  bisect_throughput : float;
  bisect_time : float;
  greedy_throughput : float;
  greedy_time : float;
  tsp_throughput : float;
  tsp_exs_throughput : float;
  tsp_ao_throughput : float;
}

(* Equal-work THREE-mode step-up schedule: splits the work across
   v_low -> v_mid -> v_high with the middle third of the period at v_mid
   and the outer ratios chosen to preserve the target average. *)
let three_mode_peak_of (p : Core.Platform.t) ~v_low ~v_mid ~v_high ~target =
  let n = Core.Platform.n_cores p in
  let period = 0.02 in
  let mid_len = period /. 3. in
  (* remaining work to split between low and high over 2/3 period *)
  let rest = (target *. period) -. (v_mid *. mid_len) in
  let span = period -. mid_len in
  (* rest = l_low * v_low + (span - l_low) * v_high *)
  let l_low = ((v_high *. span) -. rest) /. (v_high -. v_low) in
  let l_high = span -. l_low in
  assert (l_low > 0. && l_high > 0.);
  let core =
    [
      { Sched.Schedule.duration = l_low; voltage = v_low };
      { Sched.Schedule.duration = mid_len; voltage = v_mid };
      { Sched.Schedule.duration = l_high; voltage = v_high };
    ]
  in
  let s = Sched.Schedule.make ~period (Array.init n (fun _ -> core)) in
  Sched.Peak.of_step_up
    (Thermal.Backend.of_model p.Core.Platform.model)
    p.Core.Platform.power s

let two_mode_peak (p : Core.Platform.t) ~v_low ~v_high ~target =
  (* Equal-throughput two-mode step-up schedule on every core, 20 ms
     period, ratio from Eq. (11). *)
  let n = Core.Platform.n_cores p in
  let period = 0.02 in
  let ratio = (target -. v_low) /. (v_high -. v_low) in
  let s =
    Sched.Schedule.two_mode ~period
      ~low:(Array.make n v_low)
      ~high:(Array.make n v_high)
      ~high_ratio:(Array.make n ratio)
  in
  Sched.Peak.of_step_up
    (Thermal.Backend.of_model p.Core.Platform.model)
    p.Core.Platform.power s

let run () =
  (* 1. m-oscillation ablation on the 3x1 / 2-level / 65 C platform. *)
  let p3 = Workload.Configs.platform ~cores:3 ~levels:2 ~t_max:65. in
  let ao_m1 = Core.Ao.solve ~m_cap:1 p3 in
  let ao_full = Core.Ao.solve p3 in
  (* 2. Neighbouring vs wide mode pair on the 5-level set: target speed
     0.9 V sits between 0.8 and 1.0. *)
  let p5 = Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:65. in
  let neighbour_peak = two_mode_peak p5 ~v_low:0.8 ~v_high:1.0 ~target:0.9 in
  let wide_peak = two_mode_peak p5 ~v_low:0.6 ~v_high:1.3 ~target:0.9 in
  (* 2b. Three modes vs the two neighbours at equal work (Theorem 4's
     design choice, with a third mode actually exercised). *)
  let three_mode_peak =
    three_mode_peak_of p5 ~v_low:0.6 ~v_mid:0.9 ~v_high:1.3 ~target:0.9
  in
  let two_mode_peak_t4 = two_mode_peak p5 ~v_low:0.8 ~v_high:1.0 ~target:0.9 in
  (* 2c. Ambient robustness: AO across ambient temperatures. *)
  let ambient_sweep =
    Util.Pool.map
      (fun ambient ->
        let p =
          Core.Platform.grid ~ambient ~rows:1 ~cols:3
            ~levels:(Power.Vf.table_iv 2) ~t_max:65. ()
        in
        (ambient, (Core.Ao.solve p).Core.Ao.throughput))
      [ 25.; 30.; 35.; 40.; 45. ]
  in
  (* 3. EXS evaluation strategy, 6 cores x 4 levels = 4096 combos. *)
  let p6 = Workload.Configs.platform ~cores:6 ~levels:4 ~t_max:65. in
  let exs_incremental_time = Util.Timer.time_only (fun () -> Core.Exs.solve p6) in
  let exs_naive_time = Util.Timer.time_only (fun () -> Core.Exs.solve_naive p6) in
  (* 3b. Branch-and-bound pruning on the largest search space. *)
  let p95 = Workload.Configs.platform ~cores:9 ~levels:5 ~t_max:65. in
  let exs_flat = Core.Exs.solve p95 in
  let exs_pruned = Core.Exs.solve_pruned p95 in
  assert (Float.abs (exs_flat.Core.Exs.throughput -. exs_pruned.Core.Exs.throughput) < 1e-9);
  (* 4. Ideal refinement on a clamping platform. *)
  (* 70 C: edge cores clamp at 1.3 V but the middle does not, so the
     refinement has headroom to redistribute. *)
  let p_hot = Workload.Configs.platform ~cores:3 ~levels:2 ~t_max:70. in
  let plain = Core.Ideal.solve ~refine:false p_hot in
  let refined = Core.Ideal.solve ~refine:true p_hot in
  (* 4b. Ratio adjustment strategies on a 6-core platform. *)
  let p6b = Workload.Configs.platform ~cores:6 ~levels:2 ~t_max:60. in
  let greedy, greedy_time =
    Util.Timer.time_it (fun () -> Core.Ao.solve ~adjust:`Greedy p6b)
  in
  let bisect, bisect_time =
    Util.Timer.time_it (fun () -> Core.Ao.solve ~adjust:`Bisection p6b)
  in
  assert (greedy.Core.Ao.peak <= 60. +. 1e-6 && bisect.Core.Ao.peak <= 60. +. 1e-6);
  (* 5. TSP vs the search-based policies on the largest platform. *)
  let p9 = Workload.Configs.platform ~cores:9 ~levels:5 ~t_max:55. in
  let tsp = Core.Tsp.solve p9 in
  let tsp_exs = Core.Exs.solve p9 in
  let tsp_ao = Core.Ao.solve p9 in
  {
    three_mode_peak;
    two_mode_peak = two_mode_peak_t4;
    ambient_sweep;
    ao_m1_throughput = ao_m1.Core.Ao.throughput;
    ao_full_throughput = ao_full.Core.Ao.throughput;
    ao_full_m = ao_full.Core.Ao.m;
    neighbour_peak;
    wide_peak;
    exs_incremental_time;
    exs_naive_time;
    exs_pruned_nodes = exs_pruned.Core.Exs.evaluated;
    exs_flat_nodes = exs_flat.Core.Exs.evaluated;
    refine_gain = refined.Core.Ideal.throughput -. plain.Core.Ideal.throughput;
    bisect_throughput = bisect.Core.Ao.throughput;
    bisect_time;
    greedy_throughput = greedy.Core.Ao.throughput;
    greedy_time;
    tsp_throughput = tsp.Core.Tsp.throughput;
    tsp_exs_throughput = tsp_exs.Core.Exs.throughput;
    tsp_ao_throughput = tsp_ao.Core.Ao.throughput;
  }

let print r =
  Exp_common.section "Ablations";
  Printf.printf "AO with m forced to 1:   THR %.4f\n" r.ao_m1_throughput;
  Printf.printf "AO with free m (m = %d): THR %.4f  (oscillation gain %+.1f%%)\n"
    r.ao_full_m r.ao_full_throughput
    (Exp_common.improvement r.ao_full_throughput r.ao_m1_throughput);
  Printf.printf
    "equal-work two-mode peak, neighbouring pair (0.8/1.0V): %.2f C | wide pair (0.6/1.3V): %.2f C (Theorem 4: neighbours cooler)\n"
    r.neighbour_peak r.wide_peak;
  Printf.printf
    "EXS 6 cores x 4 levels: incremental %.4fs vs Algorithm-1-verbatim %.4fs (x%.1f)\n"
    r.exs_incremental_time r.exs_naive_time
    (r.exs_naive_time /. Float.max 1e-9 r.exs_incremental_time);
  Printf.printf
    "EXS branch-and-bound (9 cores x 5 levels): %d of %d nodes visited (%.2f%%), same optimum\n"
    r.exs_pruned_nodes r.exs_flat_nodes
    (100. *. float_of_int r.exs_pruned_nodes /. float_of_int r.exs_flat_nodes);
  Printf.printf "ideal-solve clamp refinement gain (3x1 at 70 C): %+.4f THR\n"
    r.refine_gain;
  Printf.printf
    "equal-work THREE-mode (0.6/0.9/1.3V) peak %.2f C vs two neighbours (0.8/1.0V) %.2f C - more modes do NOT help (Theorem 4)\n"
    r.three_mode_peak r.two_mode_peak;
  Printf.printf "AO throughput vs ambient (3x1, 65 C): %s\n"
    (String.concat "  "
       (List.map (fun (a, thr) -> Printf.sprintf "%.0fC->%.3f" a thr) r.ambient_sweep));
  Printf.printf
    "AO ratio adjustment (6 cores, 2 levels, 60 C): greedy TPT %.4f THR in %.3fs | bisection %.4f THR in %.3fs\n"
    r.greedy_throughput r.greedy_time r.bisect_throughput r.bisect_time;
  Printf.printf
    "TSP budgeting vs search (9 cores, 5 levels, 55 C): TSP %.4f | EXS %.4f | AO %.4f\n"
    r.tsp_throughput r.tsp_exs_throughput r.tsp_ao_throughput
