module Vec = Linalg.Vec
module B = Thermal.Backend

type config = {
  control_interval : float;
  duration : float;
  substeps : int;
  seed : int;
  sensor_noise : float;
  sensor_quant : float;
  power_noise : float;
  phases : Workload.Phases.phase list option;
  observer_gain : float option;
}

let default =
  {
    control_interval = 20e-3;
    duration = 8.;
    substeps = 4;
    seed = 0;
    sensor_noise = 0.;
    sensor_quant = 0.;
    power_noise = 0.;
    phases = None;
    observer_gain = None;
  }

type stats = {
  throughput : float;
  peak : float;
  mean_temp : float;
  violations : int;
  switches : int;
  epochs : int;
}

(* Box-Muller Gaussian sample; consumes no randomness when sigma <= 0,
   so scenario streams only diverge where their noise models do. *)
let gaussian rng sigma =
  if sigma <= 0. then 0.
  else
    let u1 = Float.max 1e-12 (Random.State.float rng 1.) in
    let u2 = Random.State.float rng 1. in
    sigma *. sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)

(* Range tests written so that NaN fails them: a NaN interval or noise
   level would otherwise run to a peak of -inf and a NaN throughput. *)
let validate c =
  let positive x = Float.is_finite x && x > 0. in
  let non_negative x = Float.is_finite x && x >= 0. in
  if not (positive c.control_interval) then
    invalid_arg "Loop.run: control interval must be finite and positive";
  if not (positive c.duration) then invalid_arg "Loop.run: duration must be finite and positive";
  (* [run] converts the epoch count with [int_of_float], which wraps past
     2^62 and would silently run a single epoch. *)
  if not (Float.round (c.duration /. c.control_interval) < 0x1p62) then
    invalid_arg "Loop.run: duration spans too many control intervals";
  if c.substeps < 1 then invalid_arg "Loop.run: substeps < 1";
  if not (non_negative c.sensor_noise) then
    invalid_arg "Loop.run: sensor noise must be finite and non-negative";
  if not (non_negative c.sensor_quant) then
    invalid_arg "Loop.run: sensor quantization must be finite and non-negative";
  if not (non_negative c.power_noise) then
    invalid_arg "Loop.run: power noise must be finite and non-negative";
  match c.observer_gain with
  | Some g when not (g > 0. && g <= 1.) ->
      invalid_arg "Loop.run: observer gain outside (0, 1]"
  | _ -> ()

let run ?(config = default) eval (controller : Controller.t) =
  validate config;
  let p = Core.Eval.platform eval in
  let b = Core.Eval.backend eval in
  let n = b.B.n_cores in
  let pm = p.Core.Platform.power in
  let t_max = p.Core.Platform.t_max in
  let levels = Power.Vf.levels p.Core.Platform.levels in
  let top = Array.length levels - 1 in
  let v_top = levels.(top) in
  let dt = config.control_interval in
  let env = { Controller.platform = p; levels; dt; eval } in
  let decide = controller.Controller.init env in
  let epochs = Int.max 1 (int_of_float (Float.round (config.duration /. dt))) in
  let rng = Random.State.make [| config.seed |] in
  (* Phase-driven utilization is pre-sampled so the workload a seed
     generates does not depend on how the sensing draws interleave. *)
  let utilization =
    match config.phases with
    | None -> None
    | Some phases ->
        Some (Workload.Phases.sample_utilization rng ~phases ~n_cores:n ~epochs ~dt)
  in
  let full = Array.make n 1. in
  let state = ref (b.B.ambient_state ()) in
  let scratch = ref (b.B.ambient_state ()) in
  let level = Array.make n top in
  let next = Array.make n 0 in
  let psi = Array.make n 0. in
  let psi_cmd = Array.make n 0. in
  let observer = Option.map (fun gain -> Observer.create ~gain b ~dt) config.observer_gain in
  let estimate = match observer with Some o -> Observer.initial o | None -> [||] in
  let sub_dt = dt /. float_of_int config.substeps in
  let work = ref 0. in
  let peak = ref neg_infinity in
  let temp_sum = ref 0. in
  let violations = ref 0 and switches = ref 0 in
  let clamp a =
    Array.iteri (fun i l -> if l < 0 then a.(i) <- 0 else if l > top then a.(i) <- top) a
  in
  (* Sensor model: truth + Gaussian noise, snapped to the quantization
     grid when one is configured. *)
  let measure () =
    Array.map
      (fun t ->
        let t = t +. gaussian rng config.sensor_noise in
        if config.sensor_quant > 0. then
          Float.round (t /. config.sensor_quant) *. config.sensor_quant
        else t)
      (b.B.core_temps !state)
  in
  (* Initial decision from the ambient state: controllers choose their
     opening levels (not counted as switches). *)
  decide { Controller.epoch = 0; time = 0.; temps = measure (); utilization = full } level;
  clamp level;
  for e = 0 to epochs - 1 do
    let u = match utilization with None -> full | Some us -> us.(e) in
    for i = 0 to n - 1 do
      psi_cmd.(i) <- u.(i) *. Power.Power_model.psi pm levels.(level.(i));
      psi.(i) <- Float.max 0. (psi_cmd.(i) *. (1. +. gaussian rng config.power_noise))
    done;
    for _ = 1 to config.substeps do
      b.B.step_into ~dt:sub_dt ~state:!state ~psi ~dst:!scratch;
      let tmp = !state in
      state := !scratch;
      scratch := tmp;
      let t = b.B.max_core_temp !state in
      peak := Float.max !peak t;
      temp_sum := !temp_sum +. t;
      if t > t_max +. 1e-9 then incr violations
    done;
    (* Useful work: a core delivers at most its commanded speed and at
       most the speed its workload demands — over-clocking an idle core
       heats the chip without adding throughput. *)
    for i = 0 to n - 1 do
      work := !work +. (Float.min levels.(level.(i)) (u.(i) *. v_top) *. dt)
    done;
    if e < epochs - 1 then begin
      (* Sense at the epoch boundary and decide the next command.  The
         observer predicts with the commanded (noise-free) powers —
         mismatch against the noisy plant is exactly what it filters. *)
      let measured = measure () in
      let sensed =
        match observer with
        | None -> measured
        | Some o ->
            Observer.update_into o ~estimate ~psi:psi_cmd ~measured;
            Observer.core_estimates o estimate
      in
      Array.blit level 0 next 0 n;
      decide
        {
          Controller.epoch = e + 1;
          time = float_of_int (e + 1) *. dt;
          temps = sensed;
          utilization = u;
        }
        next;
      clamp next;
      for i = 0 to n - 1 do
        if next.(i) <> level.(i) then incr switches
      done;
      Array.blit next 0 level 0 n
    end
  done;
  {
    throughput = !work /. (config.duration *. float_of_int n);
    peak = !peak;
    mean_temp = !temp_sum /. float_of_int (epochs * config.substeps);
    violations = !violations;
    switches = !switches;
    epochs;
  }
