(** The epoch-driven closed-loop simulator: one {!Controller.t} against
    a simulated plant on any {!Thermal.Backend}.

    Every control interval the loop (1) converts the commanded levels
    and the epoch's workload utilization into heat, with optional
    multiplicative power noise; (2) advances the plant exactly through
    the backend's allocation-free {!Thermal.Backend.field-step_into} in
    [substeps] fine steps, tracking the true continuous peak and
    threshold violations in the controller's blind spot; (3) senses the
    core temperatures through the sensor model (Gaussian noise, then
    optional quantization, then an optional {!Observer} filter); and
    (4) asks the controller for the next per-core levels.

    The plant is whatever the eval context's backend simulates — the
    dense modal engine or the sparse Krylov path, so races run
    unchanged from 3x3 up to the 8x8/16x16 sheets.  The loop itself is
    sequential and all randomness flows from [seed] through one
    explicit RNG; model-based controllers may fan searches onto the
    eval's pool, whose results are bit-identical at any pool size — so
    a run is deterministic under a fixed seed regardless of
    [FOSC_DOMAINS]. *)

type config = {
  control_interval : float;  (** Seconds between decisions (default 20 ms). *)
  duration : float;  (** Simulated seconds (default 8). *)
  substeps : int;
      (** Fine plant steps per control interval measuring the true peak
          (default 4). *)
  seed : int;  (** RNG seed for every noise source (default 0). *)
  sensor_noise : float;
      (** Gaussian sensor noise, degrees C std (default 0). *)
  sensor_quant : float;
      (** Sensor quantization step, degrees C; [0] disables (default). *)
  power_noise : float;
      (** Relative std of multiplicative power noise (default 0);
          noisy powers are clamped at 0. *)
  phases : Workload.Phases.phase list option;
      (** Markov phase model driving per-core utilization; [None]
          (default) runs every core fully utilized. *)
  observer_gain : float option;
      (** Filter sensed temperatures through an {!Observer} with this
          gain before the controller sees them; [None] (default) hands
          the controller the raw sensors. *)
}

val default : config

type stats = {
  throughput : float;
      (** Useful work per core per second: each core delivers the
          minimum of its commanded speed and its workload demand. *)
  peak : float;  (** True continuous peak over the run, degrees C. *)
  mean_temp : float;
      (** Mean of the per-substep hottest-core samples, degrees C. *)
  violations : int;  (** Substep samples strictly above [t_max]. *)
  switches : int;  (** Per-core DVFS transitions commanded. *)
  epochs : int;  (** Control epochs executed. *)
}

(** [run ?config eval controller] initializes [controller] against
    [eval]'s platform and backend, runs the closed loop from the
    ambient state and returns its stats.  The controller's initial
    decision (from ambient sensors, before any epoch runs) sets the
    opening levels and counts no switches.  Raises [Invalid_argument]
    on an interval or duration that is not finite and positive, a
    duration of 2^62 or more control intervals, a noise
    or quantization level that is not finite and non-negative,
    [substeps < 1], an observer gain outside (0, 1] (NaN included) — or
    whatever the controller's own init validation raises. *)
val run : ?config:config -> Core.Eval.t -> Controller.t -> stats
