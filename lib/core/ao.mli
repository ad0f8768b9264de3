(** AO — aligned oscillation, the paper's Algorithm 2.

    The pipeline: (1) the ideal continuous per-core voltage from
    [T^inf = T_max] ({!Ideal}); (2) the two *neighbouring* discrete modes
    around it with the duty ratio that preserves the ideal throughput
    (Eq. (11), justified by Theorems 3/4); (3) m-oscillation: shrink the
    base period by [m], which monotonically lowers the stable peak
    (Theorem 5), where [m] is swept up to the transition-overhead bound
    [M] (Section V) with each oscillation's high interval extended by
    [delta_i] to repay the DVFS stalls; (4) the TPT ratio-adjustment loop
    ({!Tpt}) to pull the remaining overshoot under [T_max].  Every
    candidate is a step-up schedule, so each peak evaluation is one
    end-of-period solve (Theorem 1). *)

type result = {
  config : Tpt.config;  (** Final two-mode mini-period configuration. *)
  schedule : Sched.Schedule.t;  (** Materialized mini-period schedule. *)
  m : int;  (** Chosen oscillation count. *)
  m_max : int;  (** The overhead bound [M] that capped the sweep. *)
  throughput : float;  (** Net of transition stalls. *)
  peak : float;  (** Stable-status peak temperature of [schedule]. *)
  ideal : Ideal.result;  (** The continuous assignment AO discretizes. *)
  adjustment_steps : int;  (** TPT exchanges performed. *)
}

(** The chosen point of an m-sweep. *)
type sweep = {
  config : Tpt.config;  (** The chosen m's aligned mini-period config. *)
  m : int;  (** The chosen oscillation count. *)
  m_max : int;  (** The overhead bound [M] that capped the sweep. *)
  peak : float;  (** The chosen config's swept (step-up) peak. *)
}

(** [m_sweep ev ~base_period ~m_cap ~par speeds] is steps (2)–(3) of the
    pipeline for per-core target [speeds] on [ev]'s platform: the two
    neighbouring modes around each speed with the throughput-preserving
    ratio, the overhead bound [M] (capped at [m_cap]), and the m with
    the lowest peak among [1 .. M] (ties keep the smallest m).  Every
    candidate is priced by the fused aligned evaluators through
    {!Screen.argmin}: ROM-screened on a screening context, fanned
    across the pool when [par] and the sweep's volume pass
    {!Screen.fan_out}.  AO runs it on the ideal speeds, {!Demand} on
    its clamped demands.  Speeds must lie within the platform's
    levels. *)
val m_sweep :
  Eval.t -> base_period:float -> m_cap:int -> par:bool -> float array -> sweep

(** [solve ?base_period ?m_cap ?t_unit ?fill platform] runs AO.

    - [base_period] is the m = 1 oscillation period (default 0.1 s —
      comparable to the platform's dominant thermal time constant, so the
      m sweep has dynamics to exploit);
    - [m_cap] additionally caps the sweep (default 512) to bound compute
      when [tau] is tiny and the paper's [M] is enormous;
    - [t_unit] is the TPT exchange quantum (default mini-period / 100);
    - [fill] (default [false], the paper's behaviour) also reclaims
      temperature headroom when the discretized schedule lands strictly
      below [T_max];
    - [adjust] selects the ratio-adjustment strategy: [`Greedy] (the
      paper's per-core TPT loop, default) or [`Bisection] (uniform
      scaling, fewer peak evaluations, possibly slightly lower
      throughput — see the ablations);
    - [par] (default [true]) evaluates the m sweep and the TPT candidate
      scans on the shared {!Util.Pool}; reductions stay sequential, so
      the result is identical at any pool size;
    - [delta_margin] (kelvin, default [0.] — off) opts the TPT
      adjustment (and the headroom fill) into the prepared-base delta
      tier, as in {!Tpt.adjust_to_constraint}; the answer stays
      feasible, though the greedy trajectory may differ from the exact
      scan's;
    - [eval] memoizes every cheap step-up peak evaluation in the shared
      context's schedule-keyed table ({!Tpt.peak}) — bit-identical
      results, large savings when searches revisit candidates or PCO
      re-runs AO on the same context. *)
val solve :
  ?eval:Eval.t ->
  ?base_period:float ->
  ?m_cap:int ->
  ?t_unit:float ->
  ?fill:bool ->
  ?adjust:[ `Greedy | `Bisection ] ->
  ?par:bool ->
  ?delta_margin:float ->
  Platform.t ->
  result

type Solver.details += Details of result

(** [policy] is AO's registry adapter: runs {!solve} on the context's
    platform (pool-parallel per [params], memoized through the context)
    and reports the delivered per-core speeds, schedule, throughput and
    peak — bit-identical to the direct {!solve} call it wraps. *)
val policy : Solver.t
