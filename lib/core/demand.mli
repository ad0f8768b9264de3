(** The dual feasibility problem: meet *given* per-core speed demands
    under the peak-temperature constraint.

    The paper maximizes chip-wide throughput; its real-time ancestry
    (refs. [2], [25], [30]) asks the dual question — a task partition
    prescribes the net speed each core must sustain, and the scheduler
    must find a periodic DVFS schedule delivering those speeds without
    crossing [T_max].  The machinery is AO's m-sweep ({!Ao.m_sweep}) run
    on the demands: two neighbouring modes per core at the
    throughput-preserving ratio (Theorems 3/4 make this the coolest
    equal-work choice), then m-oscillation to push the peak down
    (Theorem 5), stopping at the transition-overhead bound.  Unlike AO
    there is no ratio adjustment: the demands are hard, so the only
    freedom is [m], and the verdict is feasible / infeasible. *)

type result = {
  feasible : bool;  (** Whether the best schedule meets [t_max]. *)
  schedule : Sched.Schedule.t;  (** The best (coolest) schedule found. *)
  m : int;  (** Chosen oscillation count. *)
  m_max : int;  (** Transition-overhead bound on the sweep. *)
  peak : float;  (** Its dense-scan-verified stable peak, C. *)
  margin : float;  (** [t_max - peak]; negative when infeasible. *)
  delivered : float array;  (** Net per-core speeds of [schedule]. *)
}

(** [solve ?base_period ?m_cap platform ~demands] seeks a schedule
    delivering at least [demands.(i)] net speed on every core [i].
    Demands must lie in [[0, v_max]]; raises [Invalid_argument]
    otherwise (a demand below [v_min] is served at [v_min]-or-oscillated
    speed — over-provisioning is allowed, under-provisioning is not).
    NaN demands are rejected too.  [par] (default [true]) fans the m
    sweep across the shared {!Util.Pool} under {!Ao.m_sweep}'s gate;
    the reduction is sequential, so the chosen [m] and schedule are
    identical at any pool size.  [eval] memoizes the sweep's step-up
    peak evaluations in the shared context, and ROM-screens the sweep
    on a screening context. *)
val solve :
  ?eval:Eval.t ->
  ?base_period:float ->
  ?m_cap:int ->
  ?par:bool ->
  Platform.t ->
  demands:float array ->
  result

type Solver.details += Details of result

(** [policy] is the registry adapter: demands come from
    [params.demands], defaulting to the ideal continuous assignment;
    [voltages] are the delivered per-core speeds and [throughput] their
    mean.  Bit-identical to the direct {!solve} on the same demands. *)
val policy : Solver.t
