(** Exact energy accounting for periodic schedules in the thermal stable
    status.

    Per Eq. (1) a core's power is [psi(v) + beta T(t)].  Over one stable
    period the [psi] part integrates trivially; the leakage part
    integrates every mode of the stable-status trajectory in closed form
    ([int_0^dt z = z_eq dt + (z_0 - z_eq) expm1(lambda dt) / lambda]) and
    reads the result at the core nodes, so no sampling error enters.  Useful for the classic energy-vs-throughput
    trade-off studies the paper's related work (Bansal et al. [33])
    focuses on. *)

type breakdown = {
  dynamic : float;  (** [sum_i int psi_i dt] over one period, J. *)
  leakage : float;  (** [sum_i int beta T_i dt] over one period, J. *)
  period : float;  (** Seconds. *)
}

(** [total b] is [dynamic + leakage], J per period. *)
val total : breakdown -> float

(** [average_power b] is [total / period], W. *)
val average_power : breakdown -> float

(** [per_period model pm s] computes the stable-status energy breakdown
    of schedule [s]. *)
val per_period :
  Thermal.Model.t -> Power.Power_model.t -> Schedule.t -> breakdown

(** [per_work model pm ?tau s] is energy divided by net work
    (throughput x cores x period), J per unit work — the efficiency
    metric.  [tau] charges DVFS stalls against the work (default 0).
    Raises [Invalid_argument] when the schedule performs no work. *)
val per_work :
  Thermal.Model.t -> Power.Power_model.t -> ?tau:float -> Schedule.t -> float
