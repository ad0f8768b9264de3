(** Thermal state observer: reconstruct the full thermal state from
    noisy core sensors, on any {!Thermal.Backend}.

    Real DTM reads a handful of noisy on-die sensors, but the plant's
    state covers every thermal node (including passive nodes with no
    sensor at all).  A discrete Luenberger observer runs the plant model
    in parallel with the plant and corrects with the measurement
    innovation:

    [xhat' = F xhat + g(psi) + L (y - H xhat)]

    where [F = e^{A dt}] is the true one-epoch transition, [H] reads the core
    temperatures and [L = gain * H^T].  [F] is a strict contraction and
    the correction pulls the estimate toward the measured cores, so the
    error dynamics are stable for gains in (0, 1].

    Estimates are states of the observer's backend — opaque modal or
    symmetrized coordinates; prediction runs through the backend's
    {!Thermal.Backend.field-step_into} and correction through its
    {!Thermal.Backend.field-correct_cores}, so one observer
    implementation serves the dense and sparse plants alike.  An
    observer owns scratch buffers: share one instance only within a
    single control loop, not across domains. *)

type t

(** [create ?gain backend ~dt] builds an observer stepping at the
    sensor sampling interval [dt] on [backend]'s plant model.  [gain]
    in (0, 1] (default 0.5) scales the innovation correction.  Raises
    [Invalid_argument] on a gain outside (0, 1] or a [dt] that is not
    finite and positive (NaN fails both tests). *)
val create : ?gain:float -> Thermal.Backend.t -> dt:float -> t

(** [backend o] is the backend whose states [o] estimates. *)
val backend : t -> Thermal.Backend.t

(** [initial o] is the ambient-state estimate. *)
val initial : t -> Linalg.Vec.t

(** [update_into o ~estimate ~psi ~measured] advances one sampling
    interval in place: propagate [estimate] under core powers [psi],
    then correct with the measured absolute core temperatures.  The
    per-epoch path — no state-sized allocation, which matters across
    the 10^4..10^6 epochs of a race.  Raises [Invalid_argument] on
    arity mismatches. *)
val update_into :
  t -> estimate:Linalg.Vec.t -> psi:Linalg.Vec.t -> measured:Linalg.Vec.t -> unit

(** [update o ~estimate ~psi ~measured] is {!update_into} on a copy:
    returns the new estimate, leaving [estimate] untouched. *)
val update :
  t ->
  estimate:Linalg.Vec.t ->
  psi:Linalg.Vec.t ->
  measured:Linalg.Vec.t ->
  Linalg.Vec.t

(** [core_estimates o estimate] are the estimate's absolute core
    temperatures. *)
val core_estimates : t -> Linalg.Vec.t -> Linalg.Vec.t
