(** The reference thermal path: dense propagator stepping on
    {!Thermal.Model}, the pre-modal formulation of Eqs. (3)-(4).

    Every evaluator here works in node ([theta]) space with the full
    propagator [e^{A dt} = W diag(e^{lambda dt}) W^{-1}], rebuilt from
    {!Thermal.Model.eigenbasis} on each call (O(n^3)) — nothing is
    memoized, so there is no shared state to reason about.  The
    production code answers the same questions through {!Thermal.Modal};
    the differential suites hold the two paths to [<= 1e-9].  Test-only:
    no library under [lib/] may link this. *)

(** [propagator m dt] is [e^{A dt}], computed in the eigenbasis. *)
val propagator : Thermal.Model.t -> float -> Linalg.Mat.t

(** [step m ~dt ~theta ~psi] advances the exact LTI solution of Eq. (3)
    by [dt] under constant core powers [psi]. *)
val step :
  Thermal.Model.t -> dt:float -> theta:Linalg.Vec.t -> psi:Linalg.Vec.t -> Linalg.Vec.t

(** [derivative m theta psi] is [A theta + b(psi)] — the right-hand side
    for cross-validating ODE integrators. *)
val derivative : Thermal.Model.t -> Linalg.Vec.t -> Linalg.Vec.t -> Linalg.Vec.t

(** [integrate_theta m ~dt ~theta ~psi] is the exact time integral
    [int_0^dt theta(s) ds] under constant core powers [psi], starting from
    [theta]: [A^{-1}(theta(dt) - theta(0) - b dt)].  Raises
    [Invalid_argument] on a negative [dt]. *)
val integrate_theta :
  Thermal.Model.t -> dt:float -> theta:Linalg.Vec.t -> psi:Linalg.Vec.t -> Linalg.Vec.t

(** [simulate model ~theta0 profile] integrates one period exactly from
    state [theta0], returning the states at every segment boundary —
    [theta0] first, final state last ([length profile + 1] entries). *)
val simulate :
  Thermal.Model.t -> theta0:Linalg.Vec.t -> Thermal.Matex.profile -> Linalg.Vec.t array

(** [stable_start model profile] solves Eq. (4) densely:
    [(I - K) theta* = d] with [K] the ordered product of the segment
    propagators and [d] one period simulated from the zero state. *)
val stable_start : Thermal.Model.t -> Thermal.Matex.profile -> Linalg.Vec.t

(** [stable_boundaries model profile] are the stable-status states at all
    segment boundaries, first and last equal. *)
val stable_boundaries : Thermal.Model.t -> Thermal.Matex.profile -> Linalg.Vec.t array

(** [peak_scan model ?samples_per_segment profile] is the hottest core
    over [samples_per_segment] (default 32) exact sub-steps of every
    segment of the stable-status period. *)
val peak_scan :
  Thermal.Model.t -> ?samples_per_segment:int -> Thermal.Matex.profile -> float

(** [peak_refined model ?samples_per_segment ?tol profile] is
    {!peak_scan} plus golden-section refinement around each segment's
    hottest sample, to time resolution [tol * duration] (default
    [tol = 1e-4]). *)
val peak_refined :
  Thermal.Model.t ->
  ?samples_per_segment:int ->
  ?tol:float ->
  Thermal.Matex.profile ->
  float
