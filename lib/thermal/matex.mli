(** Analytic transient and periodic-steady-state analysis for piecewise-
    constant power profiles (the MatEx method, reference [28] of the
    paper).

    A {!profile} is one period of a periodic power schedule: a sequence of
    segments, each holding a duration and the per-core power vector
    [psi].  Within a segment the system is LTI, so Eq. (3) steps it
    exactly; across a period, the stable status of Eq. (4) is obtained by
    solving [(I - K) theta* = theta_one_period] where [K = e^{A t_p}] is
    the product of the per-segment exponentials [e^{A dt_q}].

    This module holds the profile type every engine consumes, its
    validation, the golden-section search every refined peak probes
    with, and the few questions only the dense engine answers: the
    node-space stable state, the Fig. 4 trace, and the transient
    (non-periodic) walks from a given start.  They run on a {!Modal}
    response engine: equilibria come from unit-response superposition
    (zero LU solves per profile), decay factors from the per-duration
    table, each sample is O(n) element-wise work, and the [(I - K)^{-1}]
    solve is a per-mode division.  Every per-platform question — the
    step-up peak of Theorem 1, the end-of-period core temperatures, and
    the scanned and refined in-period peaks — is answered once, for
    every engine, by [Sched.Peak] over a {!Backend.t}. *)

type segment = { duration : float; psi : Linalg.Vec.t }

type profile = segment list
(** One period.  Durations must be positive; all [psi] must have one
    entry per model core. *)

(** [period profile] is the sum of segment durations. *)
val period : profile -> float

(** [spans profile feed] calls [feed ~duration ~psi] on every segment in
    period order: the span iterator the engines' one-call stable
    statuses ({!Modal.stable}, {!Sparse_response.stable},
    {!Reduced.stable}) take for a whole profile. *)
val spans : profile -> (duration:float -> psi:Linalg.Vec.t -> unit) -> unit

(** [validate n_cores profile] raises [Invalid_argument] on empty
    profiles, durations that are not finite and positive, power vectors
    whose arity is not [n_cores], or non-finite powers.  [Sched.Peak]
    checks every {!Backend}'s profiles here, and {!stable_start} its
    own, so all of them reject bad input with the same messages. *)
val validate : int -> profile -> unit

(** [stable_start model profile] is the ambient-relative node-space
    state at the period boundary once the repetition has converged to the
    thermal stable status.  Kept because it is the only accessor of the
    full node-space stable state on the modal path ({!Backend} states
    are modal coordinates and read back only at the cores); the
    differential suites pin the other engines' stable statuses to it. *)
val stable_start : Model.t -> profile -> Linalg.Vec.t

(** [stable_core_trace model ~samples_per_segment profile] samples the
    stable-status period densely and returns [(time, absolute core
    temperatures)] pairs covering one period, boundaries included.  Kept
    for the Fig. 4 experiment, which plots it; no backend hook samples a
    whole period.  Like {!time_to_threshold} and {!mission_peak}, raises
    [Invalid_argument] on a sample count below 1. *)
val stable_core_trace :
  Model.t -> samples_per_segment:int -> profile -> (float * Linalg.Vec.t) array

(** [golden_max f a b tol] maximizes [f] over [[a, b]] by golden-section
    search down to an interval of width [tol].  Exact for [f] unimodal on
    the bracket; otherwise still a value [f] attains.  The one
    refinement search: [Sched.Peak.profile_refined_peak] probes every
    engine with it, so all engines sample the same abscissae.  Raises
    [Invalid_argument] on a [tol] that is not finite and positive. *)
val golden_max : (float -> float) -> float -> float -> float -> float

(** [time_to_threshold model ?theta0 ?max_periods ?samples_per_segment
    ~threshold profile] repeats [profile] from state [theta0] (default:
    ambient) and returns the first time the hottest core reaches
    [threshold] (bisected inside the bracketing sub-interval to
    microsecond-level accuracy), or [None] when it never does within
    [max_periods] repetitions (default 1000) — e.g. because the stable
    status stays below the threshold.  This answers the reactive-DTM
    question: how long after an aggressive schedule starts does the chip
    have before an emergency?  Kept for [Core.Sprint], which sizes its
    bursts with it; no other layer answers a transient-from-ambient
    question. *)
val time_to_threshold :
  Model.t ->
  ?theta0:Linalg.Vec.t ->
  ?max_periods:int ->
  ?samples_per_segment:int ->
  threshold:float ->
  profile ->
  float option

(** [mission_peak model ?theta0 ?samples_per_segment segments] is the
    hottest core temperature over a ONE-SHOT (non-repeating) sequence of
    power segments starting from [theta0] (default: ambient) — mission-
    profile analysis, e.g. boot + burst + settle.  Unlike the scans of
    [Sched.Peak] there is no stable-status solve; the trajectory is
    simulated once with dense sampling.  Returns the peak and the final state.  Kept as
    the library's one non-periodic evaluator, a README feature. *)
val mission_peak :
  Model.t ->
  ?theta0:Linalg.Vec.t ->
  ?samples_per_segment:int ->
  profile ->
  float * Linalg.Vec.t
