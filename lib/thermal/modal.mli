(** Modal (eigenbasis) thermal evaluation engine — the hot path behind
    {!Matex}, the dense {!Backend} (and so {!Sched.Peak}) and the
    {!Runtime.Loop} plant.

    {!Model.make} already diagonalizes [A = W diag(lambda) W^{-1}] with
    real negative [lambda], so the whole simulation can run in modal
    coordinates [z = W^{-1} theta], where propagating over ANY [dt] is an
    O(n) diagonal scale:

    {[ z(t) = z_inf + e^{lambda t} . (z(0) - z_inf) ]}

    with [z_inf = W^{-1} theta_inf(psi)].

    On top of the modal basis the engine is a {e linear-response
    superposition} engine: because the model is linear and
    [theta_inf] is affine in [psi] (the leakage drive [beta T_amb]
    enters every core identically),

    {[ z_inf(psi) = sum_i (psi_i + beta T_amb) . z_inf(e_i) ]}

    so the per-core unit responses [z_inf(e_i)] — solved once with the
    reference LU path when the engine is built — turn every subsequent
    equilibrium into an O(n * n_cores) multiply-add with zero LU solves.
    Decay factors [e^{lambda dt}] are amortized in a per-duration table
    (policy sweeps reuse a handful of durations thousands of times), and
    {!stable} evaluates a candidate's stable status into per-domain
    scratch buffers.  States advance by {!step} / {!step_into}, or —
    when one equilibrium serves many sub-steps, as in the in-period walk
    of [Sched.Peak] — by {!z_inf_into} once and one {!sample_segment}
    (or {!walk}) per segment.

    An engine is a plain value owning its per-domain scratch
    ({!Util.Per_domain}): {!make} builds one and its holder keeps it.
    Every call below is one whole question — a stable status, a walked
    segment, a prepared base, a delta candidate — and borrows that
    scratch once, at entry.
    The decay/gain table is one per domain, its rows tagged with the
    model's eigenvalue vector, so engines over one model share warm rows
    and engines over different models never read each other's.  Engines
    are safe to share across domains.
    This is the library's only transient path: the dense node-space
    stepping of Eqs. (3)-(4) exists only as a test oracle, and the
    property tests diff the two to <= 1e-9. *)

type t
(** A modal evaluation engine bound to a {!Model.t}.  Immutable eigendata
    and response tables plus per-domain scratch; share freely across
    domains. *)

(** Amortization counters of one engine (plus the process-wide build
    count), for observability of the response-engine hot path. *)
type stats = {
  builds : int;  (** Engines built process-wide (unit-response solves). *)
  superpose_evals : int;  (** Superposition equilibrium evaluations. *)
  exp_hits : int;
      (** Decay/gain lookups answered from the table.  A stable status
          looks up once per span plus once for the period, a
          {!sample_segment} or {!walk} call once for all its
          sub-steps. *)
  exp_misses : int;  (** Decay/gain lookups that computed. *)
  base_solves : int;  (** Prepared bases ({!prepare_base}). *)
  delta_evals : int;  (** Delta candidate evaluations. *)
}

(** [make model] builds an engine over [model]: one LU solve per core
    for the unit-response table, microseconds on the paper's platforms.
    Each call returns a new engine with zeroed counters, so keep the
    engine rather than calling [make] per evaluation. *)
val make : Model.t -> t

(** [model t] is the underlying thermal model. *)
val model : t -> Model.t

(** [eigenvalues t] is a copy of the (all negative) mode eigenvalues,
    slowest first. *)
val eigenvalues : t -> Linalg.Vec.t

(** [stats t] snapshots the engine's amortization counters. *)
val stats : t -> stats

(** [to_modal t theta] is [z = W^{-1} theta]. *)
val to_modal : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [of_modal t z] is [theta = W z]. *)
val of_modal : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [ambient_state t] is the modal image of the ambient (all-zero theta)
    state — also all zeros. *)
val ambient_state : t -> Linalg.Vec.t

(** [z_inf t psi] is the modal steady state, composed from the unit
    responses by superposition — no LU solve.  Agrees with
    [W^{-1} theta_inf(psi)] to machine precision (<= 1e-9 guaranteed by
    the differential suite). *)
val z_inf : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [z_inf_into t dst psi] writes {!z_inf}[ t psi] into [dst] without
    allocating.  Raises [Invalid_argument] on arity mismatches. *)
val z_inf_into : t -> Linalg.Vec.t -> Linalg.Vec.t -> unit

(** [steady_peak t psi] is the hottest steady-state core temperature
    under constant powers [psi], by superposition on the core-row
    response table — O(n_cores^2), allocation-free. *)
val steady_peak : t -> Linalg.Vec.t -> float

(** [step t ~dt ~z ~psi] advances a modal state by [dt] under constant
    powers [psi] — Eq. (3) in modal coordinates, O(n), allocating the
    result.  Prefer {!step_into}, or {!z_inf_into} plus
    {!sample_segment}, when the same [(dt, psi)] recurs.  Raises
    [Invalid_argument] on a [dt] that is negative, infinite or NaN, or
    on arity mismatches. *)
val step : t -> dt:float -> z:Linalg.Vec.t -> psi:Linalg.Vec.t -> Linalg.Vec.t

(** [step_into t ~dt ~z ~psi ~dst] writes {!step}'s result into [dst]
    without allocating: the equilibrium superposes straight into [dst]
    and the decay factors amortize through the per-domain duration
    table, so a control loop stepping at one fixed [dt] pays [n]
    multiply-adds per call.  Bit-identical to {!step}.  Raises
    [Invalid_argument] when [dst] aliases [z], on arity mismatches, or
    on a [dt] that is negative, infinite or NaN. *)
val step_into :
  t -> dt:float -> z:Linalg.Vec.t -> psi:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit

(** [sample_segment t ~dt ~samples ~eq ~walker] advances [walker] in
    place [samples] times by [dt] toward the equilibrium [eq] (a
    {!z_inf_into} result) — [D_dt . z + g_dt . eq] per mode, with
    [D_dt = e^{lambda dt}] and [g_dt = -expm1(lambda dt)] looked up
    once in the per-domain duration table — and returns
    [(best_k, best_temp)]: the first sub-step (from 1) reaching the
    hottest core temperature seen, and that temperature.  With
    [~samples:1] and the whole duration it is one exact step, the
    boundary step of an in-period walk.  Allocation-free apart from the
    result pair.  {!step} rounds differently ([eq + D_dt (z - eq)]) and
    agrees to machine precision.  Raises [Invalid_argument] on a sample
    count below 1, a [dt] that is negative, infinite or NaN, or arity
    mismatches. *)
val sample_segment :
  t -> dt:float -> samples:int -> eq:Linalg.Vec.t -> walker:Linalg.Vec.t -> int * float

(** [walk t ~dt ~samples ~eq ~walker visit] takes the same sub-steps as
    {!sample_segment} and calls [visit k walker] after the [k]-th
    (read [walker] during the call; do not keep it).  One table lookup
    per call, copied out first, so [visit] may evaluate anything — the
    dense traces and transient walks of {!Matex} sample through it.
    Same exceptions as {!sample_segment}. *)
val walk :
  t ->
  dt:float ->
  samples:int ->
  eq:Linalg.Vec.t ->
  walker:Linalg.Vec.t ->
  (int -> Linalg.Vec.t -> unit) ->
  unit

(** [core_temps t z] are the absolute core temperatures of modal state
    [z], read through the precomputed core rows of [W] — O(n_cores * n),
    no full basis transform. *)
val core_temps : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [max_core_temp t z] is the hottest absolute core temperature of
    modal state [z]; allocation-free. *)
val max_core_temp : t -> Linalg.Vec.t -> float

(** {2 Stable status}

    [stable t ~t_p spans] is the stable state at the period boundary of
    a periodic profile with period [t_p]: [spans feed] must call [feed
    ~duration ~psi] once per constant-power segment, in period order.
    Because [K = prod e^{A dt_q}] is diagonal in modal space, the
    [(I - K)^{-1}] solve of Eq. (4) collapses to a per-mode division.
    The drive accumulates in per-domain scratch, so pool workers never
    contend or cross-contaminate, and the returned vector is that
    scratch: read it before the next stable status on this domain.
    [spans] may evaluate on other engines between feeds, but must not
    start another stable status on [t] itself.  Raises
    [Invalid_argument] on a non-positive (or NaN) period or duration. *)
val stable :
  t -> t_p:float -> ((duration:float -> psi:Linalg.Vec.t -> unit) -> unit) -> Linalg.Vec.t

(** {2 Prepared-base delta evaluation}

    The TPT-loop hot path (DESIGN.md §14): capture an aligned two-mode
    config's accumulated drive once ({!prepare_base}), then evaluate
    candidates that change a {e single} core's duty cycle or voltages
    in O(n) each — the base stable status plus one rescaled unit
    response — instead of a full O(n · n_cores) re-superposition.
    Same-voltage deltas (the TPT loops only move duty cycles) are
    evaluated cancellation-free through an [expm1]-backed gain factor.

    The prepared base lives in per-domain scratch DISJOINT from the
    {!stable} state: exact evaluations interleaved between delta
    candidates (winner verification) do not disturb it.  Like all
    per-domain scratch, a base prepared on one domain is invisible on
    others — prepare and evaluate on the same domain.  Boundary snapping
    replicates the exact decomposed path's 1e-12 clamps, so delta and
    full evaluations agree to the differential suite's 1e-9. *)

(** [prepare_base t ~t_p ~psi_low ~psi_high ~high_ratio] prepares, on
    this domain, the base config of period [t_p] in which core [i]
    draws [psi_low.(i)]/[psi_high.(i)] (pre-leakage, as
    {!Power.Power_model.psi} returns them) and runs high for the
    fraction [high_ratio.(i)] of the period, and arms the delta
    evaluators.  Raises [Invalid_argument] on a period that is not
    finite and positive, arrays whose length is not the core count, or
    a ratio outside [[-1e-12, 1 + 1e-12]] (NaN included); the domain
    then has no prepared base. *)
val prepare_base :
  t ->
  t_p:float ->
  psi_low:Linalg.Vec.t ->
  psi_high:Linalg.Vec.t ->
  high_ratio:float array ->
  unit

(** [delta_peak t ~core ~psi_low ~psi_high ~high_ratio] is the hottest
    end-of-period core temperature of the delta candidate. *)
val delta_peak :
  t -> core:int -> psi_low:float -> psi_high:float -> high_ratio:float -> float

(** [delta_core_temp t ~at ~core ~psi_low ~psi_high ~high_ratio] is the
    delta candidate's end-of-period temperature at core [at] — the
    hottest-core read the TPT adjustment scan scores candidates by. *)
val delta_core_temp :
  t -> at:int -> core:int -> psi_low:float -> psi_high:float ->
  high_ratio:float -> float

(** [two_mode_core_shape ~t_p ~high_ratio] is one core's snapped shape
    for both engines' delta evaluators: [(-1, t_p)] all-low, [(1, 0.)]
    all-high, or [(0, ll)] with leading low duration [ll].  Raises
    [Invalid_argument] on a ratio outside [[-1e-12, 1 + 1e-12]] or NaN. *)
val two_mode_core_shape : t_p:float -> high_ratio:float -> int * float
