(** Uniform thermal-evaluation backend interface.

    Policies and experiment drivers ask a small set of questions —
    steady peaks, stable-status temperatures, scanned/refined period
    peaks, transient steps — and must not care which of three engines
    answers them: the dense modal engine ({!Modal}, O(n³) build, exact
    eigenbasis), the sparse engine ({!Sparse_response}, O(nnz) assembly
    plus [n_cores + 1] CG unit solves, Lanczos transients), or the
    reduced model screening scores candidates on ({!Reduced}, k
    retained modes over the sparse engine's static tables, approximate
    between steady states).  A backend is a record of closures over one
    of those engines, and every field answers one whole question in one
    call: the engine borrows its per-domain scratch once, at entry.
    {!Sched.Peak} writes each evaluator once against it — steady peaks
    through the [steady_*] fields, every period-boundary stable status
    (whole profiles and the fused two-mode candidates alike) through
    {!field:stable}, the scanned and refined in-period peaks by walking
    the stable period one {!field:sample_segment} per segment and
    probing with {!field:step_into}, the TPT delta scans through
    {!field:prepare_base} and the [delta_*] fields — and {!Core.Eval}
    holds one, so every registered policy runs unchanged on either
    implementation.

    States are opaque to callers: modal coordinates for the dense
    backend, symmetrized node coordinates for the sparse one, retained
    coordinates plus a static tier for the reduced one.  Obtain
    them only from {!field:ambient_state}/{!field:step_into} of the SAME
    backend and read them through {!field:core_temps}/
    {!field:max_core_temp}.  The differential suite pins the exact
    implementations to each other to ≤ 1e-9, and the reduced one to
    them when it retains every mode. *)

type t = {
  name : string;
      (** ["dense-modal"], ["sparse-response"] or ["sparse-reduced"]. *)
  n_cores : int;
  ambient_state : unit -> Linalg.Vec.t;  (** The all-ambient state. *)
  step_into :
    dt:float -> state:Linalg.Vec.t -> psi:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit;
      (** Exact LTI advance of [state] by [dt] under constant per-core
          powers, written into a caller-owned buffer [dst] (same length
          as [state], physically distinct from it) — the epoch loop's
          ping-pong hook.  Allocation-free on the dense and reduced
          backends; the sparse one applies one [expmv] and blits.  [Invalid_argument]
          when [dst] aliases [state], or on a [dt] that is negative,
          infinite or NaN. *)
  correct_cores : state:Linalg.Vec.t -> deltas:Linalg.Vec.t -> unit;
      (** In-place measured-state correction: add [deltas.(k)] kelvin to
          core [k]'s temperature reading, mapped into the backend's
          opaque state coordinates; off-core nodes are untouched.  The
          restart hook observers correct estimates through — the only
          way to edit a state without knowing its coordinate system. *)
  core_temps : Linalg.Vec.t -> Linalg.Vec.t;
      (** Absolute core temperatures of a state. *)
  max_core_temp : Linalg.Vec.t -> float;
  steady_peak : Linalg.Vec.t -> float;
  equilibrium_into : psi:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit;
      (** The equilibrium state under constant per-core powers [psi],
          superposed into [dst] (a state-length buffer) — the [eq] that
          {!field:sample_segment} steps toward. *)
  sample_segment :
    dt:float -> samples:int -> eq:Linalg.Vec.t -> walker:Linalg.Vec.t -> int * float;
      (** One walked segment: advance [walker] in place [samples] times
          by [dt] toward the equilibrium [eq] and return
          [(best_k, best_temp)], the first sub-step (from 1) reaching
          the hottest core temperature seen and that temperature.  The
          dense engine looks its decay row up once per call and reads
          the hottest core inline; the sparse one applies one [expmv]
          per sub-step; the reduced one decays its k retained
          coordinates in closed form.  [~samples:1] over the whole duration is one
          exact step, the boundary step of an in-period walk.
          [Invalid_argument] on a sample count below 1 or a [dt] that is
          negative, infinite or NaN. *)
  stable :
    t_p:float -> ((duration:float -> psi:Linalg.Vec.t -> unit) -> unit) -> Linalg.Vec.t;
      (** The period-[t_p] stable status, the candidate hot path:
          [stable ~t_p spans] hands [spans] a feed, which it calls once
          per constant-power span in period order, then solves the
          fixed point.  The returned state is read through
          {!field:core_temps}/{!field:max_core_temp} and may be
          per-domain scratch: read it before the next stable status on
          this domain.  [spans] may evaluate on other backends between
          feeds, but not start another stable status on this one.
          [Invalid_argument] on a non-positive period or duration. *)
  prepare_base :
    t_p:float ->
    psi_low:Linalg.Vec.t ->
    psi_high:Linalg.Vec.t ->
    high_ratio:float array ->
    unit;
      (** Prepared-base delta evaluation (DESIGN.md §14): solve, on this
          domain, the base two-mode config of period [t_p] whose core
          [i] draws [psi_low.(i)]/[psi_high.(i)] and runs high for the
          fraction [high_ratio.(i)], and arm the delta reads.  The base
          is per-domain and untouched by interleaved stable statuses;
          it stays prepared until the next [prepare_base] on this
          domain. *)
  delta_peak : core:int -> psi_low:float -> psi_high:float -> high_ratio:float -> float;
      (** End-of-period stable peak of the prepared base with core
          [core]'s terms replaced. *)
  delta_core_temp :
    at:int -> core:int -> psi_low:float -> psi_high:float -> high_ratio:float -> float;
      (** The same candidate's end-of-period temperature at core [at]. *)
}

(** [of_modal eng] is the dense reference backend: the {!Modal}
    response engine [eng] behind the uniform interface (correction
    columns built on first use). *)
val of_modal : Modal.t -> t

(** [of_model model] is [of_modal (Modal.make model)], a new engine per
    call, for callers holding only a model; code that evaluates one
    platform repeatedly keeps the engine (or a [Core.Eval] context). *)
val of_model : Model.t -> t

(** [of_response eng] is the sparse backend: the {!Sparse_response}
    engine [eng] behind the uniform interface, field for field — steady
    and stable evaluators superpose over its unit-response tables, which
    the engine solved once at construction. *)
val of_response : Sparse_response.t -> t

(** [of_reduced rom] is the screening backend: the {!Reduced} model
    [rom] behind the same interface, field for field, so screened
    searches score candidates with the evaluators that re-verify their
    survivors on an exact backend.  Its steady peaks are the sparse
    engine's under [rom] (the reduction is exact at steady state).  The
    exact-only fields — {!field:correct_cores}, {!field:prepare_base},
    {!field:delta_peak} and {!field:delta_core_temp} — raise
    [Invalid_argument]. *)
val of_reduced : Reduced.t -> t
