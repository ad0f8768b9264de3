(** The sparse thermal engine: the counterpart of {!Modal} for the
    256–1024-cell grids the dense pipeline cannot reach.

    The dense pipeline ({!Model} + {!Modal}) pays an O(n³)
    eigendecomposition at build time.  This engine never forms a dense
    matrix, and amortizes candidate evaluation the way {!Modal} does,
    through unit-response tables — with no eigenbasis behind them:

    - build ({!of_spec}) is an O(nnz) CSR assembly of the symmetrized
      operator [M = C^{-1/2} G' C^{-1/2}] (pool-parallel across rows,
      deterministic at any pool size), then [n_cores + 1]
      Jacobi-preconditioned {!Linalg.Krylov.cg} solves for the unit
      steady responses, batched across the same pool;
    - every segment equilibrium thereafter is a superposition over the
      unit responses — no per-candidate CG steady solves;
    - the constant-voltage steady peak reads a precomputed
      core-row table, O(n_cores²) per candidate with zero allocation;
    - transient steps and walked segments are Lanczos
      {!Linalg.Krylov.expmv} applications of [e^{-dt M}] toward a
      superposed equilibrium;
    - the periodic stable status ({!stable}, mirroring {!Modal.stable})
      accumulates the drive [d] in per-domain scratch and evaluates the
      fixed point [y* = (I - e^{-T_p M})^{-1} d] from one Lanczos basis
      on the candidate's own drive, so results are bit-identical at any
      pool size.

    States are ambient-relative temperatures in symmetrized coordinates
    [y = C^{1/2} θ] ([M] is SPD there, which is what the Krylov kernels
    need); obtain them from {!ambient_state}/{!step_into} and read them
    through {!core_temps}/{!max_core_temp}.  Superposition is
    mathematically exact (the heat input is affine in the power
    vector), so the engine differs from the dense {!Modal}/{!Matex}
    answers only by Krylov truncation, with tolerances three orders of
    magnitude under the differential suite's 1e-9 bound.

    Like {!Modal}, the engine exports primitives only — state reads,
    steady reads, equilibria, steps, walked segments, the stable status
    and prepared-base deltas, each one call that borrows the engine's
    per-domain scratch at most once.  {!Backend.of_response} maps them
    field for field, and [Sched.Peak] turns whole profiles into
    answers, in-period scans included. *)

type t

type stats = {
  builds : int;  (** Engines constructed process-wide. *)
  superpose_evals : int;  (** Superposed equilibrium evaluations. *)
  stable_solves : int;  (** Stable statuses solved ({!stable}). *)
  base_solves : int;  (** Prepared bases ({!prepare_base}). *)
  delta_evals : int;  (** Delta candidate evaluations. *)
}

(** [of_spec ?pool spec] assembles the operator and solves the unit
    responses — O(k·nnz) assembly plus [n_cores + 1] preconditioned CG
    solves, both fanned across [pool] (default: the shared
    {!Util.Pool.get}) and bit-identical at any pool size.  Each call
    builds a new engine, with its own counters and its own per-domain
    scratch ({!Util.Per_domain}, freed with the engine); the holder (an
    evaluation context, usually) keeps it and hands it to everything
    that evaluates the same platform.  Fails with [Invalid_argument]
    from the preconditioner on a spec whose operator diagonal is not
    positive. *)
val of_spec : ?pool:Util.Pool.t -> Spec.t -> t

(** [spec t] is the problem description the engine was built from. *)
val spec : t -> Spec.t

(** [operator t] is the assembled SPD operator [M] (shared, read-only);
    {!Reduced} builds its Ritz basis on it. *)
val operator : t -> Linalg.Sparse.t

val n_cores : t -> int

(** [stats t] snapshots the counters ([builds] is process-wide). *)
val stats : t -> stats

(** {1 States} *)

(** [ambient_state t] is the all-ambient state ([y = 0]). *)
val ambient_state : t -> Linalg.Vec.t

(** [core_temps t state] / [max_core_temp t state] read absolute core
    temperatures straight off the state — O(n_cores). *)
val core_temps : t -> Linalg.Vec.t -> Linalg.Vec.t

val max_core_temp : t -> Linalg.Vec.t -> float

(** [correct_cores t ~state ~deltas] adds [deltas.(k)] kelvin to core
    [k]'s temperature reading, in place on the symmetrized state
    ([y_i += deltas.(k) * sqrt(C_i)] at the core's node); off-core nodes
    are untouched.  The measured-state restart hook observers correct
    through.  Raises [Invalid_argument] on arity mismatches. *)
val correct_cores : t -> state:Linalg.Vec.t -> deltas:Linalg.Vec.t -> unit

(** {1 Superposed responses} *)

(** [y_inf_into t dst psi] writes the equilibrium state under constant
    per-core powers [psi] into [dst] without allocating — bitwise a
    weighted sum of the unit responses, no solve; the backend's
    [equilibrium_into].  Raises [Invalid_argument] on arity
    mismatches. *)
val y_inf_into : t -> Linalg.Vec.t -> Linalg.Vec.t -> unit

(** [steady_core_into t dst ~pos psi] writes the ambient-relative
    steady core temperatures (superposed off the core-row table,
    O(n_cores²)) into [dst.(pos)] .. [dst.(pos + n_cores - 1)] — the
    static tier of a {!Reduced} state.  Raises [Invalid_argument] on a
    power-vector arity mismatch or a range outside [dst]. *)
val steady_core_into : t -> Linalg.Vec.t -> pos:int -> Linalg.Vec.t -> unit

(** [steady_peak t psi] is the hottest absolute steady core
    temperature, by superposition off the core-row table. *)
val steady_peak : t -> Linalg.Vec.t -> float

(** {1 Transient steps} *)

(** [step_into t ~dt ~state ~psi ~dst] writes the exact LTI advance of
    [state] by [dt] under constant powers [psi] into [dst]: the
    equilibrium superposes into [dst], then one [expmv] and a blit, no
    CG.  Raises [Invalid_argument] when [dst] aliases [state], on arity
    mismatches, or on a [dt] that is negative, infinite or NaN. *)
val step_into :
  t -> dt:float -> state:Linalg.Vec.t -> psi:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit

(** [sample_segment t ~dt ~samples ~eq ~walker] advances [walker] in
    place [samples] times by [dt] toward the equilibrium [eq] (a
    {!y_inf_into} result), one [expmv] per sub-step, and returns
    [(best_k, best_temp)]: the first sub-step (from 1) reaching the
    hottest core temperature seen, and that temperature.  Raises
    [Invalid_argument] on a sample count below 1, a [dt] that is
    negative, infinite or NaN, or arity mismatches. *)
val sample_segment :
  t -> dt:float -> samples:int -> eq:Linalg.Vec.t -> walker:Linalg.Vec.t -> int * float

(** {1 Stable status}

    [stable t ~t_p spans] is the stable state at the period boundary of
    a periodic profile with period [t_p] (a fresh vector), the candidate
    hot path, mirroring {!Modal.stable}: [spans feed] calls [feed
    ~duration ~psi] once per segment, in period order; each feed
    superposes the segment's equilibrium allocation-free into this
    domain's scratch, then applies one [e^{-dt M}] to the drive.  Pool
    workers each see their own scratch (per engine and domain), so
    concurrent candidates never share partial sums.  [spans] may
    evaluate on other engines between feeds, but must not start another
    stable status on [t] itself.  Raises [Invalid_argument] on a
    non-positive (or NaN) period or duration. *)
val stable :
  t -> t_p:float -> ((duration:float -> psi:Linalg.Vec.t -> unit) -> unit) -> Linalg.Vec.t

(** {1 Prepared-base delta evaluation}

    The TPT-loop hot path (DESIGN.md §14), sparse flavour: a two-mode
    config's stable status factors per core as a spectral weight
    [h_i(M)] applied to that core's unit response, so the base solves
    once through per-core prepared Lanczos bases ({!Linalg.Krylov.prepare}
    — f-independent, grown lazily, reused by every candidate) and a
    candidate changing one core's duty cycle needs only the core-node
    reads of a rank-one spectral correction: O(m · n_cores) per
    candidate, no basis on the candidate's own drive.

    All state (including the prepared bases, which are mutable and not
    domain-safe) lives in the engine's per-domain scratch, disjoint
    from the {!stable} arrays — prepare and evaluate on the
    same domain; exact evaluations interleaved between deltas do not
    disturb the base. *)

(** [prepare_base t ~t_p ~psi_low ~psi_high ~high_ratio] prepares the
    base config of period [t_p] on this domain (core [i] at
    [psi_low.(i)]/[psi_high.(i)], high for the fraction
    [high_ratio.(i)]; boundary snapping replicates the exact decomposed
    path's 1e-12 clamps) and arms the delta evaluators.  Same
    exceptions as {!Modal.prepare_base}. *)
val prepare_base :
  t ->
  t_p:float ->
  psi_low:Linalg.Vec.t ->
  psi_high:Linalg.Vec.t ->
  high_ratio:float array ->
  unit

(** [delta_peak t ~core ~psi_low ~psi_high ~high_ratio] is the hottest
    end-of-period core temperature of the delta candidate, from
    core-node reads only. *)
val delta_peak :
  t -> core:int -> psi_low:float -> psi_high:float -> high_ratio:float -> float

(** [delta_core_temp t ~at ~core ~psi_low ~psi_high ~high_ratio] is the
    delta candidate's end-of-period temperature at core [at]. *)
val delta_core_temp :
  t -> at:int -> core:int -> psi_low:float -> psi_high:float ->
  high_ratio:float -> float
