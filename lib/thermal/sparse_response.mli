(** Linear-response superposition engine for the sparse backend.

    The dense pipeline amortizes candidate evaluation through
    {!Modal}'s unit-response tables: per-core unit steady responses are
    solved once per platform, after which every candidate equilibrium
    is an O(n · n_cores) superposition and every stable-status solve
    folds segments through per-domain scratch.  This module is the
    same idea ported to {!Sparse_model}, where no eigenbasis exists:

    - build solves the [n_cores + 1] unit steady systems once, by
      pool-parallel preconditioned CG ({!Sparse_model.steady_batch});
    - every segment equilibrium thereafter is a superposition over the
      unit responses — no per-candidate CG steady solves;
    - the constant-voltage steady peak reads a precomputed
      core-row table, O(n_cores²) per candidate with zero allocation;
    - the periodic stable status ({!stable}, mirroring {!Modal.stable})
      accumulates the drive [d] in per-domain scratch (the [e^{-dt M}]
      applications still build their Krylov bases) and evaluates the
      fixed point [y* = (I - e^{-T_p M})^{-1} d] from one Lanczos basis
      on the candidate's own drive, so results are bit-identical at any
      pool size.

    Superposition is mathematically exact (the heat input is affine in
    the power vector); the engine differs from per-candidate
    {!Sparse_model} solves only by Krylov truncation, three orders of
    magnitude under the differential suite's 1e-9 bound.

    Like {!Modal}, the engine exports primitives only — steady reads,
    equilibria, steps, the stable status and prepared-base deltas, each
    one call that borrows the engine's per-domain scratch once.
    {!Backend.of_response} wraps them, and [Sched.Peak] turns whole
    profiles into answers, in-period scans included. *)

type t

type stats = {
  builds : int;  (** Engines constructed process-wide. *)
  superpose_evals : int;  (** Superposed equilibrium evaluations. *)
  stable_solves : int;  (** Stable statuses solved ({!stable}). *)
  base_solves : int;  (** Prepared bases ({!prepare_base}). *)
  delta_evals : int;  (** Delta candidate evaluations. *)
}

(** [build eng] solves the unit responses and assembles the tables —
    [n_cores + 1] preconditioned CG solves fanned across the engine's
    pool.  Each call builds a new engine, with its own counters and its
    own per-domain scratch ({!Util.Per_domain}, freed with the engine);
    the holder (an evaluation context, usually) keeps it and hands it to
    everything that superposes over the same platform. *)
val build : Sparse_model.t -> t

(** [engine t] is the sparse engine the responses were solved on. *)
val engine : t -> Sparse_model.t

val n_nodes : t -> int
val n_cores : t -> int

(** [stats t] snapshots the counters ([builds] is process-wide). *)
val stats : t -> stats

(** [y_inf t psi] is the superposed equilibrium state under constant
    per-core powers — bitwise a weighted sum of the unit responses, no
    solve. *)
val y_inf : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [y_inf_into t dst psi] writes {!y_inf}[ t psi] into [dst] without
    allocating — the backend's [equilibrium_into].  Raises
    [Invalid_argument] on arity mismatches. *)
val y_inf_into : t -> Linalg.Vec.t -> Linalg.Vec.t -> unit

(** [steady_core_into t dst psi] writes the ambient-relative steady
    core temperatures (superposed off the core-row table, O(n_cores²))
    into [dst] — the static tier {!Reduced}'s screening evaluators sit
    on. *)
val steady_core_into : t -> Linalg.Vec.t -> Linalg.Vec.t -> unit

(** [steady_core_temps t psi] / [steady_peak t psi] are the absolute
    steady core temperatures / their maximum, by superposition. *)
val steady_core_temps : t -> Linalg.Vec.t -> Linalg.Vec.t

val steady_peak : t -> Linalg.Vec.t -> float

(** [step t ~dt ~state ~psi] — exact LTI advance with a superposed
    equilibrium: one [expmv], no CG.  Raises [Invalid_argument] on a
    [dt] that is negative, infinite or NaN. *)
val step : t -> dt:float -> state:Linalg.Vec.t -> psi:Linalg.Vec.t -> Linalg.Vec.t

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
