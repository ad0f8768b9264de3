(** Linear-response superposition engine for the sparse backend.

    The dense pipeline amortizes candidate evaluation through
    {!Modal}'s unit-response tables: per-core unit steady responses are
    solved once per platform, after which every candidate equilibrium
    is an O(n · n_cores) superposition and every stable-status solve
    streams segments through per-domain scratch.  This module is the
    same idea ported to {!Sparse_model}, where no eigenbasis exists:

    - build solves the [n_cores + 1] unit steady systems once, by
      pool-parallel preconditioned CG ({!Sparse_model.steady_batch});
    - every segment equilibrium thereafter is a superposition over the
      unit responses — no per-candidate CG steady solves;
    - the constant-voltage steady peak reads a precomputed
      core-row table, O(n_cores²) per candidate with zero allocation;
    - the periodic stable status accumulates the drive [d] through
      allocation-free streaming feeds ({!stable_begin}/{!stable_feed}/
      {!stable_solve}, mirroring {!Modal}'s API; the [e^{-dt M}]
      applications still build their Krylov bases) and evaluates the
      fixed point [y* = (I - e^{-T_p M})^{-1} d] from one Lanczos basis
      on the candidate's own drive, so results are bit-identical at any
      pool size.

    Superposition is mathematically exact (the heat input is affine in
    the power vector); the engine differs from per-candidate
    {!Sparse_model} solves only by Krylov truncation, three orders of
    magnitude under the differential suite's 1e-9 bound.

    Like {!Modal}, the engine exports primitives only — steady reads,
    equilibria, steps, the stable stream and prepared-base deltas.
    {!Backend.of_response} wraps them, and [Sched.Peak] turns whole
    profiles into answers, in-period scans included. *)

type t

type stats = {
  builds : int;  (** Engines constructed process-wide. *)
  superpose_evals : int;  (** Superposed equilibrium evaluations. *)
  stable_solves : int;  (** Streaming stable-status fixed points solved. *)
  base_solves : int;  (** Prepared-base builds ({!base_solve}). *)
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
val ambient : t -> float

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
    equilibrium: one [expmv], no CG. *)
val step : t -> dt:float -> state:Linalg.Vec.t -> psi:Linalg.Vec.t -> Linalg.Vec.t

(** {1 Streaming stable-status evaluation}

    The candidate hot path, mirroring {!Modal.stable_begin}/
    [stable_feed]/[stable_solve]: fold a periodic profile's segments
    through per-domain scratch (each feed superposes the segment's
    equilibrium allocation-free, then applies one [e^{-dt M}]), then
    solve the fixed point.  Pool workers each see their own scratch
    (per engine and domain), so concurrent candidates never share
    partial sums. *)

(** [stable_begin t] resets this domain's accumulated drive. *)
val stable_begin : t -> unit

(** [stable_feed t ~duration ~psi] folds one segment into the drive.
    Raises [Invalid_argument] on a non-positive duration. *)
val stable_feed : t -> duration:float -> psi:Linalg.Vec.t -> unit

(** [stable_solve t ~t_p] solves the period-[t_p] fixed point from the
    accumulated drive and returns the stable state at the period
    boundary (a fresh vector). *)
val stable_solve : t -> t_p:float -> Linalg.Vec.t

(** {1 Prepared-base delta evaluation}

    The TPT-loop hot path (DESIGN.md §14), sparse flavour: a two-mode
    config's stable status factors per core as a spectral weight
    [h_i(M)] applied to that core's unit response, so the base solves
    once through per-core prepared Lanczos bases ({!Linalg.Krylov.prepare}
    — f-independent, grown lazily, reused by every candidate) and a
    candidate changing one core's duty cycle needs only the core-node
    reads of a rank-one spectral correction: O(m · n_cores) per
    candidate, no funmv stream, no new basis.

    All state (including the prepared bases, which are mutable and not
    domain-safe) lives in the engine's per-domain scratch, disjoint
    from the streaming [stable_*] arrays — prepare and evaluate on the
    same domain; exact evaluations interleaved between deltas do not
    disturb the base. *)

(** [base_begin t ~t_p] starts preparing a base config with period
    [t_p] on this domain. *)
val base_begin : t -> t_p:float -> unit

(** [base_feed t ~core ~psi_low ~psi_high ~high_ratio] records core
    [core]'s two-mode terms (boundary snapping replicates the exact
    decomposed path's 1e-12 clamps).  Every core must be fed before
    {!base_solve}. *)
val base_feed :
  t -> core:int -> psi_low:float -> psi_high:float -> high_ratio:float -> unit

(** [base_solve t] solves the prepared base's stable status and arms the
    delta evaluators; returns this domain's scratch base vector. *)
val base_solve : t -> Linalg.Vec.t

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
