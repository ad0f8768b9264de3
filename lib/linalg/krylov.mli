(** Matrix-free Krylov kernels for symmetric positive (semi-)definite
    operators.

    The sparse thermal backend works in symmetrized coordinates where
    the conductance operator [M = C^{-1/2} G' C^{-1/2}] is SPD, so
    four kernels cover every solve the engine needs:

    - {!cg} — steady states ([M y = b], SPD);
    - {!expmv} — the transient action [e^{-t M} v] via the Lanczos
      approximation, never forming the dense exponential;
    - {!prepare} with {!prepared_apply}/{!prepared_apply_at} — [f(M) v]
      for smooth positive [f] from one reusable Lanczos basis: the
      periodic fixed point [(I - e^{-T M})^{-1} d] and the delta tier's
      per-core spectral weights;
    - {!smallest_eigs} — shift-invert Lanczos Ritz pairs of the slowest
      modes, feeding the reduced-order model ({!Thermal.Reduced}).

    Every Lanczos tridiagonal [T_m] is diagonalized at one internal
    site, and [f(T_m) e1] is formed by one internal routine shared by
    {!expmv} and the prepared ladder.

    Everything here is matrix-free: operators are plain [Vec.t -> Vec.t]
    closures, typically {!Sparse.spmv} partial applications.  All
    iterations are deterministic — fixed start vectors, fixed sweep
    orders — so results are bit-reproducible across runs and pool sizes
    (lint rule R4). *)

(** [jacobi d] is the diagonal (Jacobi) preconditioner [r ↦ r ./ d] for
    {!cg}, built from {!Sparse.diagonal}.  Raises [Invalid_argument] if
    some [d.(i)] is not strictly positive — the SPD operators here
    always have positive diagonals. *)
val jacobi : Vec.t -> Vec.t -> Vec.t

(** [cg ?tol ?max_iter ?precond ?x0 apply b] solves [A x = b] for an SPD
    operator [apply : x ↦ A x] by (preconditioned) conjugate gradients
    from [x0] (default the zero vector).  Stops when [‖r‖₂ ≤ tol · ‖b‖₂]
    (default [tol = 1e-13]) — relative to [b], not to the initial
    residual, so a warm start tightens nothing and loosens nothing, it
    only shortens the iteration.  Callers wanting determinism across
    pool sizes must derive [x0] from the candidate being solved, never
    from worker-local history.  [max_iter] defaults to [20 n + 100];
    non-convergence and detected indefiniteness raise [Failure] rather
    than returning a silently wrong answer. *)
val cg :
  ?tol:float ->
  ?max_iter:int ->
  ?precond:(Vec.t -> Vec.t) ->
  ?x0:Vec.t ->
  (Vec.t -> Vec.t) ->
  Vec.t ->
  Vec.t

(** [expmv ?tol ?m_max apply ~t v] approximates [e^{-t A} v] for a
    symmetric positive semi-definite operator [apply] and [t ≥ 0].

    A Lanczos basis (full reorthogonalization, so the tridiagonal
    projection stays trustworthy in floating point) is grown until the
    a-posteriori estimate [β₀ · β_m · |(e^{-t T_m})_{m,1}|] drops below
    [tol · ‖v‖₂] (default [tol = 1e-12]; never trusted at [m = 1],
    where a large [t] zeroes it before any slow mode is resolved), the
    basis spans an invariant
    subspace (happy breakdown — the result is then exact), or the basis
    hits [min n m_max] (default [m_max = 64]).  In the last case the
    step is split as [e^{-tA} = (e^{-tA/2})²] and both halves recurse,
    so stiff operators with [t·λ_max ≫ m_max²] still converge.  The
    small [m × m] exponential is evaluated exactly through
    {!Sym_eig.decompose}. *)
val expmv :
  ?tol:float -> ?m_max:int -> (Vec.t -> Vec.t) -> t:float -> Vec.t -> Vec.t

(** A reusable Lanczos factorization on a {e fixed} start vector: the
    basis depends only on [(apply, v)], never on the function being
    evaluated, so one preparation amortizes across many [f]s — the
    delta-evaluation workload, where every candidate applies a different
    spectral weight to the same per-core unit vector.  The basis is
    grown lazily and the small tridiagonal eigendecompositions are
    memoized per checkpoint size (also f-independent).

    NOT domain-safe: a [prepared] value carries mutable growth state.
    Confine each one to a single domain (the response engine keeps its
    per-core preparations in {!Util.Per_domain} scratch). *)
type prepared

(** [prepare ?m_max apply v] captures the SPD operator behind [apply]
    and the start vector [v] without running any Lanczos steps.  The
    basis grows to at most [min n m_max] vectors (default [m_max =
    256]).  A zero [v] yields a preparation whose every evaluation is
    zero. *)
val prepare : ?m_max:int -> (Vec.t -> Vec.t) -> Vec.t -> prepared

(** [prepared_apply p ~f] is [f(A) v] for a smooth positive function
    [f], by a single Lanczos factorization: [f(A) v ≈ β Q_m f(T_m) e1].
    One O(nnz) operator application per basis vector — where [f]
    encodes work that would otherwise need an iterative solve with an
    [expmv] per iteration (e.g. the periodic fixed point
    [(I - e^{-T A})^{-1}], [f(λ) = 1/(1 - e^{-T λ})]), this collapses
    that nested iteration into one basis build.

    The accepted basis size is the smallest checkpoint
    [m ∈ {4, 8, ...}] (capped at [min n m_max], the last checkpoint)
    where the coefficient vector [f(T_m) e1] agrees with the previous
    checkpoint's to [1e-13] relative twice in a row; an invariant Krylov
    subspace makes the result exact.  The ladder is re-walked from the
    bottom on every call, so the result is deterministic in
    [(apply, v, f)] and independent of which other functions were
    evaluated against [p] before, or on which worker.  Raises [Failure]
    if the cap is reached without convergence. *)
val prepared_apply : prepared -> f:(float -> float) -> Vec.t

(** [prepared_apply_at p ~f ~idx dst] writes [(f(A) v).(idx.(l))] into
    [dst.(l)] for each [l] — the restricted read that makes a delta
    candidate O(m · |idx|) instead of O(m · n).  Same convergence
    contract as {!prepared_apply}.  Raises [Invalid_argument] when [dst]
    is shorter than [idx]. *)
val prepared_apply_at :
  prepared -> f:(float -> float) -> idx:int array -> Vec.t -> unit

(** [smallest_eigs ?tol ?m_max ~n ~k solve] computes the [k] smallest
    eigenpairs of an SPD operator [A] given only [solve : b ↦ A⁻¹ b]
    (shift-invert at zero: the slow thermal modes are the {e dominant}
    modes of [A⁻¹], where Lanczos converges fastest).

    Returns [(lambda, w)] pairs with [lambda] ascending and [w]
    orthonormal.  The basis grows until each of the [k] wanted Ritz
    pairs has shift-invert residual [≤ tol · μ] (default [tol = 1e-10])
    or spans the whole space, in which case the pairs are exact.
    Breakdown (an invariant subspace smaller than the basis cap, common
    on symmetric floorplans with degenerate modes) is handled by
    deflating in the next coordinate direction, so degenerate
    eigenspaces are still recovered.  The start vector is a fixed
    deterministic ramp.  Raises [Invalid_argument] unless
    [0 < k ≤ n]. *)
val smallest_eigs :
  ?tol:float ->
  ?m_max:int ->
  n:int ->
  k:int ->
  (Vec.t -> Vec.t) ->
  (float * Vec.t) array
