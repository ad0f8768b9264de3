(** Sparse/Krylov thermal evaluation engine.

    The dense pipeline ({!Model} + {!Modal}) pays an O(n³)
    eigendecomposition at build time and O(n²) per basis change — perfect
    at the paper's 2–9 cells, cubic death at the 256–1024-cell grids the
    many-core roadmap needs.  This engine never forms a dense matrix:

    - build is an O(nnz) CSR assembly of the symmetrized operator
      [M = C^{-1/2} G' C^{-1/2}] (pool-parallel across rows,
      deterministic at any pool size);
    - steady states are Jacobi-preconditioned {!Linalg.Krylov.cg}
      solves;
    - transient steps are Lanczos {!Linalg.Krylov.expmv} applications
      of [e^{-dt M}];
    - the periodic stable status exploits that every segment shares the
      same [M] — the period map is affine with linear part [e^{-T M}],
      so the fixed point [y* = (I - e^{-T M})^{-1} d] is one Lanczos
      matrix-function evaluation ({!Linalg.Krylov.prepared_apply} on a
      basis prepared from [d]).

    States are ambient-relative temperatures in symmetrized coordinates
    [y = C^{1/2} θ] ([M] is SPD there, which is what the Krylov kernels
    need).  The differential suite asserts every evaluator agrees with
    the dense {!Matex} path to ≤ 1e-9 at small n; tolerances are set
    one-thousand-fold tighter ({!Linalg.Krylov}) so the bound holds with
    margin.

    The engine exports primitives (solves, steps, core reads) plus one
    direct profile path, {!stable_start}/{!end_of_period_peak}.  Policy
    evaluation goes through {!Sparse_response}, whose tables
    {!Backend.of_response} wraps; in-period scans exist only there. *)

type t

(** [of_spec ?pool spec] assembles the engine — O(k·nnz) total, no
    dense intermediate.  [pool] (default: the shared {!Util.Pool.get})
    parallelizes row assembly. *)
val of_spec : ?pool:Util.Pool.t -> Spec.t -> t

(** [of_model ?pool model] is [of_spec (Spec.of_model model)] — the
    parity bridge used by differential tests and {!Backend}. *)
val of_model : ?pool:Util.Pool.t -> Model.t -> t

(** [spec t] is the problem description the engine was built from. *)
val spec : t -> Spec.t

(** [operator t] is the assembled SPD operator [M] (shared, read-only);
    {!Reduced} builds its Ritz basis on it. *)
val operator : t -> Linalg.Sparse.t

(** [n_nodes t] / [n_cores t] / [ambient t] echo the spec. *)
val n_nodes : t -> int

val n_cores : t -> int
val ambient : t -> float

(** [ambient_state t] is the all-ambient state ([y = 0]). *)
val ambient_state : t -> Linalg.Vec.t

(** [to_theta t y] converts an engine state to node-space
    ambient-relative temperatures. *)
val to_theta : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [heat_input t psi] is the symmetrized drive [b = C^{-1/2} h(psi)]
    (per-core powers plus the leakage-linearization offset at core
    nodes) — the right-hand side of the steady solve, exposed for
    {!Reduced}'s modal projections. *)
val heat_input : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [steady_state t psi] is the equilibrium state under constant
    per-core powers — one preconditioned CG solve. *)
val steady_state : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [steady_core_temps t psi] / [steady_peak t psi] are the absolute
    steady core temperatures / their maximum. *)
val steady_core_temps : t -> Linalg.Vec.t -> Linalg.Vec.t

val steady_peak : t -> Linalg.Vec.t -> float

(** [steady_batch ?pool t psis] solves many steady states across the
    pool (default: the engine's assembly pool), preserving order —
    deterministic multi-vector solves. *)
val steady_batch : ?pool:Util.Pool.t -> t -> Linalg.Vec.t list -> Linalg.Vec.t list

(** [step t ~dt ~state ~psi] advances the exact LTI solution by [dt]
    under constant powers — one CG solve plus one [expmv]. *)
val step : t -> dt:float -> state:Linalg.Vec.t -> psi:Linalg.Vec.t -> Linalg.Vec.t

(** [correct_cores t ~state ~deltas] adds [deltas.(k)] kelvin to core
    [k]'s temperature reading, in place on the symmetrized state
    ([y_i += deltas.(k) * sqrt(C_i)] at the core's node); off-core nodes
    are untouched.  The measured-state restart hook observers correct
    through.  Raises [Invalid_argument] on arity mismatches. *)
val correct_cores : t -> state:Linalg.Vec.t -> deltas:Linalg.Vec.t -> unit

(** [advance t ~dt ~y_inf y] is the exact LTI advance toward an
    already-known equilibrium: [y_inf + e^{-dt M} (y - y_inf)], one
    [expmv] and no solve.  {!Sparse_response} feeds superposed
    equilibria through this to price candidates without per-segment CG
    solves. *)
val advance :
  t -> dt:float -> y_inf:Linalg.Vec.t -> Linalg.Vec.t -> Linalg.Vec.t

(** [core_temps t state] / [max_core_temp t state] read absolute core
    temperatures straight off the state — O(n_cores). *)
val core_temps : t -> Linalg.Vec.t -> Linalg.Vec.t

val max_core_temp : t -> Linalg.Vec.t -> float

(** [stable_start t profile] is the periodic stable status at the
    period boundary (the sparse counterpart of {!Matex.stable_start},
    returned as an engine state), with every segment equilibrium solved
    by CG.  [end_of_period_peak t profile] is its hottest absolute core
    temperature.  Kept as the direct Krylov path: they price candidates
    without the {!Sparse_response} tables, which is what
    [repro_cli scale] and the sparse bench kernels measure against the
    superposition engine ({!Backend} wraps only the latter). *)
val stable_start : t -> Matex.profile -> Linalg.Vec.t

val end_of_period_peak : t -> Matex.profile -> float
