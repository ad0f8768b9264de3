(** Model-order reduction by retained-mode truncation: the approximate
    tier of two-tier candidate screening.

    Fine-grid models ({!Grid_model}) grow quadratically in node count;
    most of their eigenmodes decay within microseconds and contribute
    nothing to schedule-scale dynamics.  This module retains the [k]
    slowest modes and patches the truncated modes' contribution with a
    static (quasi-steady) correction:

    [y(t) ~ y_inf(psi) + sum_j w_j (z_j(t) - z_inf_j)]

    where each retained coordinate [z_j] evolves independently at rate
    [mu_j].  Exact at steady state by construction; degrades only for
    inputs changing faster than the fastest retained mode.

    The retained pairs [(mu_j, w_j)] are Lanczos Ritz pairs of the
    sparse symmetrized operator ({!Sparse_response.operator}), computed by
    shift-invert {!Linalg.Krylov.smallest_eigs} — O(k * nnz) work per
    iteration, so building a reduction never forms a dense matrix and
    the O(n^3) dense eigensolve disappears from the build path.  Only
    the Ritz vectors' core-node entries are kept.  The static correction
    reads the {!Sparse_response} tables the reduction is built from: a
    reduction holds no deferred state, so pool workers may share one
    freely.

    Like {!Modal} and {!Sparse_response}, the reduction exports engine
    primitives only; {!Backend.of_reduced} maps them field for field,
    and [Sched.Peak] turns profiles into screening scores with the same
    evaluators, in-period walk included, that price candidates on the
    exact backends. *)

type t

(** [of_response ?modes response] retains the [modes] slowest
    eigenmodes of the sparse engine under [response] (default: enough to
    cover the slowest decade of decay rates among the first [min n 12]
    computed, at least 4) and takes [response]'s tables as its static
    tier — pass the engine a {!Backend.of_response} already wraps, so
    one platform solves its unit responses once.  Raises
    [Invalid_argument] if [modes] is outside [1, n_nodes]. *)
val of_response : ?modes:int -> Sparse_response.t -> t

(** [response r] is the sparse engine the reduction was built from:
    its static tier, and the source of its exact steady peaks. *)
val response : t -> Sparse_response.t

(** {1 Engine operations}

    What {!Backend.of_reduced} maps field for field; each keeps the
    contract of the {!Backend.t} field of the same name.  A state holds
    the [k] retained coordinates, then the retained equilibrium and the
    [n_cores] ambient-relative static core temperatures of the segment
    it last stepped toward; core [c] reads
    [th_c + Σ_j cw_jc (z_j − z_eq_j)] above ambient, the truncated fast
    modes treated quasi-statically.  Exact at steady state, approximate
    in between: screened searches re-verify survivors on an exact
    backend (see [Core.Screen]).  Targeting a segment costs
    O(n_cores² + k·n_cores) and a walked sub-step O(k·n_cores), with no
    Krylov work.  {!step_into} allocates nothing and {!sample_segment}
    only its result pair; {!stable} folds in the reduction's
    per-domain scratch and returns a fresh vector. *)

val ambient_state : t -> Linalg.Vec.t
val core_temps : t -> Linalg.Vec.t -> Linalg.Vec.t
val max_core_temp : t -> Linalg.Vec.t -> float
val equilibrium_into : t -> psi:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit

val step_into :
  t -> dt:float -> state:Linalg.Vec.t -> psi:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit

val sample_segment :
  t -> dt:float -> samples:int -> eq:Linalg.Vec.t -> walker:Linalg.Vec.t -> int * float

val stable :
  t -> t_p:float -> ((duration:float -> psi:Linalg.Vec.t -> unit) -> unit) -> Linalg.Vec.t
