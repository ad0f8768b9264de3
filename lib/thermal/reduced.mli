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
    freely. *)

type t

(** [of_response ?modes response] retains the [modes] slowest
    eigenmodes of the sparse engine under [response] (default: enough to
    cover the slowest decade of decay rates among the first [min n 12]
    computed, at least 4) and takes [response]'s tables as its static
    tier — pass the engine a {!Backend.of_response} already wraps, so
    one platform solves its unit responses once.  Raises
    [Invalid_argument] if [modes] is outside [1, n_nodes]. *)
val of_response : ?modes:int -> Sparse_response.t -> t

(** [n_cores r] is the core count of the engine the reduction was built
    from. *)
val n_cores : t -> int

(** {1 ROM screening}

    Approximate stable-peak scores for two-tier candidate screening:
    O(n_cores² + k·n_cores) per candidate, zero Krylov work after the
    shared {!Sparse_response} tables exist.  Each score is one call
    that borrows the reduction's per-domain scratch once, so pool
    workers never share partial sums.  Scores are approximate —
    truncated fast modes are treated quasi-statically — so screened
    searches must re-verify survivors with an exact sparse solve (see
    [Core.Screen]). *)

(** [rom_stable r ~t_p spans] is the approximate hottest core
    temperature at the period boundary of a periodic profile with period
    [t_p], the ROM counterpart of {!Modal.stable}: [spans feed] calls
    [feed ~duration ~psi] once per segment, in period order; each
    retained mode's drive folds in closed form and the period-[t_p]
    fixed point closes per mode; the static tier is the last-fed
    segment's steady superposition.  Raises [Invalid_argument] on a
    non-positive (or NaN) period or duration, or a power vector whose
    arity differs from the engine's core count. *)
val rom_stable :
  t -> t_p:float -> ((duration:float -> psi:Linalg.Vec.t -> unit) -> unit) -> float

(** [rom_stable_peak r profile] is {!rom_stable} over the profile's
    segments at its period — the ROM counterpart of the exact
    end-of-period peak ([Sched.Peak.profile_end_peak]). *)
val rom_stable_peak : t -> Matex.profile -> float

(** [rom_peak_scan r ?samples_per_segment profile] approximates
    [Sched.Peak.profile_scan_peak]: walks the stable period on the retained
    modes ([samples_per_segment] sub-steps per segment, default 32,
    exact full-duration boundary steps) with per-segment quasi-static
    corrections. *)
val rom_peak_scan : t -> ?samples_per_segment:int -> Matex.profile -> float
