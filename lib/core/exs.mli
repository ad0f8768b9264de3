(** EXS — the exhaustive-search baseline (Algorithm 1).

    Enumerates every assignment of one discrete level per core, checks
    the steady-state peak temperature against [T_max] and keeps the
    feasible assignment with the largest total frequency.  The search
    space is [levels^cores], which is what makes EXS explode in Table V.

    Two evaluators are provided: {!solve} pre-factorizes the steady-state
    map once and updates core temperatures incrementally as the
    enumeration odometer ticks (the optimization DESIGN.md's ablation
    quantifies), while {!solve_naive} re-solves [T^inf = -A^{-1}B] from
    scratch for every combination, exactly as Algorithm 1 is written.

    All solvers reduce candidates with the same deterministic total
    order — higher total frequency wins, exact ties go to the
    lexicographically smallest level vector — so {!solve},
    {!solve_naive}, {!solve_pruned} and {!solve_par} return identical
    [voltages]/[throughput]/[peak]/[feasible] on every platform whose
    search space fits the exact regime; past it (many-core platforms,
    where enumeration is physically impossible) the branch-and-bound
    solvers run as budgeted deterministic anytime searches and say so
    via [result.exhaustive]. *)

type result = {
  voltages : float array;  (** Best feasible assignment (lowest levels when
                                nothing feasible exists). *)
  throughput : float;  (** Mean voltage of the best assignment, 0 if none. *)
  peak : float;  (** Steady peak of the best assignment, [infinity] if none. *)
  evaluated : int;  (** Combinations examined. *)
  feasible : bool;  (** Whether any assignment met the constraint. *)
  exhaustive : bool;
      (** [true] when the search ran to completion (the returned
          assignment is the proven optimum); [false] when a node budget
          truncated the branch-and-bound ({!solve_pruned} on many-core
          platforms), making the result the best of the greedy warm
          start and everything visited under the budget. *)
}

(** [solve platform] runs the incremental exhaustive search. *)
val solve : Platform.t -> result

(** [solve_naive platform] runs the textbook version (one dense linear
    solve per combination).  Same result, slower — kept for the
    ablation benchmark. *)
val solve_naive : Platform.t -> result

(** [solve_pruned ?node_cap platform] runs a branch-and-bound
    enumeration instead of the flat odometer: the incumbent is seeded
    with a deterministic greedy warm start (single-level raises chosen
    by coolest resulting hot spot), cores are assigned one at a time
    (highest-level-first), and a subtree is cut when (a) the steady
    temperature with every remaining core at the LOWEST level already
    violates [t_max] — monotonicity makes the whole subtree infeasible —
    or (b) the best possible remaining score cannot beat the incumbent.
    [evaluated] counts visited search nodes.

    [node_cap] bounds the visited nodes.  Its default is a pure
    function of (levels, cores): unlimited while [levels^cores] fits an
    outright enumeration (~4·10^6, covering every paper-scale platform,
    where the result equals {!solve}'s proven optimum), and a fixed
    ~1.7·10^7-node budget past that — the many-core regime where no
    exact method terminates — turning the search into a deterministic
    anytime solver whose truncation is reported via
    [result.exhaustive]. *)
val solve_pruned : ?node_cap:int -> Platform.t -> result

(** [solve_par ?pool ?par platform] is {!solve_pruned} with the
    top-level digit subtrees of the branch-and-bound fanned out across
    the domain pool ([pool] defaults to the shared {!Util.Pool.get}
    pool).  The subtrees share an atomic incumbent: reads of the bound
    are lock-free and improvements publish via a CAS loop, and pruning
    only cuts subtrees that score strictly below the incumbent, so the
    bound stays admissible and the returned assignment is the same
    deterministic optimum the sequential solvers find.  Only
    [evaluated] (visited node count) varies with scheduling.  Falls
    back to {!solve_pruned} when [par] is [false], the pool has a
    single participant, the search space is tiny, or the default node
    budget is finite (a cap split across racing subtrees would make the
    result depend on incumbent propagation timing — determinism
    outranks parallelism in the anytime regime). *)
val solve_par : ?pool:Util.Pool.t -> ?par:bool -> Platform.t -> result

type Solver.details += Details of result

(** [policy] is EXS's registry adapter: {!solve_par} on the context's
    pool when [params.par] holds, {!solve} otherwise, with the reported
    peak priced on the context's dense engine ({!Eval.dense}) rather
    than a new one.  All EXS solvers
    agree bit-for-bit on [voltages]/[throughput]/[peak]; the outcome's
    [evaluations] reports the solver's enumeration count (which alone
    may vary with scheduling on the parallel path). *)
val policy : Solver.t
