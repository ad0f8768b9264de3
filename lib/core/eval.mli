(** A shared evaluation context: everything a policy solve needs to
    price candidate schedules on one platform, created once and reused.

    The context bundles the {!Platform.t}, the {!Thermal.Backend} all
    evaluators run on (plus, on a sparse context, a reduced screening
    model), the {!Util.Pool} handle searches fan out on, and two bounded
    memo tables ({!Sched.Peak.Cache}):

    - constant-voltage steady-state peaks, keyed by the (bit-exact)
      voltage vector — the evaluator behind LNS rounding, EXS
      feasibility, TSP discretization and Ideal verification;
    - step-up end-of-period peaks, keyed by a canonical schedule digest
      — the evaluator behind AO's m sweep, the TPT adjustment loops and
      Demand's sweep.

    Because keys capture the exact inputs, a hit returns bit-identically
    what a fresh evaluation would have computed, so solves behave the
    same with the cache on, off, or shared — only faster.  Sharing one
    context across policies ([Registry.all] consumers do) is where the
    win compounds: PCO replays AO's entire search from cache, and
    sweeps that revisit a platform skip their repeated evaluations. *)

type t

(** Which thermal engine prices this context's candidates.  [Dense] is
    the reference {!Thermal.Modal} path (exact eigenbasis, O(n³) build);
    [Sparse] is the {!Thermal.Sparse_response} superposition engine over
    the Krylov engine (O(nnz) build, CG + Lanczos solves) plus a
    {!Thermal.Reduced} screening model — a [Sparse] context builds the
    modal engine only for the questions it asks its {!dense} twin.
    Either way the evaluators are the same {!Sched.Peak} calls on the
    context's {!backend}, and both kinds share the same memo-table
    digests, so switching backends changes only who computes a miss. *)
type backend_kind = Dense | Sparse

type stats = {
  steady : Sched.Peak.Cache.stats;  (** Constant-voltage table counters. *)
  stepup : Sched.Peak.Cache.stats;  (** Step-up schedule table counters. *)
}

(** [create ?pool ?cache_size ?backend ?screen_margin platform] builds a
    context.  [pool] defaults to the shared {!Util.Pool.get} pool;
    [cache_size] (default 1024) bounds each memo table, with [0]
    disabling memoization — the cache-off mode differential tests run
    against; [backend] (default [Dense]) selects the thermal engine;
    [screen_margin] (kelvin, default [0.] — screening off) is how far
    above the batch ROM minimum a candidate may score and still be
    re-verified exactly during two-tier screening ({!screening}).
    Screening is opt-in because its soundness needs the margin to cover
    twice the batch ROM error oscillation (DESIGN.md §12), which nothing
    estimates at runtime: pass a positive margin (the CLI and benches
    use 0.5 K, calibrated against the measured ≈0.1 K AO-batch error
    range at 8×8/16×16) only when that bound is believed to hold.
    Raises [Invalid_argument] on a negative margin. *)
val create :
  ?pool:Util.Pool.t ->
  ?cache_size:int ->
  ?backend:backend_kind ->
  ?screen_margin:float ->
  Platform.t ->
  t

(** [platform t] is the platform the context evaluates on. *)
val platform : t -> Platform.t

(** [pool t] is the domain pool searches should fan out on. *)
val pool : t -> Util.Pool.t

(** [kind t] is the backend the context was created with. *)
val kind : t -> backend_kind

(** [backend t] is the {!Thermal.Backend} every evaluator below runs
    on, built lazily on first use — ["dense-modal"] over the context's
    own {!Thermal.Modal} engine for a [Dense] context,
    ["sparse-response"] (the superposition engine over the Krylov engine
    assembled from the model's spec on the context's pool) for a
    [Sparse] one.  The context owns its engines and frees them with it.
    Each evaluator is one {!Sched.Peak} call on it. *)
val backend : t -> Thermal.Backend.t

(** [dense t] is [t] on a [Dense] context; on a [Sparse] one, its
    memo-less dense twin over the same platform, pool and modal engine.
    Policies ask it what they always answer on the dense reference
    (AO's safety re-check, the peaks EXS and Demand report). *)
val dense : t -> t

(** [for_platform eval p] resolves a policy's optional context: [eval]
    itself when it was created for [p] (physical equality), otherwise a
    fresh memo-less ([cache_size] 0) [Dense] context on [p] — on
    [eval]'s pool when one was given.  What every policy entry point
    taking [?eval] runs once per call, so an eval-less solve prices its
    candidates exactly as a cache-disabled context would. *)
val for_platform : t option -> Platform.t -> t

(** [steady_peak t voltages] is the memoized
    {!Sched.Peak.steady_constant} on the context's backend. *)
val steady_peak : t -> float array -> float

(** [step_up_peak t s] is the memoized {!Sched.Peak.of_step_up} on the
    context's backend.  [s] must be step-up (raises [Invalid_argument]
    otherwise, like the uncached evaluator). *)
val step_up_peak : t -> Sched.Schedule.t -> float

(** [two_mode_peak t ~period ~low ~high ~high_ratio] is the memoized
    {!Sched.Peak.of_two_mode} — the fused aligned two-mode candidate
    evaluator.  It shares the step-up memo table (and its exact
    schedule digest), so fused and schedule-based evaluations of the
    same candidate replay each other's entries. *)
val two_mode_peak :
  t ->
  period:float ->
  low:float array ->
  high:float array ->
  high_ratio:float array ->
  float

(** [any_peak t ?samples_per_segment s] is the stable-status peak of an
    arbitrary periodic schedule by dense scanning (default 32 samples
    per state interval) on the context's backend — the evaluator behind
    shifted-config pricing (TPT's non-aligned branch, PCO's offset
    search).  Uncached: scanned peaks are position-dependent and
    searches rarely revisit them exactly. *)
val any_peak : t -> ?samples_per_segment:int -> Sched.Schedule.t -> float

(** [stable_end_core_temps t s] are the absolute per-core temperatures
    at the stable-status period boundary on the context's backend —
    what the TPT loops read to find the hottest core. *)
val stable_end_core_temps : t -> Sched.Schedule.t -> Linalg.Vec.t

(** [two_mode_end_core_temps t ~period ~low ~high ~high_ratio] is the
    fused-candidate counterpart of {!stable_end_core_temps} — the
    aligned two-mode state intervals are derived without constructing
    the schedule, bit-identically to {!two_mode_peak}'s decomposition. *)
val two_mode_end_core_temps :
  t ->
  period:float ->
  low:float array ->
  high:float array ->
  high_ratio:float array ->
  Linalg.Vec.t

(** {1 Prepared-base delta scans}

    The TPT-loop per-core scan hot path (DESIGN.md §14): capture the
    current config's drive once, then price candidates that change a
    single core's duty cycle without a full re-superposition — O(n) per
    candidate on the dense engine, O(m · n_cores) on the sparse one.
    Per-domain state (prepare and evaluate on the same domain) and
    deliberately uncached: delta scores agree with {!two_mode_peak} to
    ≤ 1e-9 but are not bit-identical, so they must never enter the
    exact memo tables — the loops re-verify any winner exactly before
    acting on it. *)

(** [two_mode_delta_base t ~period ~low ~high ~high_ratio] prepares the
    base config on this domain, in one call to the context's backend
    ({!Thermal.Backend.field-prepare_base}); the delta reads below find
    it on the same domain until the next preparation there. *)
val two_mode_delta_base :
  t ->
  period:float ->
  low:float array ->
  high:float array ->
  high_ratio:float array ->
  unit

(** [two_mode_delta_peak t ~core ~low ~high ~high_ratio] is the stable
    end-of-period peak of the candidate equal to the prepared base
    except core [core] runs at ([low], [high], [high_ratio]). *)
val two_mode_delta_peak :
  t -> core:int -> low:float -> high:float -> high_ratio:float -> float

(** [two_mode_delta_temp_at t ~at ~core ~low ~high ~high_ratio] is the
    same candidate's end-of-period temperature at core [at] — the
    hottest-core read the adjustment scan scores candidates by. *)
val two_mode_delta_temp_at :
  t ->
  at:int ->
  core:int ->
  low:float ->
  high:float ->
  high_ratio:float ->
  float

(** {1 Two-tier ROM screening}

    A [Sparse] context carries a second backend beside its exact one:
    the Lanczos-reduced screening model ({!Thermal.Reduced} behind
    {!Thermal.Backend.of_reduced}), built on the same sparse engine.
    Search loops ask {!screening}: [Some margin] means "score the whole
    batch with {!rom_two_mode_peak}/{!rom_any_peak}, then re-verify
    only the candidates within [margin] of the ROM minimum exactly"
    (via {!Screen.select}); [None] means evaluate everything exactly.
    A ROM score is the same {!Sched.Peak} evaluator as its exact
    counterpart, run on the screening backend and never cached, so ROM
    scores never enter the exact memo tables. *)

(** [screening t] is [Some margin] when this context wants two-tier
    screened sweeps ([Sparse] backend, positive [screen_margin]),
    [None] otherwise.  Builds the context's exact and screening
    backends before returning, so a screened sweep's first scores find
    them ready. *)
val screening : t -> float option

(** [rom_two_mode_peak t ~period ~low ~high ~high_ratio] is the
    screening score of the fused two-mode candidate:
    {!Sched.Peak.of_two_mode} on the screening backend of a [Sparse]
    context, the exact evaluation on a [Dense] one (keeping callers
    backend-blind).  Never cached. *)
val rom_two_mode_peak :
  t ->
  period:float ->
  low:float array ->
  high:float array ->
  high_ratio:float array ->
  float

(** [rom_any_peak t ?samples_per_segment s] is the screening score of an
    arbitrary periodic schedule: {!Sched.Peak.of_any} (default 32
    samples per segment) on the same backend as {!rom_two_mode_peak}.
    Never cached. *)
val rom_any_peak : t -> ?samples_per_segment:int -> Sched.Schedule.t -> float

(** [stats t] snapshots both tables' hit/miss/entry/eviction counters. *)
val stats : t -> stats

(** [sparse_response_stats t] snapshots the sparse superposition
    engine's counters — [Some] only for a [Sparse] context whose
    response engine has actually been built (never forces it). *)
val sparse_response_stats : t -> Thermal.Sparse_response.stats option

(** [response_stats t] snapshots the context's {!Thermal.Modal} engine
    counters (superposition evaluations, decay-table hits/misses, and
    the process-wide engine build count): every dense evaluation made
    through this context or its {!dense} twin.  Builds the modal engine
    if it has not been used yet — on a [Sparse] context too. *)
val response_stats : t -> Thermal.Modal.stats

(** [hit_rate t] is the fraction of all lookups (both tables) answered
    from cache, 0 when nothing has been looked up. *)
val hit_rate : t -> float

(** [clear t] empties both tables and zeroes their counters. *)
val clear : t -> unit
