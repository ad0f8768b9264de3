(** The temperature-performance-tradeoff ratio adjustment of Algorithm 2
    (lines 14-21), factored out so AO and PCO share it.

    A two-mode oscillation is summarized by a {!config}: for every core,
    the low and high voltages, how much of the (mini-)period the high
    mode occupies, and an optional phase offset (0 for AO's step-up form;
    PCO's spatial search sets it).  The adjustment loop moves high-mode
    time to low-mode time, one [t_unit] at a time, on the core with the
    best temperature-reduction-per-throughput-loss index
    [TPT_j = dT_hottest / ((v_H_j - v_L_j) t_unit)], until the peak
    temperature meets the constraint.  {!fill_headroom} runs the same
    exchange in reverse while the constraint has slack.

    Each of the two is one greedy loop — one stop test, one index, one
    arg-best pick — with two ways to price a step's candidates: the
    exact scan (every eligible core priced freshly by the exact
    evaluator, in parallel past {!Screen.fan_out}'s gate, so the winner
    needs no re-check) and the opt-in delta tier ([delta_margin > 0] on
    an aligned config: stale-score cache, prepared base, exact
    re-verification of the winner). *)

type config = {
  period : float;  (** The (mini-)period, seconds. *)
  v_low : float array;
  v_high : float array;
  high_time : float array;  (** Seconds of high mode per period, per core. *)
  offset : float array;  (** Phase shift per core, seconds (0 = step-up). *)
}

(** [validate c] raises [Invalid_argument] on a non-positive or NaN
    period, mismatched arities, [v_low > v_high], or a [high_time]
    outside [0, period] (NaN included). *)
val validate : config -> unit

(** [schedule_of_config c] materializes the schedule: each core runs low
    then high (step-up order), then is rotated by its offset. *)
val schedule_of_config : config -> Sched.Schedule.t

(** [peak platform ?eval ?dense c] evaluates the stable-status peak
    temperature: end-of-period when every offset is 0 (step-up,
    Theorem 1) and [dense] is [false], a dense scan otherwise.  The
    dense evaluator exists because Theorem 1 is only approximate under
    strong inter-core coupling (see EXPERIMENTS.md): AO runs its search
    with the cheap evaluator and re-verifies the final answer densely.
    Every entry point below prices through [Eval.for_platform eval
    platform]: a context for this platform memoizes the cheap step-up
    branch in its schedule-keyed table (bit-identical values, shared
    across every search probing the same candidates); a missing or
    foreign one resolves to a memo-less dense context. *)
val peak : Platform.t -> ?eval:Eval.t -> ?dense:bool -> config -> float

(** [adjust_to_constraint platform ?t_unit c] is the Algorithm 2 loop:
    returns the adjusted config and the number of [t_unit] exchanges.
    [t_unit] defaults to [c.period / 100] and must be positive (NaN is
    rejected with [Invalid_argument]).  Gives up (returning the
    all-low config) if every core reaches zero high time while still
    violating — callers should have checked {!Platform.feasible}.
    [par] (default [true]) fans each step's per-core candidate
    evaluations across the context's {!Util.Pool} when the batch
    carries enough floating-point volume ({!Screen.fan_out} on cores *
    nodes, the gate AO's m sweep uses); the selection reduction stays
    sequential, so the result is identical at any pool size.  [eval]
    memoizes the step-up peak evaluations as in {!peak}.

    [delta_margin] (kelvin, default [0.] — off) opts the per-core scan
    into the prepared-base delta tier (DESIGN.md §14) when [c] is
    aligned and [dense] is [false]: each step prepares the current
    config's drive once on the context's backend and prices candidates
    as single-core deltas, keeping stale
    scores across accepted steps for candidates more than
    [delta_margin] above the best stale score.  The chosen winner is
    always re-verified with a full exact evaluation before acceptance,
    and the termination test only ever reads exact values — the margin
    trades greedy-choice fidelity, never constraint soundness.  Like
    PR 7's [screen_margin] it is opt-in because nothing estimates the
    score drift an accepted step causes at runtime; at [0.] the loop is
    bit-identical to the exact scan.  Raises [Invalid_argument] on a
    negative margin. *)
val adjust_to_constraint :
  Platform.t ->
  ?eval:Eval.t ->
  ?t_unit:float ->
  ?dense:bool ->
  ?par:bool ->
  ?delta_margin:float ->
  config ->
  config * int

(** [adjust_by_bisection platform ?tol c] is the fast alternative to the
    greedy loop: scale every core's high time by a common factor
    [s in [0, 1]] and bisect on the largest feasible [s].  The peak is
    monotone in [s] (more high time = more heat everywhere), so
    bisection is sound; unlike the greedy TPT loop it cannot shift work
    *between* cores, so it can concede slightly more throughput — the
    ablation quantifies the trade.  Returns the adjusted config and the
    number of peak evaluations. *)
val adjust_by_bisection :
  Platform.t -> ?eval:Eval.t -> ?tol:float -> config -> config * int

(** [fill_headroom platform ?t_unit c] converts low time back to high
    time while the peak stays below [t_max], greedily choosing the core
    with the best throughput-gain-per-degree index; stops when no single
    exchange fits.  Returns the new config and exchange count.  [par],
    [eval] and [delta_margin] are as in {!adjust_to_constraint} — on
    the delta tier candidates are priced as single-core deltas and the
    arg-best is re-picked until it is backed by an exact evaluation, so
    feasibility (and the threaded base peak) only ever read exact
    values. *)
val fill_headroom :
  Platform.t ->
  ?eval:Eval.t ->
  ?t_unit:float ->
  ?par:bool ->
  ?delta_margin:float ->
  config ->
  config * int

(** {1 Delta-tier funnel}

    Process-wide counters of the [delta_margin] scans, mirroring the
    ROM screening funnel: per-core candidate slots that kept a stale
    score across an accepted step ([cached]), slots freshly priced
    through the prepared-base delta evaluators ([scored]), and full
    exact evaluations spent verifying winners ([exact]).  [scale
    --policy] reports the split per platform size. *)

type delta_stats = { cached : int; scored : int; exact : int }

(** [delta_stats ()] snapshots the funnel counters. *)
val delta_stats : unit -> delta_stats

(** [reset_delta_stats ()] zeroes the funnel counters. *)
val reset_delta_stats : unit -> unit

(** [throughput platform c] is the net chip-wide throughput of the
    config's schedule, charging the platform's [tau] per transition. *)
val throughput : Platform.t -> config -> float
