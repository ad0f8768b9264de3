(** Peak-temperature analysis of voltage schedules.

    Bridges {!Schedule} (voltages) to a {!Thermal.Backend} (powers)
    through a {!Power.Power_model}.  Every policy prices its candidates
    with one question — the stable-status peak of a periodic schedule —
    and this module answers it once per shape, against the backend
    record: the cheap end-of-period evaluator Theorem 1 licenses for
    step-up schedules, the dense scan needed for arbitrary ones, the
    fused aligned two-mode evaluator AO's m sweep and the TPT loops price
    thousands of candidates with, and the prepared-base delta scans.
    Which engine solves (dense modal or sparse superposition) is the
    backend's business; callers holding only a model pass
    [Thermal.Backend.of_model model].  The engines underneath export
    primitives only, so this is the one layer that turns a profile into
    an answer — the period-boundary and in-period questions of a raw
    profile included ({!profile_end_core_temps}, {!profile_end_peak},
    {!profile_scan_peak}, {!profile_refined_peak}).  Screening scores
    come from the same evaluators on the reduced backend
    ({!Thermal.Backend.of_reduced}); callers keep them out of the memo
    tables, whose floats must stay exact. *)

(** A bounded, thread-safe memo table for peak evaluations, the storage
    behind the cached entry points below (an evaluation context —
    [Core.Eval] — bundles one table for constant-voltage peaks and one
    for schedule peaks).

    Keys are built from the exact IEEE-754 bit patterns of everything
    that determines the answer, so a hit returns bit-identically what a
    fresh evaluation would have computed: memoization never changes a
    search trajectory, only its cost.  At capacity the oldest entry is
    evicted (insertion order).  All operations are mutex-protected, so
    pool workers may share one table; concurrent misses on the same key
    compute the identical value redundantly and one insert wins. *)
module Cache : sig
  type t

  type stats = {
    hits : int;  (** Lookups answered from the table. *)
    misses : int;  (** Lookups that had to compute. *)
    entries : int;  (** Current resident entries. *)
    evictions : int;  (** Entries dropped at capacity. *)
  }

  (** [create ?max_entries ()] makes an empty table holding at most
      [max_entries] values (default 1024).  [max_entries = 0] disables
      storage entirely — every lookup computes and counts as a miss —
      which is how callers run a cache-off differential check.  Raises
      [Invalid_argument] when negative. *)
  val create : ?max_entries:int -> unit -> t

  (** [stats t] is a consistent snapshot of the counters. *)
  val stats : t -> stats

  (** [clear t] empties the table and zeroes the counters. *)
  val clear : t -> unit

  (** [key_of_voltages vs] is the canonical key of a constant-voltage
      assignment: the concatenated bit patterns of its entries ([-0.]
      canonicalized to [0.]). *)
  val key_of_voltages : float array -> string

  (** [key_of_schedule s] is the canonical digest of a schedule: period
      plus every global state interval's duration and voltage vector.
      Schedules with equal state-interval decompositions heat the chip
      identically, so sharing their entry is exact. *)
  val key_of_schedule : Schedule.t -> string

  (** [find_or_add t key compute] returns the cached value for [key] or
      runs [compute], stores the result (evicting the oldest entry at
      capacity) and returns it. *)
  val find_or_add : t -> string -> (unit -> float) -> float
end

(** [profile b pm s] converts a schedule into the piecewise-constant
    power profile of its state intervals.  Raises [Invalid_argument]
    when the schedule's core count differs from [b]'s. *)
val profile :
  Thermal.Backend.t -> Power.Power_model.t -> Schedule.t -> Thermal.Matex.profile

(** {1 Profile evaluators}

    One implementation per question, for every engine.  The [profile_*]
    readers take a ready {!Thermal.Matex.profile} (one period of
    piecewise-constant core powers); the schedule evaluators below build
    that profile with {!profile} and delegate. *)

(** [profile_end_core_temps b profile] are the absolute per-core
    temperatures at the stable-status period boundary of [profile]: the
    profile's segments fed to one {!Thermal.Backend.field-stable} call
    with [t_p = Thermal.Matex.period profile].  Raises
    [Invalid_argument] on profiles {!Thermal.Matex.validate} rejects. *)
val profile_end_core_temps : Thermal.Backend.t -> Thermal.Matex.profile -> Linalg.Vec.t

(** [profile_end_peak b profile] is the hottest of those temperatures —
    the period-boundary peak Theorem 1 proves is the true peak of a
    step-up schedule. *)
val profile_end_peak : Thermal.Backend.t -> Thermal.Matex.profile -> float

(** [profile_scan_peak b ?samples_per_segment profile] is the hottest
    core temperature found by walking the stable-status period of
    [profile] (the MatEx method, reference [28] of the paper): from the
    period-boundary stable state, every segment is taken in
    [samples_per_segment] (default 32) equal sub-steps — one
    {!Thermal.Backend.field-equilibrium_into} and one
    {!Thermal.Backend.field-sample_segment} call per segment — and the
    next segment starts from one exact full-duration step
    ([sample_segment ~samples:1]), so boundary states accumulate no
    sub-step rounding.  The safe evaluator for profiles that are not step-up,
    whose peak may fall strictly inside a segment.  Raises
    [Invalid_argument] on a sample count below 1 or on profiles
    {!Thermal.Matex.validate} rejects. *)
val profile_scan_peak :
  Thermal.Backend.t -> ?samples_per_segment:int -> Thermal.Matex.profile -> float

(** [profile_refined_peak b ?samples_per_segment profile] is the same
    walk, then, inside every segment, a {!Thermal.Matex.golden_max}
    search of the sub-interval bracketing the segment's hottest sample
    (its start counted) down to time resolution [1e-4 * duration]; each
    probe is one exact {!Thermal.Backend.field-step_into} from the
    segment start.  At least the scan's answer up to the same sampling;
    used where an exact interior peak matters (final verification,
    theorem-tolerance measurements). *)
val profile_refined_peak :
  Thermal.Backend.t -> ?samples_per_segment:int -> Thermal.Matex.profile -> float

(** [steady_constant b pm voltages] is the constant-schedule peak: the
    hottest steady core temperature under per-core voltages —
    Algorithm 1's feasibility test — by superposition on the backend's
    response tables (no per-candidate solve). *)
val steady_constant :
  Thermal.Backend.t -> Power.Power_model.t -> float array -> float

(** [of_step_up b pm s] is the stable-status peak temperature of the
    step-up schedule [s] — {!profile_end_peak} of its profile, evaluated
    only at the period boundary, which Theorem 1 proves is where the
    peak lives.  Raises [Invalid_argument] if [s] is not step-up. *)
val of_step_up : Thermal.Backend.t -> Power.Power_model.t -> Schedule.t -> float

(** [of_any b pm ?samples_per_segment s] is the stable-status peak of an
    arbitrary periodic schedule — {!profile_scan_peak} of its profile
    (default 32 samples per state interval). *)
val of_any :
  Thermal.Backend.t ->
  Power.Power_model.t ->
  ?samples_per_segment:int ->
  Schedule.t ->
  float

(** [of_any_refined b pm ?samples_per_segment s] sharpens {!of_any}:
    {!profile_refined_peak} of the schedule's profile (to [1e-4] of each
    segment) — the most accurate evaluator, used for final
    verification. *)
val of_any_refined :
  Thermal.Backend.t ->
  Power.Power_model.t ->
  ?samples_per_segment:int ->
  Schedule.t ->
  float

(** [stable_end_core_temps b pm s] are the absolute per-core
    temperatures at the stable-status period boundary —
    {!profile_end_core_temps} of the schedule's profile, what AO's TPT
    loop reads to find the hottest core. *)
val stable_end_core_temps :
  Thermal.Backend.t -> Power.Power_model.t -> Schedule.t -> Linalg.Vec.t

(** [steady_constant_cached cache b pm voltages] is {!steady_constant}
    memoized in [cache] under {!Cache.key_of_voltages}.  The caller owns
    the pairing of [cache] with ([b], [pm]): one table must never mix
    platforms. *)
val steady_constant_cached :
  Cache.t -> Thermal.Backend.t -> Power.Power_model.t -> float array -> float

(** [of_step_up_cached cache b pm s] is {!of_step_up} memoized in
    [cache] under {!Cache.key_of_schedule} — searches repeatedly revisit
    the same candidate schedules.  Same pairing contract as
    {!steady_constant_cached}. *)
val of_step_up_cached :
  Cache.t -> Thermal.Backend.t -> Power.Power_model.t -> Schedule.t -> float

(** {1 Fused aligned two-mode evaluators}

    {!of_step_up} of [Schedule.two_mode ~period ~low ~high ~high_ratio]
    evaluated WITHOUT constructing the schedule: the aligned two-mode
    state intervals are derived directly (replicating the schedule
    decomposition bit-for-bit) and fed to one
    {!Thermal.Backend.field-stable} call with [t_p = period].  This is the policy hot path — AO's m
    sweep and the TPT loops price thousands of these candidates. *)

(** [of_two_mode b pm ~period ~low ~high ~high_ratio] is the
    stable-status peak of the fused candidate. *)
val of_two_mode :
  Thermal.Backend.t ->
  Power.Power_model.t ->
  period:float ->
  low:float array ->
  high:float array ->
  high_ratio:float array ->
  float

(** [two_mode_end_core_temps b pm ~period ~low ~high ~high_ratio] are the
    stable-status period-boundary core temperatures of the same fused
    candidate — {!stable_end_core_temps} without the schedule. *)
val two_mode_end_core_temps :
  Thermal.Backend.t ->
  Power.Power_model.t ->
  period:float ->
  low:float array ->
  high:float array ->
  high_ratio:float array ->
  Linalg.Vec.t

(** [of_two_mode_cached cache b pm ...] memoizes {!of_two_mode} under
    the SAME digest {!Cache.key_of_schedule} gives the equivalent
    schedule, so fused and schedule-based lookups share entries. *)
val of_two_mode_cached :
  Cache.t ->
  Thermal.Backend.t ->
  Power.Power_model.t ->
  period:float ->
  low:float array ->
  high:float array ->
  high_ratio:float array ->
  float

(** {1 Prepared-base delta evaluators}

    The TPT-loop scan hot path (DESIGN.md §14): capture an aligned
    two-mode config's drive once ({!two_mode_delta_base}), then price
    candidates that change a {e single} core's duty cycle in O(n) (dense
    modal) or O(m · n_cores) (sparse response) each — no full
    re-superposition, no span feed.  The prepared base is per-domain
    scratch of the backend's engine (one
    {!Thermal.Backend.field-prepare_base} call): prepare and evaluate on
    the same domain, and re-prepare after the config itself changes.  Delta scores agree with the exact
    two-mode evaluators to the differential suite's 1e-9, but are NOT
    bit-identical and must never enter the exact memo tables — search
    loops re-verify any winner through the cached exact entry points
    before acting on it. *)

(** [two_mode_delta_base b pm ~period ~low ~high ~high_ratio] prepares
    the base config on this domain's backend scratch. *)
val two_mode_delta_base :
  Thermal.Backend.t ->
  Power.Power_model.t ->
  period:float ->
  low:float array ->
  high:float array ->
  high_ratio:float array ->
  unit

(** [two_mode_delta_peak b pm ~core ~low ~high ~high_ratio] is the
    end-of-period stable peak of the candidate equal to the prepared
    base except core [core] runs at ([low], [high], [high_ratio]). *)
val two_mode_delta_peak :
  Thermal.Backend.t ->
  Power.Power_model.t ->
  core:int ->
  low:float ->
  high:float ->
  high_ratio:float ->
  float

(** [two_mode_delta_temp_at b pm ~at ~core ~low ~high ~high_ratio] is
    the same candidate's end-of-period temperature at core [at] — the
    hottest-core read the adjustment scan scores by. *)
val two_mode_delta_temp_at :
  Thermal.Backend.t ->
  Power.Power_model.t ->
  at:int ->
  core:int ->
  low:float ->
  high:float ->
  high_ratio:float ->
  float
