(** Periodic multi-core voltage schedules.

    A schedule assigns every core a cyclic sequence of (duration,
    voltage) segments covering one common period.  Globally the platform
    then runs through *state intervals* (the paper's [I_q]): maximal
    spans in which no core changes mode.  Construction keeps the per-core
    view (which is what the paper's Definitions 2 and 3 transform);
    {!state_intervals} derives the global view consumed by the thermal
    analysis. *)

type segment = { duration : float; voltage : float }
(** One per-core run: [duration] seconds at [voltage] volts
    ([voltage = 0.] means the core is off). *)

type t = private { period : float; cores : segment list array }
(** [cores.(i)] covers exactly [period] seconds.  Values of this type
    always satisfy {!val-validate}. *)

(** [make ~period cores] validates and builds a schedule.  Raises
    [Invalid_argument] when the period is not finite and positive, any
    core has no segments, any duration is not finite and positive, any
    voltage is negative or not finite, or a
    core's durations do not sum to the period (tolerance 1e-9
    relative). *)
val make : period:float -> segment list array -> t

(** [validate s] re-checks the invariants of {!make} (for values built by
    transforms). *)
val validate : t -> unit

(** [uniform ~period voltages] runs each core at one constant voltage. *)
val uniform : period:float -> float array -> t

(** [two_mode ~period ~low ~high ~high_ratio] gives every core [i] the
    pair [low.(i)] then [high.(i)], with the high mode occupying
    [high_ratio.(i)] of the period (low first, so the schedule is
    step-up).  A ratio of 0 or 1 degenerates to a single segment. *)
val two_mode :
  period:float -> low:float array -> high:float array -> high_ratio:float array -> t

(** [n_cores s] is the number of cores. *)
val n_cores : t -> int

(** [period s] is the common period, seconds. *)
val period : t -> float

(** [core_segments s i] is core [i]'s segment list. *)
val core_segments : t -> int -> segment list

(** [voltage_at s i t] is core [i]'s voltage at time [t mod period]. *)
val voltage_at : t -> int -> float -> float

(** [state_intervals s] merges all cores' change points into the global
    state-interval list: [(length, per-core voltages)] in time order,
    lengths summing to the period.  Change points closer than 1e-12 s are
    coalesced. *)
val state_intervals : t -> (float * float array) list

(** [shift s i offset] rotates core [i]'s cyclic segment sequence so that
    what used to happen at time [offset] now happens at time 0 — the
    phase shift PCO searches over.  [offset] may be any real; it is taken
    modulo the period. *)
val shift : t -> int -> float -> t

(** [scale_durations s factor] multiplies the period and every duration
    by [factor > 0] — the primitive behind m-oscillation. *)
val scale_durations : t -> float -> t

(** [transitions s i] counts core [i]'s mode changes per period,
    including the wrap-around boundary when first and last voltages
    differ.  A constant core has 0. *)
val transitions : t -> int -> int

(** [equal ?tol a b] compares periods and per-core segments within
    [tol]. *)
val equal : ?tol:float -> t -> t -> bool

(** [pp] prints one line per core: [core i: 12.0ms@0.60V | 8.0ms@1.30V]. *)
val pp : Format.formatter -> t -> unit

(** [to_string s] serializes to a compact line-oriented text format:

    {v
    period 0.02
    core 0: 0.012@0.6 0.008@1.3
    core 1: 0.02@1
    v}

    Durations and voltages are printed with enough digits to round-trip
    exactly through {!of_string}. *)
val to_string : t -> string

(** [of_string text] parses the {!to_string} format (validating like
    {!make}).  Raises [Failure] with a line diagnostic on malformed
    input and [Invalid_argument] when the parsed schedule is invalid. *)
val of_string : string -> t
