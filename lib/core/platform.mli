(** A temperature-constrained multi-core platform: the problem instance
    every policy consumes.

    Bundles the thermal compact model, the power model, the discrete DVFS
    level set, the peak-temperature threshold [T_max] and the DVFS
    transition stall [tau]. *)

type t = {
  model : Thermal.Model.t;
  power : Power.Power_model.t;
  levels : Power.Vf.level_set;
  t_max : float;  (** Peak-temperature threshold, degrees C (absolute). *)
  tau : float;  (** DVFS transition stall, seconds. *)
}

(** [make ?power ?tau ~levels ~t_max model] assembles a platform.
    Defaults: [power = Power.Power_model.default], [tau = 5e-6] (the
    paper's 5 us switching overhead).  Raises [Invalid_argument] when
    [t_max] is not finite or does not exceed the model's ambient
    temperature, or when [tau] is negative or not finite (NaN included). *)
val make :
  ?power:Power.Power_model.t ->
  ?tau:float ->
  levels:Power.Vf.level_set ->
  t_max:float ->
  Thermal.Model.t ->
  t

(** [grid ?power ?tau ?ambient ~rows ~cols ~levels ~t_max ()] builds the
    paper's standard platform: a [rows x cols] mesh of 4x4 mm^2 cores
    with the core-level HotSpot model.  The paper's configurations are
    1x2, 1x3, 2x3 and 3x3. *)
val grid :
  ?power:Power.Power_model.t ->
  ?tau:float ->
  ?ambient:float ->
  rows:int ->
  cols:int ->
  levels:Power.Vf.level_set ->
  t_max:float ->
  unit ->
  t

(** [sheet ?power ?tau ?ambient ~rows ~cols ~levels ~t_max ()] builds a
    many-core platform on the single-layer conduction sheet
    ({!Thermal.Grid_model.sheet_spec}): every cell is one core node, so
    an [8x8] grid is a 64-node problem — the scaling-study geometry the
    sparse backend and the response-engine search tiers are sized for,
    three times smaller than {!grid}'s core-level HotSpot stack at equal
    core count. *)
val sheet :
  ?power:Power.Power_model.t ->
  ?tau:float ->
  ?ambient:float ->
  rows:int ->
  cols:int ->
  levels:Power.Vf.level_set ->
  t_max:float ->
  unit ->
  t

(** [n_cores p] is the platform's core count. *)
val n_cores : t -> int

(** [feasible p] tests that running every core at the lowest level keeps
    the steady state below [t_max] — the minimum requirement for any
    always-on policy to exist. *)
val feasible : t -> bool
