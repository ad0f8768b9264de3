(** PCO — phase-conscious oscillation (Section VI-C).

    AO keeps every candidate step-up so its peak is cheap to evaluate,
    but aligning all cores' high intervals at the period end concentrates
    power in time.  PCO starts from AO's result and additionally
    staggers the cores *spatially*: it searches a per-core phase shift of
    the high interval (a grid of offsets per core, greedily, core by
    core), then reclaims the temperature headroom the de-phasing opened
    by growing high-mode ratios ({!Tpt.fill_headroom}).  Shifted
    schedules are no longer step-up, so every peak evaluation needs the
    dense scan — which is why PCO is consistently slower than AO in
    Table V while gaining little throughput once m-oscillation has made
    the mini-period short against the thermal time constants. *)

type result = {
  config : Tpt.config;  (** Final configuration, offsets included. *)
  schedule : Sched.Schedule.t;
  m : int;  (** Inherited from the underlying AO run. *)
  throughput : float;
  peak : float;  (** Dense-scan stable-status peak. *)
  ao : Ao.result;  (** The AO solution PCO refines. *)
  fill_steps : int;  (** Headroom exchanges performed after shifting. *)
}

(** [solve ?base_period ?m_cap ?t_unit ?offsets_per_core ?rounds
    platform] runs AO, then [rounds] (default 1) passes of the greedy
    per-core phase search with [offsets_per_core] candidate shifts per
    core (default 8), then the headroom fill.  Additional rounds let
    early cores re-phase against the offsets later cores chose.  [par]
    (default [true]) evaluates each core's phase grid — and the
    underlying AO run and headroom fill — on the shared {!Util.Pool};
    selections stay sequential, so results match the sequential path.
    [eval] memoizes the step-up evaluations of the inner AO run and the
    headroom fill; on a context that already ran AO, the whole seed
    search replays from cache (the phase-grid dense scans are not
    memoized).  Each core's grid is one {!Screen.argmin} sweep with the
    incumbent at slot 0, ROM-screened on a screening context.
    [delta_margin] (kelvin, default [0.] — off) opts the inner AO run
    and the headroom fill into the prepared-base delta tier
    ({!Tpt.adjust_to_constraint}); the fill only uses it while the
    phase search left every core aligned. *)
val solve :
  ?eval:Eval.t ->
  ?base_period:float ->
  ?m_cap:int ->
  ?t_unit:float ->
  ?offsets_per_core:int ->
  ?rounds:int ->
  ?par:bool ->
  ?delta_margin:float ->
  Platform.t ->
  result

type Solver.details += Details of result

(** [policy] is PCO's registry adapter — delivered per-core speeds as
    [voltages], bit-identical to the direct {!solve}. *)
val policy : Solver.t
