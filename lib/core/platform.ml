type t = {
  model : Thermal.Model.t;
  power : Power.Power_model.t;
  levels : Power.Vf.level_set;
  t_max : float;
  tau : float;
}

let make ?(power = Power.Power_model.default) ?(tau = 5e-6) ~levels ~t_max model =
  (* Positive range tests, so a NaN threshold or overhead is rejected. *)
  if not (Float.is_finite t_max && t_max > Thermal.Model.ambient model) then
    invalid_arg "Platform.make: t_max must be finite and exceed the ambient temperature";
  if not (Float.is_finite tau && tau >= 0.) then
    invalid_arg "Platform.make: tau must be finite and non-negative";
  { model; power; levels; t_max; tau }

let grid ?power ?tau ?(ambient = 35.) ~rows ~cols ~levels ~t_max () =
  let fp = Thermal.Floorplan.grid ~rows ~cols ~core_width:4e-3 ~core_height:4e-3 in
  let beta =
    match power with Some pm -> pm.Power.Power_model.beta | None -> Power.Power_model.default.Power.Power_model.beta
  in
  let model = Thermal.Hotspot.core_level ~ambient ~leak_beta:beta fp in
  make ?power ?tau ~levels ~t_max model

let sheet ?power ?tau ?(ambient = 35.) ~rows ~cols ~levels ~t_max () =
  let beta =
    match power with Some pm -> pm.Power.Power_model.beta | None -> Power.Power_model.default.Power.Power_model.beta
  in
  let spec = Thermal.Grid_model.sheet_spec ~ambient ~leak_beta:beta ~rows ~cols () in
  make ?power ?tau ~levels ~t_max (Thermal.Spec.to_model spec)

let n_cores p = Thermal.Model.n_cores p.model

let feasible p =
  let v = Array.make (n_cores p) (Power.Vf.lowest p.levels) in
  Sched.Peak.steady_constant (Thermal.Backend.of_model p.model) p.power v
  <= p.t_max +. 1e-9
