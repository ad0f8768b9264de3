type breakdown = { dynamic : float; leakage : float; period : float }

let total b = b.dynamic +. b.leakage
let average_power b = total b /. b.period

let per_period model pm s =
  let profile = Peak.profile (Thermal.Backend.of_model model) pm s in
  let boundaries = Thermal.Matex.stable_boundaries model profile in
  let beta = Thermal.Model.leak_beta model in
  let ambient = Thermal.Model.ambient model in
  let cores = Thermal.Model.core_nodes model in
  let dynamic = ref 0. and leakage = ref 0. in
  List.iteri
    (fun q (seg : Thermal.Matex.segment) ->
      dynamic := !dynamic +. (Linalg.Vec.sum seg.Thermal.Matex.psi *. seg.duration);
      (* Leakage: beta * (theta_i + T_amb) integrated exactly. *)
      let theta_integral =
        Thermal.Model.integrate_theta model ~dt:seg.duration ~theta:boundaries.(q)
          ~psi:seg.Thermal.Matex.psi
      in
      Array.iter
        (fun i ->
          leakage :=
            !leakage +. (beta *. (theta_integral.(i) +. (ambient *. seg.duration))))
        cores)
    profile;
  { dynamic = !dynamic; leakage = !leakage; period = Schedule.period s }

let per_work model pm ?(tau = 0.) s =
  let b = per_period model pm s in
  let work =
    Throughput.with_overhead ~tau s
    *. float_of_int (Schedule.n_cores s)
    *. Schedule.period s
  in
  if work <= 0. then invalid_arg "Energy.per_work: schedule performs no work";
  total b /. work
