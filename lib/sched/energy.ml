type breakdown = { dynamic : float; leakage : float; period : float }

let total b = b.dynamic +. b.leakage
let average_power b = total b /. b.period

let per_period model pm s =
  let eng = Thermal.Modal.make model in
  let profile = Peak.profile (Thermal.Backend.of_modal eng) pm s in
  let lambda = Thermal.Modal.eigenvalues eng in
  let beta = Thermal.Model.leak_beta model in
  let ambient = Thermal.Model.ambient model in
  let cores = Thermal.Model.core_nodes model in
  let dynamic = ref 0. and leakage = ref 0. in
  let z =
    Array.copy
      (Thermal.Modal.stable eng ~t_p:(Thermal.Matex.period profile)
         (Thermal.Matex.spans profile))
  in
  List.iter
    (fun (seg : Thermal.Matex.segment) ->
      let dt = seg.duration in
      dynamic := !dynamic +. (Linalg.Vec.sum seg.psi *. dt);
      (* Leakage: beta * (theta_i + T_amb) integrated exactly.  Per mode,
         int_0^dt z = z_eq dt + (z0 - z_eq) expm1(lambda dt) / lambda. *)
      let z_eq = Thermal.Modal.z_inf eng seg.psi in
      let z_integral =
        Array.mapi
          (fun j l ->
            (z_eq.(j) *. dt) +. ((z.(j) -. z_eq.(j)) *. Float.expm1 (l *. dt) /. l))
          lambda
      in
      let theta_integral = Thermal.Modal.of_modal eng z_integral in
      Array.iter
        (fun i ->
          leakage := !leakage +. (beta *. (theta_integral.(i) +. (ambient *. dt))))
        cores;
      ignore
        (Thermal.Modal.sample_segment eng ~dt ~samples:1 ~eq:z_eq ~walker:z
          : int * float))
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
