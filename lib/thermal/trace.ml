module Vec = Linalg.Vec

type sample = { time : float; core_temps : Vec.t }

let from_ambient model ~periods ~samples_per_segment profile =
  if periods <= 0 then invalid_arg "Trace.from_ambient: periods <= 0";
  Matex.validate (Model.n_cores model) profile;
  let eng = Modal.make model in
  let z = ref (Modal.ambient_state eng) in
  let samples = ref [ { time = 0.; core_temps = Modal.core_temps eng !z } ] in
  let now = ref 0. in
  for _ = 1 to periods do
    List.iter
      (fun (s : Matex.segment) ->
        let dt = s.duration /. float_of_int samples_per_segment in
        for _ = 1 to samples_per_segment do
          z := Modal.step eng ~dt ~z:!z ~psi:s.psi;
          now := !now +. dt;
          samples := { time = !now; core_temps = Modal.core_temps eng !z } :: !samples
        done)
      profile
  done;
  Array.of_list (List.rev !samples)

let periods_to_stable model ?(tol = 1e-6) profile =
  Matex.validate (Model.n_cores model) profile;
  let eng = Modal.make model in
  let segs =
    List.map (fun (s : Matex.segment) -> (s.duration, Modal.z_inf eng s.psi)) profile
  in
  (* Iterate in modal coordinates; convergence is judged on the
     node-space boundary states, as the tolerance is in kelvin. *)
  let z = Modal.ambient_state eng in
  let theta = ref (Modal.of_modal eng z) in
  let rec go count =
    if count >= 10_000 then count
    else begin
      List.iter
        (fun (dt, eq) ->
          ignore (Modal.sample_segment eng ~dt ~samples:1 ~eq ~walker:z : int * float))
        segs;
      let next = Modal.of_modal eng z in
      let moved = Vec.dist_inf next !theta in
      theta := next;
      if moved < tol then count + 1 else go (count + 1)
    end
  in
  go 0

let peak samples =
  Array.fold_left (fun acc s -> Float.max acc (Vec.max s.core_temps)) neg_infinity samples

let to_csv_channel oc model samples =
  let n = Model.n_cores model in
  output_string oc "time";
  for i = 0 to n - 1 do
    Printf.fprintf oc ",core%d" i
  done;
  output_char oc '\n';
  Array.iter
    (fun s ->
      Printf.fprintf oc "%.6f" s.time;
      Array.iter (fun t -> Printf.fprintf oc ",%.4f" t) s.core_temps;
      output_char oc '\n')
    samples
