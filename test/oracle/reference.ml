module Mat = Linalg.Mat
module Vec = Linalg.Vec
module Model = Thermal.Model
module Matex = Thermal.Matex

let propagator m dt =
  let lambda, w, w_inv = Model.eigenbasis m in
  let n = Vec.dim lambda in
  let e = Vec.map (fun l -> exp (l *. dt)) lambda in
  (* W diag(e) W^{-1} without forming the diagonal matrix. *)
  let scaled = Mat.init n n (fun i j -> Mat.get w i j *. e.(j)) in
  Mat.matmul scaled w_inv

(* One exact step through an already-built propagator [p] = e^{A dt}:
   the loops below build [p] once per segment length and reuse it. *)
let step_with m p ~theta ~psi =
  let tinf = Model.theta_inf m psi in
  Vec.add (Mat.matvec p (Vec.sub theta tinf)) tinf

let step m ~dt ~theta ~psi = step_with m (propagator m dt) ~theta ~psi

let derivative m theta psi =
  Vec.add (Mat.matvec (Model.a_matrix m) theta) (Model.input_of_core_powers m psi)

let integrate_theta m ~dt ~theta ~psi =
  if dt < 0. then invalid_arg "Reference.integrate_theta: negative dt";
  let theta_end = step m ~dt ~theta ~psi in
  let b = Model.input_of_core_powers m psi in
  let rhs = Vec.sub (Vec.sub theta_end theta) (Vec.scale dt b) in
  (* A^{-1} y = -(G')^{-1} C y. *)
  let c_rhs = Vec.mul (Model.capacitance m) rhs in
  Vec.scale (-1.) (Linalg.Lu.solve (Model.effective_conductance m) c_rhs)

let simulate model ~theta0 profile =
  Matex.validate (Model.n_cores model) profile;
  let states = Array.make (List.length profile + 1) theta0 in
  List.iteri
    (fun q (s : Matex.segment) ->
      states.(q + 1) <- step model ~dt:s.duration ~theta:states.(q) ~psi:s.psi)
    profile;
  states

let stable_start model profile =
  Matex.validate (Model.n_cores model) profile;
  let n = Model.n_nodes model in
  (* One period from the zero state gives theta(t_p) = K*0 + d = d, and
     K is the ordered product of segment propagators. *)
  let d = ref (Vec.zeros n) in
  let k = ref (Mat.identity n) in
  List.iter
    (fun (s : Matex.segment) ->
      let p = propagator model s.duration in
      d := step_with model p ~theta:!d ~psi:s.psi;
      k := Mat.matmul p !k)
    profile;
  (* Stable status: theta* = K theta* + d. *)
  let i_minus_k = Mat.sub (Mat.identity n) !k in
  Linalg.Lu.solve i_minus_k !d

let stable_boundaries model profile =
  let theta0 = stable_start model profile in
  simulate model ~theta0 profile

let scan_segment model ~samples theta (s : Matex.segment) visit =
  let dt = s.duration /. float_of_int samples in
  let p = propagator model dt in
  let theta = ref theta in
  for k = 1 to samples do
    theta := step_with model p ~theta:!theta ~psi:s.psi;
    visit (float_of_int k *. dt) !theta
  done;
  !theta

let peak_scan model ?(samples_per_segment = 32) profile =
  let boundaries = stable_boundaries model profile in
  let best = ref (Model.max_core_temp model boundaries.(0)) in
  List.iteri
    (fun q s ->
      ignore
        (scan_segment model ~samples:samples_per_segment boundaries.(q) s
           (fun _ theta -> best := Float.max !best (Model.max_core_temp model theta))))
    profile;
  !best

let peak_refined model ?(samples_per_segment = 32) ?(tol = 1e-4) profile =
  let boundaries = stable_boundaries model profile in
  let best = ref (Model.max_core_temp model boundaries.(0)) in
  List.iteri
    (fun q (s : Matex.segment) ->
      (* Dense scan of this segment, remembering the hottest sample. *)
      let dt = s.duration /. float_of_int samples_per_segment in
      let best_k = ref 0 and best_here = ref (Model.max_core_temp model boundaries.(q)) in
      ignore
        (scan_segment model ~samples:samples_per_segment boundaries.(q) s
           (fun t theta ->
             let temp = Model.max_core_temp model theta in
             if temp > !best_here then begin
               best_here := temp;
               best_k := int_of_float (Float.round (t /. dt))
             end));
      best := Float.max !best !best_here;
      (* Refine inside the bracketing interval around the best sample. *)
      let lo = Float.max 0. ((float_of_int !best_k -. 1.) *. dt) in
      let hi = Float.min s.duration ((float_of_int !best_k +. 1.) *. dt) in
      if hi > lo then begin
        let temp_at t =
          Model.max_core_temp model (step model ~dt:t ~theta:boundaries.(q) ~psi:s.psi)
        in
        best := Float.max !best (Matex.golden_max temp_at lo hi (tol *. s.duration))
      end)
    profile;
  !best
