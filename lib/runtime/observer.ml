module Vec = Linalg.Vec
module B = Thermal.Backend

type t = {
  backend : B.t;
  dt : float;
  gain : float;
  pred : Vec.t;  (* predicted-state scratch, backend coordinates *)
  deltas : Vec.t;  (* innovation scratch, one slot per core *)
}

let create ?(gain = 0.5) backend ~dt =
  if not (gain > 0. && gain <= 1.) then invalid_arg "Observer.create: gain outside (0, 1]";
  if not (Float.is_finite dt && dt > 0.) then
    invalid_arg "Observer.create: dt must be finite and positive";
  {
    backend;
    dt;
    gain;
    pred = backend.B.ambient_state ();
    deltas = Vec.zeros backend.B.n_cores;
  }

let backend o = o.backend
let initial o = o.backend.B.ambient_state ()

let update_into o ~estimate ~psi ~measured =
  let b = o.backend in
  if Vec.dim measured <> b.B.n_cores then
    invalid_arg "Observer.update_into: measurement arity differs from core count";
  if Vec.dim estimate <> Vec.dim o.pred then
    invalid_arg "Observer.update_into: estimate arity differs from the backend state";
  (* Predict with the exact plant model... *)
  b.B.step_into ~dt:o.dt ~state:estimate ~psi ~dst:o.pred;
  Array.blit o.pred 0 estimate 0 (Vec.dim estimate);
  (* ...then correct the measured cores toward the innovation, in the
     backend's own state coordinates. *)
  let cores = b.B.core_temps estimate in
  for k = 0 to b.B.n_cores - 1 do
    o.deltas.(k) <- o.gain *. (measured.(k) -. cores.(k))
  done;
  b.B.correct_cores ~state:estimate ~deltas:o.deltas

let update o ~estimate ~psi ~measured =
  let e = Vec.copy estimate in
  update_into o ~estimate:e ~psi ~measured;
  e

let core_estimates o estimate = o.backend.B.core_temps estimate
