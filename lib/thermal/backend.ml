type t = {
  name : string;
  n_nodes : int;
  n_cores : int;
  ambient : float;
  ambient_state : unit -> Linalg.Vec.t;
  step : dt:float -> state:Linalg.Vec.t -> psi:Linalg.Vec.t -> Linalg.Vec.t;
  step_into :
    dt:float -> state:Linalg.Vec.t -> psi:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit;
  correct_cores : state:Linalg.Vec.t -> deltas:Linalg.Vec.t -> unit;
  core_temps : Linalg.Vec.t -> Linalg.Vec.t;
  max_core_temp : Linalg.Vec.t -> float;
  steady_core_temps : Linalg.Vec.t -> Linalg.Vec.t;
  steady_peak : Linalg.Vec.t -> float;
  equilibrium_into : psi:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit;
  advance_into :
    dt:float -> eq:Linalg.Vec.t -> src:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit;
  stable_begin : unit -> unit;
  stable_feed : duration:float -> psi:Linalg.Vec.t -> unit;
  stable_solve : t_p:float -> Linalg.Vec.t;
  base_begin : t_p:float -> unit;
  base_feed : core:int -> psi_low:float -> psi_high:float -> high_ratio:float -> unit;
  base_solve : unit -> Linalg.Vec.t;
  delta_peak : core:int -> psi_low:float -> psi_high:float -> high_ratio:float -> float;
  delta_core_temp :
    at:int -> core:int -> psi_low:float -> psi_high:float -> high_ratio:float -> float;
}

let of_modal eng =
  let model = Modal.model eng in
  let n = Model.n_nodes model in
  (* Modal images of a +1 K bump at each core node (one matvec per
     core), built on the first correction only: evaluation-only callers
     never pay for them.  A [Util.Once], not a [Lazy], because a shared
     backend may be first corrected from any domain.  Reading the
     corrected state back through the core rows of W recovers the bump
     exactly: core_rows . W^{-1} e_node = e_core. *)
  let core_cols =
    Util.Once.make (fun () ->
        Array.map
          (fun node ->
            let e = Linalg.Vec.zeros n in
            e.(node) <- 1.;
            Modal.to_modal eng e)
          (Model.core_nodes model))
  in
  {
    name = "dense-modal";
    n_nodes = n;
    n_cores = Model.n_cores model;
    ambient = Model.ambient model;
    ambient_state = (fun () -> Modal.ambient_state eng);
    step = (fun ~dt ~state ~psi -> Modal.step eng ~dt ~z:state ~psi);
    step_into = (fun ~dt ~state ~psi ~dst -> Modal.step_into eng ~dt ~z:state ~psi ~dst);
    correct_cores =
      (fun ~state ~deltas ->
        let core_cols = Util.Once.get core_cols in
        if Linalg.Vec.dim deltas <> Array.length core_cols then
          invalid_arg "Backend.correct_cores: deltas arity differs from core count";
        if Linalg.Vec.dim state <> n then
          invalid_arg "Backend.correct_cores: state arity mismatch";
        Array.iteri
          (fun k col ->
            let d = deltas.(k) in
            if not (Float.equal d 0.) then
              for j = 0 to n - 1 do
                state.(j) <- state.(j) +. (d *. col.(j))
              done)
          core_cols);
    core_temps = Modal.core_temps eng;
    max_core_temp = Modal.max_core_temp eng;
    steady_core_temps = (fun psi -> Modal.core_temps eng (Modal.z_inf eng psi));
    steady_peak = Modal.steady_peak eng;
    equilibrium_into = (fun ~psi ~dst -> Modal.z_inf_into eng dst psi);
    advance_into =
      (fun ~dt ~eq ~src ~dst -> Modal.advance_into eng ~dt ~eq ~src ~dst);
    stable_begin = (fun () -> Modal.stable_begin eng);
    stable_feed = (fun ~duration ~psi -> Modal.stable_feed eng ~duration ~psi);
    stable_solve = (fun ~t_p -> Modal.stable_solve eng ~t_p);
    base_begin = (fun ~t_p -> Modal.base_begin eng ~t_p);
    base_feed =
      (fun ~core ~psi_low ~psi_high ~high_ratio ->
        Modal.base_feed eng ~core ~psi_low ~psi_high ~high_ratio);
    base_solve = (fun () -> Modal.base_solve eng);
    delta_peak =
      (fun ~core ~psi_low ~psi_high ~high_ratio ->
        Modal.delta_peak eng ~core ~psi_low ~psi_high ~high_ratio);
    delta_core_temp =
      (fun ~at ~core ~psi_low ~psi_high ~high_ratio ->
        Modal.delta_core_temp eng ~at ~core ~psi_low ~psi_high ~high_ratio);
  }

let of_model model = of_modal (Modal.make model)

let of_response resp =
  let eng = Sparse_response.engine resp in
  {
    name = "sparse-response";
    n_nodes = Sparse_response.n_nodes resp;
    n_cores = Sparse_response.n_cores resp;
    ambient = Sparse_response.ambient resp;
    ambient_state = (fun () -> Sparse_model.ambient_state eng);
    step = Sparse_response.step resp;
    step_into =
      (fun ~dt ~state ~psi ~dst ->
        let next = Sparse_response.step resp ~dt ~state ~psi in
        Array.blit next 0 dst 0 (Sparse_model.n_nodes eng));
    correct_cores = (fun ~state ~deltas -> Sparse_model.correct_cores eng ~state ~deltas);
    core_temps = Sparse_model.core_temps eng;
    max_core_temp = Sparse_model.max_core_temp eng;
    steady_core_temps = Sparse_response.steady_core_temps resp;
    steady_peak = Sparse_response.steady_peak resp;
    equilibrium_into = (fun ~psi ~dst -> Sparse_response.y_inf_into resp dst psi);
    advance_into =
      (fun ~dt ~eq ~src ~dst ->
        let next = Sparse_model.advance eng ~dt ~y_inf:eq src in
        Array.blit next 0 dst 0 (Sparse_model.n_nodes eng));
    stable_begin = (fun () -> Sparse_response.stable_begin resp);
    stable_feed = (fun ~duration ~psi -> Sparse_response.stable_feed resp ~duration ~psi);
    stable_solve = (fun ~t_p -> Sparse_response.stable_solve resp ~t_p);
    base_begin = (fun ~t_p -> Sparse_response.base_begin resp ~t_p);
    base_feed =
      (fun ~core ~psi_low ~psi_high ~high_ratio ->
        Sparse_response.base_feed resp ~core ~psi_low ~psi_high ~high_ratio);
    base_solve = (fun () -> Sparse_response.base_solve resp);
    delta_peak =
      (fun ~core ~psi_low ~psi_high ~high_ratio ->
        Sparse_response.delta_peak resp ~core ~psi_low ~psi_high ~high_ratio);
    delta_core_temp =
      (fun ~at ~core ~psi_low ~psi_high ~high_ratio ->
        Sparse_response.delta_core_temp resp ~at ~core ~psi_low ~psi_high
          ~high_ratio);
  }
