type t = {
  name : string;
  n_cores : int;
  ambient_state : unit -> Linalg.Vec.t;
  step_into :
    dt:float -> state:Linalg.Vec.t -> psi:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit;
  correct_cores : state:Linalg.Vec.t -> deltas:Linalg.Vec.t -> unit;
  core_temps : Linalg.Vec.t -> Linalg.Vec.t;
  max_core_temp : Linalg.Vec.t -> float;
  steady_peak : Linalg.Vec.t -> float;
  equilibrium_into : psi:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit;
  sample_segment :
    dt:float -> samples:int -> eq:Linalg.Vec.t -> walker:Linalg.Vec.t -> int * float;
  stable :
    t_p:float -> ((duration:float -> psi:Linalg.Vec.t -> unit) -> unit) -> Linalg.Vec.t;
  prepare_base :
    t_p:float ->
    psi_low:Linalg.Vec.t ->
    psi_high:Linalg.Vec.t ->
    high_ratio:float array ->
    unit;
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
    n_cores = Model.n_cores model;
    ambient_state = (fun () -> Modal.ambient_state eng);
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
    steady_peak = Modal.steady_peak eng;
    equilibrium_into = (fun ~psi ~dst -> Modal.z_inf_into eng dst psi);
    sample_segment = Modal.sample_segment eng;
    stable = Modal.stable eng;
    prepare_base = Modal.prepare_base eng;
    delta_peak = Modal.delta_peak eng;
    delta_core_temp = Modal.delta_core_temp eng;
  }

let of_model model = of_modal (Modal.make model)

let of_response eng =
  {
    name = "sparse-response";
    n_cores = Sparse_response.n_cores eng;
    ambient_state = (fun () -> Sparse_response.ambient_state eng);
    step_into = Sparse_response.step_into eng;
    correct_cores = Sparse_response.correct_cores eng;
    core_temps = Sparse_response.core_temps eng;
    max_core_temp = Sparse_response.max_core_temp eng;
    steady_peak = Sparse_response.steady_peak eng;
    equilibrium_into = (fun ~psi ~dst -> Sparse_response.y_inf_into eng dst psi);
    sample_segment = Sparse_response.sample_segment eng;
    stable = Sparse_response.stable eng;
    prepare_base = Sparse_response.prepare_base eng;
    delta_peak = Sparse_response.delta_peak eng;
    delta_core_temp = Sparse_response.delta_core_temp eng;
  }

let of_reduced rom =
  let eng = Reduced.response rom in
  let unsupported what = invalid_arg ("Backend.of_reduced: " ^ what ^ " is exact-only") in
  {
    name = "sparse-reduced";
    n_cores = Sparse_response.n_cores eng;
    ambient_state = (fun () -> Reduced.ambient_state rom);
    step_into = Reduced.step_into rom;
    correct_cores = (fun ~state:_ ~deltas:_ -> unsupported "correct_cores");
    core_temps = Reduced.core_temps rom;
    max_core_temp = Reduced.max_core_temp rom;
    (* The reduction is exact at steady state: its static tier is the
       sparse engine's own table. *)
    steady_peak = Sparse_response.steady_peak eng;
    equilibrium_into = Reduced.equilibrium_into rom;
    sample_segment = Reduced.sample_segment rom;
    stable = Reduced.stable rom;
    prepare_base =
      (fun ~t_p:_ ~psi_low:_ ~psi_high:_ ~high_ratio:_ -> unsupported "prepare_base");
    delta_peak =
      (fun ~core:_ ~psi_low:_ ~psi_high:_ ~high_ratio:_ -> unsupported "delta_peak");
    delta_core_temp =
      (fun ~at:_ ~core:_ ~psi_low:_ ~psi_high:_ ~high_ratio:_ ->
        unsupported "delta_core_temp");
  }
