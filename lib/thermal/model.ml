module Mat = Linalg.Mat
module Vec = Linalg.Vec

type t = {
  ambient : float;
  leak_beta : float;
  capacitance : Vec.t;
  core_nodes : int array;
  is_core : bool array;
  g_eff : Mat.t; (* G' = G - beta E, the effective conductance *)
  g_eff_lu : Linalg.Lu.factorization;
  (* Eigen cache: A = w diag(lambda) w_inv with real negative lambda. *)
  lambda : Vec.t;
  w : Mat.t;
  w_inv : Mat.t;
}

let make ~ambient ~leak_beta ~capacitance ~conductance ~core_nodes () =
  let n = Vec.dim capacitance in
  if conductance.Mat.rows <> n || conductance.Mat.cols <> n then
    invalid_arg "Model.make: conductance/capacitance dimension mismatch";
  if not (Mat.is_symmetric ~tol:1e-8 conductance) then
    invalid_arg "Model.make: conductance matrix must be symmetric";
  if not (Vec.for_all (fun c -> c > 0.) capacitance) then
    invalid_arg "Model.make: capacitances must be positive";
  if not (Float.is_finite ambient) then
    invalid_arg "Model.make: ambient temperature must be finite";
  if not (Float.is_finite leak_beta && leak_beta >= 0.) then
    invalid_arg "Model.make: leakage slope must be finite and non-negative";
  let is_core = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Model.make: core node index out of range";
      if is_core.(i) then invalid_arg "Model.make: duplicate core node index";
      is_core.(i) <- true)
    core_nodes;
  if Array.length core_nodes = 0 then invalid_arg "Model.make: no core nodes";
  let g_eff =
    Mat.init n n (fun i j ->
        let g = Mat.get conductance i j in
        if i = j && is_core.(i) then g -. leak_beta else g)
  in
  (* Diagonalize the symmetrized system: M = C^{-1/2} G' C^{-1/2}. *)
  let c_sqrt_inv = Vec.map (fun c -> 1. /. sqrt c) capacitance in
  let c_sqrt = Vec.map sqrt capacitance in
  let m_sym =
    Mat.init n n (fun i j -> c_sqrt_inv.(i) *. Mat.get g_eff i j *. c_sqrt_inv.(j))
  in
  let eig = Linalg.Sym_eig.decompose m_sym in
  if not (Vec.for_all (fun mu -> mu > 0.) eig.Linalg.Sym_eig.eigenvalues) then
    invalid_arg
      "Model.make: G - beta*E is not positive definite (leakage-driven thermal runaway \
       or an ungrounded network)";
  (* A = C^{-1/2} (-M) C^{1/2}  =>  W = C^{-1/2} V, W^{-1} = V^T C^{1/2}. *)
  let v = eig.Linalg.Sym_eig.eigenvectors in
  let lambda = Vec.map (fun mu -> -.mu) eig.Linalg.Sym_eig.eigenvalues in
  let w = Mat.init n n (fun i j -> c_sqrt_inv.(i) *. Mat.get v i j) in
  let w_inv = Mat.init n n (fun i j -> Mat.get v j i *. c_sqrt.(j)) in
  {
    ambient;
    leak_beta;
    capacitance = Vec.copy capacitance;
    core_nodes = Array.copy core_nodes;
    is_core;
    g_eff;
    g_eff_lu = Linalg.Lu.factorize g_eff;
    lambda;
    w;
    w_inv;
  }

let n_nodes m = Vec.dim m.capacitance
let n_cores m = Array.length m.core_nodes
let core_nodes m = Array.copy m.core_nodes
let ambient m = m.ambient
let leak_beta m = m.leak_beta
let a_matrix m =
  let n = n_nodes m in
  Mat.init n n (fun i j -> -.(Mat.get m.g_eff i j) /. m.capacitance.(i))

let capacitance m = Vec.copy m.capacitance
let effective_conductance m = Mat.copy m.g_eff

let check_psi m psi =
  if Vec.dim psi <> n_cores m then
    invalid_arg
      (Printf.sprintf "Model: power vector has %d entries, expected %d cores"
         (Vec.dim psi) (n_cores m))

(* E psi + beta * T_amb * e, the node-space heat input in theta space. *)
let heat_input m psi =
  check_psi m psi;
  let inp = Vec.zeros (n_nodes m) in
  Array.iteri
    (fun k i -> inp.(i) <- psi.(k) +. (m.leak_beta *. m.ambient))
    m.core_nodes;
  inp

let input_of_core_powers m psi =
  let inp = heat_input m psi in
  Array.mapi (fun i x -> x /. m.capacitance.(i)) inp

let theta_inf m psi = Linalg.Lu.solve_vec m.g_eff_lu (heat_input m psi)

let core_temps_of_theta m theta =
  Array.map (fun i -> theta.(i) +. m.ambient) m.core_nodes

let steady_core_temps m psi = core_temps_of_theta m (theta_inf m psi)

let max_core_temp m theta =
  Array.fold_left (fun acc i -> Float.max acc (theta.(i) +. m.ambient)) neg_infinity
    m.core_nodes

let eigenvalues m = Vec.copy m.lambda

let time_constants m =
  let tc = Vec.map (fun l -> -1. /. l) m.lambda in
  Array.sort (fun a b -> Float.compare b a) tc;
  tc

type core_constraint = Pinned_temperature of float | Known_power of float

let solve_mixed m constraints =
  if Array.length constraints <> n_cores m then
    invalid_arg
      (Printf.sprintf "Model.solve_mixed: %d constraints for %d cores"
         (Array.length constraints) (n_cores m));
  let n = n_nodes m in
  (* Known absolute temperature per node (pinned cores only). *)
  let pinned = Array.make n None in
  Array.iteri
    (fun k i ->
      match constraints.(k) with
      | Pinned_temperature t -> pinned.(i) <- Some (t -. m.ambient)
      | Known_power _ -> ())
    m.core_nodes;
  (* Per-node known heat input in theta space. *)
  let input = Vec.zeros n in
  Array.iteri
    (fun k i ->
      match constraints.(k) with
      | Known_power psi -> input.(i) <- psi +. (m.leak_beta *. m.ambient)
      | Pinned_temperature _ -> input.(i) <- m.leak_beta *. m.ambient)
    m.core_nodes;
  let free = ref [] in
  for i = n - 1 downto 0 do
    if pinned.(i) = None then free := i :: !free
  done;
  let free = Array.of_list !free in
  let nf = Array.length free in
  let theta = Vec.zeros n in
  Array.iteri (fun i p -> match p with Some th -> theta.(i) <- th | None -> ()) pinned;
  if nf > 0 then begin
    (* G'_ff theta_f = input_f - G'_fp theta_p *)
    let gff = Mat.init nf nf (fun a b -> Mat.get m.g_eff free.(a) free.(b)) in
    let rhs =
      Array.init nf (fun a ->
          let i = free.(a) in
          let acc = ref input.(i) in
          for j = 0 to n - 1 do
            match pinned.(j) with
            | Some th -> acc := !acc -. (Mat.get m.g_eff i j *. th)
            | None -> ()
          done;
          !acc)
    in
    let theta_f = Linalg.Lu.solve gff rhs in
    Array.iteri (fun a i -> theta.(i) <- theta_f.(a)) free
  end;
  let gtheta = Mat.matvec m.g_eff theta in
  let psi =
    Array.mapi
      (fun k i ->
        match constraints.(k) with
        | Known_power p -> p
        | Pinned_temperature _ -> gtheta.(i) -. (m.leak_beta *. m.ambient))
      m.core_nodes
  in
  let temps = Array.map (fun th -> th +. m.ambient) theta in
  (psi, temps)

let eigenbasis m = (Vec.copy m.lambda, Mat.copy m.w, Mat.copy m.w_inv)

(* Zero-copy view of the eigendata for Modal; the arrays are shared with
   the model and must be treated as read-only. *)
let modal_parts m = (m.lambda, m.w, m.w_inv)

let solve_powers_for_uniform_core_temp m t_target =
  fst (solve_mixed m (Array.make (n_cores m) (Pinned_temperature t_target)))
