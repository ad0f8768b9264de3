module Mat = Linalg.Mat
module Vec = Linalg.Vec

type t = {
  ambient : float;
  leak_beta : float;
  capacitance : Vec.t;
  to_ambient : Vec.t;
  edges : (int * int * float) list;
  core_nodes : int array;
}

let make ~ambient ~leak_beta ~capacitance ~to_ambient ~edges ~core_nodes () =
  let n = Vec.dim capacitance in
  if Vec.dim to_ambient <> n then
    invalid_arg "Spec.make: capacitance/to_ambient arity mismatch";
  (* Finite-range tests, written so that NaN and infinity fail them. *)
  if not (Float.is_finite ambient) then
    invalid_arg "Spec.make: ambient temperature must be finite";
  if not (Vec.for_all (fun c -> Float.is_finite c && c > 0.) capacitance) then
    invalid_arg "Spec.make: capacitances must be finite and positive";
  if not (Vec.for_all (fun g -> Float.is_finite g && g >= 0.) to_ambient) then
    invalid_arg "Spec.make: ambient conductances must be finite and non-negative";
  if not (Float.is_finite leak_beta && leak_beta >= 0.) then
    invalid_arg "Spec.make: leakage slope must be finite and non-negative";
  List.iter
    (fun (i, j, g) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg (Printf.sprintf "Spec.make: edge (%d, %d) out of range" i j);
      if i = j then invalid_arg "Spec.make: self-loop edge";
      if not (Float.is_finite g && g >= 0.) then
        invalid_arg "Spec.make: edge conductances must be finite and non-negative")
    edges;
  if Array.length core_nodes = 0 then invalid_arg "Spec.make: no core nodes";
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Spec.make: core node index out of range";
      if seen.(i) then invalid_arg "Spec.make: duplicate core node index";
      seen.(i) <- true)
    core_nodes;
  {
    ambient;
    leak_beta;
    capacitance = Vec.copy capacitance;
    to_ambient = Vec.copy to_ambient;
    edges;
    core_nodes = Array.copy core_nodes;
  }

let of_network ?(ambient = 35.) ?(leak_beta = 0.05) ~core_nodes net =
  make ~ambient ~leak_beta
    ~capacitance:(Rc_network.capacitance_vector net)
    ~to_ambient:(Rc_network.to_ambient_vector net)
    ~edges:(Rc_network.edges net) ~core_nodes ()

let of_model model =
  let g_eff = Model.effective_conductance model in
  let n = Model.n_nodes model in
  let beta = Model.leak_beta model in
  let core_nodes = Model.core_nodes model in
  let is_core = Array.make n false in
  Array.iter (fun i -> is_core.(i) <- true) core_nodes;
  (* G'_ij = -g_ij off-diagonal; every row of G sums to the ambient
     conductance, and G' = G - beta E, so the row sum of G' recovers
     to_ambient minus beta at core rows. *)
  let edges = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      let g = -.Mat.get g_eff i j in
      if Float.abs g > 0. then edges := (i, j, g) :: !edges
    done
  done;
  let to_ambient =
    Vec.init n (fun i ->
        let row = ref 0. in
        for j = 0 to n - 1 do
          row := !row +. Mat.get g_eff i j
        done;
        let amb = !row +. (if is_core.(i) then beta else 0.) in
        (* Assembled row sums cancel to to_ambient exactly in theory;
           clamp the residual negative dust so [make] accepts it. *)
        Float.max 0. amb)
  in
  make ~ambient:(Model.ambient model) ~leak_beta:beta
    ~capacitance:(Model.capacitance model)
    ~to_ambient ~edges:!edges ~core_nodes ()

let n_nodes spec = Vec.dim spec.capacitance
let n_cores spec = Array.length spec.core_nodes

let g_eff_triplets spec =
  let diag = Array.to_list (Array.mapi (fun i g -> (i, i, g)) spec.to_ambient) in
  let leak =
    Array.to_list
      (Array.map (fun i -> (i, i, -.spec.leak_beta)) spec.core_nodes)
  in
  let coupling =
    List.concat_map
      (fun (i, j, g) -> [ (i, j, -.g); (j, i, -.g); (i, i, g); (j, j, g) ])
      spec.edges
  in
  diag @ leak @ coupling

let conductance_dense spec =
  let g = Mat.diag spec.to_ambient in
  List.iter
    (fun (i, j, gij) ->
      Mat.set g i j (Mat.get g i j -. gij);
      Mat.set g j i (Mat.get g j i -. gij);
      Mat.set g i i (Mat.get g i i +. gij);
      Mat.set g j j (Mat.get g j j +. gij))
    spec.edges;
  g

let to_model spec =
  Model.make ~ambient:spec.ambient ~leak_beta:spec.leak_beta
    ~capacitance:spec.capacitance
    ~conductance:(conductance_dense spec)
    ~core_nodes:spec.core_nodes ()
