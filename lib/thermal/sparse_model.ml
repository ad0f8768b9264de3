module Vec = Linalg.Vec
module Sparse = Linalg.Sparse
module Krylov = Linalg.Krylov

type t = {
  spec : Spec.t;
  n : int;
  m_sym : Sparse.t;  (* M = C^{-1/2} G' C^{-1/2}, SPD *)
  diag : Vec.t;  (* diagonal of M, the Jacobi preconditioner *)
  c_sqrt : Vec.t;
  c_sqrt_inv : Vec.t;
  pool : Util.Pool.t option;  (* assembly pool, reused by steady_batch *)
}

(* Solver tolerances: three orders of magnitude under the 1e-9 bound the
   differential suite asserts against the dense path, so Krylov
   truncation never shows up in a comparison. *)
let cg_tol = 1e-13
let expmv_tol = 1e-13

(* Canonicalize one row of (col, value) pairs listed in assembly order:
   stable insertion sort by column, then sum runs of equal columns.
   Mirrors [Sparse.of_row_buckets] so a parallel per-row build matches
   [Sparse.of_triplets] bit for bit. *)
let canonical_row entries =
  let m = List.length entries in
  let cols = Array.make m 0 and vals = Array.make m 0. in
  List.iteri
    (fun k (j, v) ->
      cols.(k) <- j;
      vals.(k) <- v)
    entries;
  for k = 1 to m - 1 do
    let cj = cols.(k) and cv = vals.(k) in
    let p = ref (k - 1) in
    while !p >= 0 && cols.(!p) > cj do
      cols.(!p + 1) <- cols.(!p);
      vals.(!p + 1) <- vals.(!p);
      decr p
    done;
    cols.(!p + 1) <- cj;
    vals.(!p + 1) <- cv
  done;
  let w = ref 0 and k = ref 0 in
  while !k < m do
    let j = cols.(!k) in
    let acc = ref vals.(!k) in
    incr k;
    while !k < m && cols.(!k) = j do
      acc := !acc +. vals.(!k);
      incr k
    done;
    cols.(!w) <- j;
    vals.(!w) <- !acc;
    incr w
  done;
  (Array.sub cols 0 !w, Array.sub vals 0 !w)

let of_spec ?pool spec =
  let n = Spec.n_nodes spec in
  let c_sqrt = Vec.map sqrt spec.Spec.capacitance in
  let c_sqrt_inv = Vec.map (fun s -> 1. /. s) c_sqrt in
  (* Bucket the G' triplets by row sequentially (cheap, order-defining),
     then canonicalize and symmetrically scale each row across the pool.
     Per-row work is a pure function of its bucket, so the assembled CSR
     is bit-identical at any pool size. *)
  let buckets = Array.make n [] in
  List.iter
    (fun ((i, _, _) as tr) -> buckets.(i) <- tr :: buckets.(i))
    (Spec.g_eff_triplets spec);
  let rows =
    Util.Pool.init ?pool n (fun i ->
        let scale_i = c_sqrt_inv.(i) in
        canonical_row
          (List.rev_map
             (fun (_, j, v) -> (j, scale_i *. v *. c_sqrt_inv.(j)))
             buckets.(i)))
  in
  let m_sym = Sparse.of_row_arrays ~cols:n rows in
  { spec; n; m_sym; diag = Sparse.diagonal m_sym; c_sqrt; c_sqrt_inv; pool }

let of_model ?pool model = of_spec ?pool (Spec.of_model model)
let spec t = t.spec
let operator t = t.m_sym
let n_nodes t = t.n
let n_cores t = Array.length t.spec.Spec.core_nodes
let ambient t = t.spec.Spec.ambient
let ambient_state t = Vec.zeros t.n

let to_theta t y =
  if Vec.dim y <> t.n then invalid_arg "Sparse_model.to_theta: arity mismatch";
  Vec.mul t.c_sqrt_inv y

let apply t v = Sparse.spmv t.m_sym v

let core_temps t y =
  let amb = t.spec.Spec.ambient in
  Array.map (fun i -> (t.c_sqrt_inv.(i) *. y.(i)) +. amb) t.spec.Spec.core_nodes

let max_core_temp t y =
  let amb = t.spec.Spec.ambient in
  Array.fold_left
    (fun acc i -> Float.max acc ((t.c_sqrt_inv.(i) *. y.(i)) +. amb))
    neg_infinity t.spec.Spec.core_nodes

let check_psi t psi =
  if Vec.dim psi <> n_cores t then
    invalid_arg
      (Printf.sprintf "Sparse_model: power vector has arity %d, expected %d"
         (Vec.dim psi) (n_cores t))

(* Symmetrized heat input: b = C^{-1/2} h, with h carrying psi plus the
   leakage-linearization offset beta * T_amb at core nodes (exactly
   Model.heat_input's convention). *)
let heat_input t psi =
  check_psi t psi;
  let b = Vec.zeros t.n in
  let offset = t.spec.Spec.leak_beta *. t.spec.Spec.ambient in
  Array.iteri
    (fun k i -> b.(i) <- (psi.(k) +. offset) *. t.c_sqrt_inv.(i))
    t.spec.Spec.core_nodes;
  b

let steady_state t psi =
  Krylov.cg ~tol:cg_tol ~precond:(Krylov.jacobi t.diag) (apply t) (heat_input t psi)

let steady_core_temps t psi = core_temps t (steady_state t psi)
let steady_peak t psi = max_core_temp t (steady_state t psi)

let steady_batch ?pool t psis =
  let pool = match pool with Some _ as p -> p | None -> t.pool in
  Util.Pool.map ?pool (steady_state t) psis

(* Exact LTI advance by [dt] toward equilibrium [y_inf]:
   y(dt) = y_inf + e^{-dt M} (y - y_inf). *)
let advance t ~dt ~y_inf y =
  Vec.add y_inf (Krylov.expmv ~tol:expmv_tol (apply t) ~t:dt (Vec.sub y y_inf))

let step t ~dt ~state ~psi =
  if not (Float.is_finite dt && dt >= 0.) then
    invalid_arg "Sparse_model.step: duration must be finite and non-negative";
  if Vec.dim state <> t.n then invalid_arg "Sparse_model.step: state arity mismatch";
  advance t ~dt ~y_inf:(steady_state t psi) state

(* Measured-state correction, in place: core temperatures read
   c_sqrt_inv(i) * y_i + T_amb, so adding [deltas.(k)] kelvin to core
   [k]'s reading is y_i += deltas.(k) * c_sqrt(i) at its node.  Off-core
   nodes are untouched — exactly the Luenberger L = gain * H^T shape. *)
let correct_cores t ~state ~deltas =
  if Vec.dim state <> t.n then
    invalid_arg "Sparse_model.correct_cores: state arity mismatch";
  if Vec.dim deltas <> n_cores t then
    invalid_arg "Sparse_model.correct_cores: deltas arity differs from core count";
  Array.iteri
    (fun k i -> state.(i) <- state.(i) +. (deltas.(k) *. t.c_sqrt.(i)))
    t.spec.Spec.core_nodes

(* Periodic stable status.  Every segment shares the operator M, so one
   period is the affine map y -> e^{-T_p M} y + d; the fixed point solves
   (I - e^{-T_p M}) y* = d — no matrix power, no LU, no O(n^2)
   storage.  d is one simulated period from the zero state, exactly like
   the dense (I - K) reference solve of Eq. (4). *)
let stable_start t profile =
  Matex.validate (n_cores t) profile;
  let t_p = Matex.period profile in
  let d =
    List.fold_left
      (fun y (s : Matex.segment) ->
        advance t ~dt:s.duration ~y_inf:(steady_state t s.psi) y)
      (Vec.zeros t.n) profile
  in
  (* y* = (I - e^{-T_p M})^{-1} d is a matrix function of M applied to
     the drive: one Lanczos basis on [d] replaces a CG iteration whose
     every step was a full-period expmv (itself a basis build, with
     time-splitting on stiff spectra).  1/-expm1(-x) is the numerically
     stable form of 1/(1 - e^{-x}) for the slow modes (T_p lambda << 1).
     [d] is a pure function of the candidate profile — no worker-local
     history — so results stay bit-identical at any pool size. *)
  Krylov.prepared_apply (Krylov.prepare (apply t) d)
    ~f:(fun lam -> 1. /. -.Float.expm1 (-.t_p *. lam))

let end_of_period_peak t profile = max_core_temp t (stable_start t profile)
