module Vec = Linalg.Vec
module Sparse = Linalg.Sparse
module Krylov = Linalg.Krylov

type t = {
  ambient : float;
  mu : Vec.t;  (* retained decay rates, ascending, all positive *)
  cw : float array array;
  (* row j: c^{-1/2}_k w_j(core_k) per core k, for the orthonormal Ritz
     vector w_j (symmetrized space) — one table serving both
     the heat-input projection (w_j . b = sum_k cw_jk (psi_k + beta
     T_amb)) and the core-temperature read of mode j's contribution. *)
  beta_tamb : float;
  response : Sparse_response.t;
  (* The static (quasi-steady) tier: the response engine the reduction
     was built from. *)
  scratch : Vec.t Util.Per_domain.t;
      (* Per-domain state [stable] folds into, borrowed once per stable
         status, so pool workers never share partial sums. *)
}

let default_modes mu =
  (* Retain everything within one decade of the slowest rate (index 0:
     rates come ascending), floored at 4 modes, capped at the number of
     rates actually computed. *)
  let n = Vec.dim mu in
  let slowest = Float.abs mu.(0) in
  let count = ref 0 in
  for j = 0 to n - 1 do
    if Float.abs mu.(j) <= 10. *. slowest then incr count
  done;
  Stdlib.min n (Stdlib.max 4 !count)

let of_response ?modes response =
  let spec = Sparse_response.spec response in
  let n = Spec.n_nodes spec in
  (match modes with
  | Some k when k < 1 || k > n ->
      invalid_arg "Reduced.of_response: modes outside [1, n_nodes]"
  | _ -> ());
  (* With no explicit mode count, probe a few rates beyond the decade
     heuristic's floor and let [default_modes] truncate. *)
  let probe = match modes with Some k -> k | None -> Stdlib.min n 12 in
  let m = Sparse_response.operator response in
  let precond = Krylov.jacobi (Sparse.diagonal m) in
  let solve b = Krylov.cg ~precond (Sparse.spmv m) b in
  (* Shift-invert Lanczos: O(probe * nnz) per CG iteration, never a
     dense matrix — this is where the O(n^3) dense eigensolve drops to
     O(k * nnz). *)
  let pairs = Krylov.smallest_eigs ~tol:1e-12 ~n ~k:probe solve in
  let mu_all = Array.map fst pairs in
  let k = match modes with Some k -> k | None -> default_modes mu_all in
  let nc = Spec.n_cores spec in
  {
    ambient = spec.Spec.ambient;
    mu = Array.sub mu_all 0 k;
    cw =
      Array.init k (fun j ->
          let w = snd pairs.(j) in
          Array.map
            (fun node -> w.(node) /. sqrt spec.Spec.capacitance.(node))
            spec.Spec.core_nodes);
    beta_tamb = spec.Spec.leak_beta *. spec.Spec.ambient;
    response;
    scratch = Util.Per_domain.make (fun () -> Vec.zeros ((2 * k) + nc));
  }

let n_modes r = Vec.dim r.mu
let n_cores r = Sparse_response.n_cores r.response
let response r = r.response

(* --------------------------------------------- engine operations *)

(* The operations {!Backend.of_reduced} maps field for field, so the
   screening tier runs the same [Sched.Peak] evaluators as the exact
   engines.  A state is [z | z_eq | th]: the k retained coordinates,
   then the retained equilibrium and the n_cores ambient-relative static
   core temperatures of the segment it last stepped toward.  Core c
   reads th_c + sum_j cw_jc (z_j - z_eq_j) above ambient: the truncated
   fast modes sit at that segment's equilibrium, the retained ones at
   their own coordinates.  Exact at steady state; approximate in
   between, so screened searches re-verify survivors on an exact
   backend (Core.Screen). *)

let state_dim r = (2 * n_modes r) + n_cores r

let check_state r what v =
  if Vec.dim v <> state_dim r then invalid_arg ("Reduced." ^ what ^ ": state arity mismatch")

let check_dt what dt =
  if not (Float.is_finite dt && dt >= 0.) then
    invalid_arg ("Reduced." ^ what ^ ": duration must be finite and non-negative")

let ambient_state r = Vec.zeros (state_dim r)

(* Core [c]'s reading of state [s] above ambient. *)
let[@inline] core_rel r s c =
  let k = n_modes r in
  let acc = ref (Array.unsafe_get s ((2 * k) + c)) in
  for j = 0 to k - 1 do
    acc := !acc +. (Array.unsafe_get r.cw.(j) c *. (s.(j) -. s.(k + j)))
  done;
  !acc

(* The hottest core's reading above ambient. *)
let[@inline] max_rel r s =
  let best = ref neg_infinity in
  for c = 0 to n_cores r - 1 do
    let t = core_rel r s c in
    if t > !best then best := t
  done;
  !best

let core_temps r s =
  check_state r "core_temps" s;
  Array.init (n_cores r) (fun c -> core_rel r s c +. r.ambient)

let max_core_temp r s =
  check_state r "max_core_temp" s;
  max_rel r s +. r.ambient

(* Segment [psi]'s target into [dst]: its static core temperatures at
   [2k] (arity-checked by the engine), then its retained equilibrium
   z_inf_j = (w_j . b) / mu_j at [k], the projection read off the
   core-row table (b vanishes away from core nodes). *)
let target_into r dst psi =
  let k = n_modes r in
  Sparse_response.steady_core_into r.response dst ~pos:(2 * k) psi;
  for j = 0 to k - 1 do
    let row = r.cw.(j) in
    let acc = ref 0. in
    for i = 0 to Array.length row - 1 do
      acc := !acc +. ((psi.(i) +. r.beta_tamb) *. Array.unsafe_get row i)
    done;
    dst.(k + j) <- !acc /. r.mu.(j)
  done

(* Exact retained decay of [s]'s coordinates by [dt] toward its own
   z_eq block. *)
let decay r ~dt s =
  let k = n_modes r in
  for j = 0 to k - 1 do
    let g = -.Float.expm1 (-.r.mu.(j) *. dt) in
    s.(j) <- ((1. -. g) *. s.(j)) +. (g *. s.(k + j))
  done

let equilibrium_into r ~psi ~dst =
  check_state r "equilibrium_into" dst;
  target_into r dst psi;
  Array.blit dst (n_modes r) dst 0 (n_modes r)

let step_into r ~dt ~state ~psi ~dst =
  check_dt "step_into" dt;
  check_state r "step_into" state;
  check_state r "step_into" dst;
  if state == dst then invalid_arg "Reduced.step_into: dst must not alias state";
  target_into r dst psi;
  Array.blit state 0 dst 0 (n_modes r);
  decay r ~dt dst

let sample_segment r ~dt ~samples ~eq ~walker =
  if samples < 1 then invalid_arg "Reduced.sample_segment: non-positive sample count";
  check_dt "sample_segment" dt;
  check_state r "sample_segment" eq;
  check_state r "sample_segment" walker;
  let k = n_modes r in
  Array.blit eq k walker k (k + n_cores r);
  let best = ref neg_infinity and best_k = ref 0 in
  for i = 1 to samples do
    decay r ~dt walker;
    let temp = max_rel r walker +. r.ambient in
    if temp > !best then begin
      best := temp;
      best_k := i
    end
  done;
  (!best_k, !best)

(* The period-[t_p] stable status, mirroring [Modal.stable]: each fed
   segment retargets the scratch state and decays the per-mode drive
   toward it in closed form; the per-mode fixed point then closes as
   z*_j = d_j / (1 - e^{-mu_j T_p}), and the static tier is the
   last-fed segment's.  The caller gets a copy: scratch never leaves
   its domain. *)
let stable r ~t_p spans =
  if not (t_p > 0.) then invalid_arg "Reduced.stable: non-positive period";
  let k = n_modes r in
  let s = Util.Per_domain.get r.scratch in
  Array.fill s 0 k 0.;
  spans (fun ~duration ~psi ->
      if not (duration > 0.) then invalid_arg "Reduced.stable: non-positive duration";
      target_into r s psi;
      decay r ~dt:duration s);
  for j = 0 to k - 1 do
    s.(j) <- s.(j) /. -.Float.expm1 (-.r.mu.(j) *. t_p)
  done;
  Array.copy s
