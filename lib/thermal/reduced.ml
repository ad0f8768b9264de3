module Vec = Linalg.Vec
module Sparse = Linalg.Sparse
module Krylov = Linalg.Krylov

(* Per-domain scratch for the screening evaluators below: retained-mode
   drive accumulation and core-temperature reads, all allocation-free.
   Pool workers each see their own copy ({!Util.Per_domain}, owned by
   the reduction, borrowed once per score), so concurrent candidate
   scores never share partial sums. *)
type rom_scratch = {
  zd : float array;  (* accumulated per-mode periodic drive *)
  z_eq : float array;  (* current segment's retained equilibrium *)
  z_last : float array;  (* last-fed segment's retained equilibrium *)
  th : float array;  (* last-fed segment's static core temps (rel.) *)
  z_cur : float array;  (* scan cursor at segment boundaries *)
  z_smp : float array;  (* scan sub-step walker *)
}

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
  (* The static (quasi-steady) tier of the screening evaluators: the
     response engine the reduction was built from. *)
  rom_scratch : rom_scratch Util.Per_domain.t;
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
    rom_scratch =
      Util.Per_domain.make (fun () ->
          {
            zd = Array.make k 0.;
            z_eq = Array.make k 0.;
            z_last = Array.make k 0.;
            th = Array.make nc 0.;
            z_cur = Array.make k 0.;
            z_smp = Array.make k 0.;
          });
  }

let n_modes r = Vec.dim r.mu
let n_cores r = Sparse_response.n_cores r.response

(* ------------------------------------------------- ROM screening *)

(* The screening tier: score a candidate's end-of-period stable peak on
   the retained modes plus the quasi-static correction, in O(n_cores^2
   + k n_cores) per candidate with zero Krylov work.  Mirrors
   [Modal.stable]: per-mode drives fold through per-domain scratch and
   the fixed point is the per-mode closed form z*_j = d_j / (1 -
   e^{-mu_j T_p}).  The score is approximate (truncated fast modes are
   treated quasi-statically); screened searches must re-verify survivors
   with an exact sparse solve — see Core.Screen. *)

let check_rom_psi r psi =
  if Vec.dim psi <> n_cores r then
    invalid_arg "Reduced: power vector arity differs from the engine's core count"

(* Retained equilibrium coordinates into [dst]: z_inf_j = (w_j . b) /
   mu_j, with the projection read off the core-row table (b vanishes
   away from core nodes). *)
let rom_z_inf_into r dst psi =
  for j = 0 to n_modes r - 1 do
    let row = r.cw.(j) in
    let acc = ref 0. in
    for i = 0 to Array.length row - 1 do
      acc := !acc +. ((psi.(i) +. r.beta_tamb) *. Array.unsafe_get row i)
    done;
    dst.(j) <- !acc /. r.mu.(j)
  done

(* Fold one period's spans into [s.zd], the per-mode drive from zero.
   The static tier remembers the last-fed segment: at the period
   boundary the truncated fast modes sit at the equilibrium of the input
   that drove them there. *)
let fold_drive r (s : rom_scratch) spans =
  let k = n_modes r in
  Array.fill s.zd 0 k 0.;
  spans (fun ~duration ~psi ->
      if not (duration > 0.) then invalid_arg "Reduced: non-positive duration";
      check_rom_psi r psi;
      rom_z_inf_into r s.z_eq psi;
      for j = 0 to k - 1 do
        let g = -.Float.expm1 (-.r.mu.(j) *. duration) in
        s.zd.(j) <- ((1. -. g) *. s.zd.(j)) +. (g *. s.z_eq.(j))
      done;
      Sparse_response.steady_core_into r.response s.th psi;
      Array.blit s.z_eq 0 s.z_last 0 k)

let rom_stable r ~t_p spans =
  if not (t_p > 0.) then invalid_arg "Reduced.rom_stable: non-positive period";
  let s = Util.Per_domain.get r.rom_scratch in
  fold_drive r s spans;
  let k = n_modes r in
  (* z*_j in place of the drive (it is consumed here), then read the
     superposed peak: static part + retained-mode deviation. *)
  for j = 0 to k - 1 do
    s.zd.(j) <- s.zd.(j) /. -.Float.expm1 (-.r.mu.(j) *. t_p)
  done;
  let nc = n_cores r in
  let best = ref neg_infinity in
  for c = 0 to nc - 1 do
    let acc = ref s.th.(c) in
    for j = 0 to k - 1 do
      acc := !acc +. (Array.unsafe_get r.cw.(j) c *. (s.zd.(j) -. s.z_last.(j)))
    done;
    if !acc > !best then best := !acc
  done;
  !best +. r.ambient

let rom_stable_peak r profile =
  (match profile with [] -> invalid_arg "Reduced.rom_stable_peak: empty profile" | _ -> ());
  rom_stable r ~t_p:(Matex.period profile) (Matex.spans profile)

let rom_peak_scan r ?(samples_per_segment = 32) profile =
  (match profile with [] -> invalid_arg "Reduced.rom_peak_scan: empty profile" | _ -> ());
  if samples_per_segment < 1 then
    invalid_arg "Reduced.rom_peak_scan: non-positive sample count";
  let k = n_modes r in
  let s = Util.Per_domain.get r.rom_scratch in
  fold_drive r s (Matex.spans profile);
  let t_p = Matex.period profile in
  (* Stable retained state at the period start (periodicity makes it
     also the end, so the boundary state is covered by the last
     segment's final sample). *)
  for j = 0 to k - 1 do
    s.z_cur.(j) <- s.zd.(j) /. -.Float.expm1 (-.r.mu.(j) *. t_p)
  done;
  let nc = n_cores r in
  let best = ref neg_infinity in
  List.iter
    (fun (seg : Matex.segment) ->
      rom_z_inf_into r s.z_eq seg.psi;
      Sparse_response.steady_core_into r.response s.th seg.psi;
      let dt = seg.duration /. float_of_int samples_per_segment in
      Array.blit s.z_cur 0 s.z_smp 0 k;
      for _ = 1 to samples_per_segment do
        for j = 0 to k - 1 do
          let g = -.Float.expm1 (-.r.mu.(j) *. dt) in
          s.z_smp.(j) <- ((1. -. g) *. s.z_smp.(j)) +. (g *. s.z_eq.(j))
        done;
        for c = 0 to nc - 1 do
          let acc = ref s.th.(c) in
          for j = 0 to k - 1 do
            acc :=
              !acc +. (Array.unsafe_get r.cw.(j) c *. (s.z_smp.(j) -. s.z_eq.(j)))
          done;
          if !acc > !best then best := !acc
        done
      done;
      (* Exact full-duration boundary step from the segment start. *)
      for j = 0 to k - 1 do
        let g = -.Float.expm1 (-.r.mu.(j) *. seg.duration) in
        s.z_cur.(j) <- ((1. -. g) *. s.z_cur.(j)) +. (g *. s.z_eq.(j))
      done)
    profile;
  !best +. r.ambient
