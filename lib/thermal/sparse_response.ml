module Vec = Linalg.Vec
module Sparse = Linalg.Sparse
module Krylov = Linalg.Krylov

type stats = {
  builds : int;
  superpose_evals : int;
  stable_solves : int;
  base_solves : int;
  delta_evals : int;
}

(* Per-domain scratch, sized to the engine and owned by it
   ({!Util.Per_domain}) and borrowed once per question: the stable
   status below superposes segment equilibria and accumulates the
   periodic drive without allocating, two pool workers can never observe
   each other's partial sums, and the scratch dies with its engine.
   (The [e^{-dt M}] applications themselves grow Lanczos bases — that
   allocation is inherent to the matrix-free exponential, not to the
   feed.) *)
type scratch = {
  d : float array;  (* accumulated periodic drive over one period *)
  y_eq : float array;  (* superposed equilibrium of the current segment *)
  (* ---- prepared-base delta state ([prepare_base] and the delta
     evaluators).  Disjoint from the stable-status arrays above, so
     exact [stable] evaluations interleaved between delta candidates
     never clobber the prepared base.  [bases] holds one
     lazily grown Lanczos factorization per core unit response — the
     basis is f-independent, so one preparation serves every duty-cycle
     weight evaluated against it.  Krylov.prepared is mutable and NOT
     domain-safe, which is exactly why it lives in per-domain scratch. *)
  base_cl : float array;  (* nc: psi_low + beta T_amb *)
  base_ch : float array;  (* nc: psi_high + beta T_amb *)
  base_mode : int array;  (* nc: -1 all-low, +1 all-high, 0 interior *)
  base_ll : float array;  (* nc: leading low duration (interior cores) *)
  y_base : float array;  (* n: the base config's stable status *)
  w_nodes : float array;  (* nc: candidate delta read at the core nodes *)
  bases : Krylov.prepared option array;  (* nc, grown on demand *)
  mutable base_t_p : float;  (* the prepared base's period *)
  mutable base_ready : bool;  (* a base is prepared on this domain *)
}

type t = {
  spec : Spec.t;
  n : int;
  nc : int;
  ambient : float;
  beta_tamb : float;  (* leak_beta * T_amb, the per-core ambient drive *)
  m_sym : Sparse.t;  (* M = C^{-1/2} G' C^{-1/2}, SPD, shared read-only *)
  units : Vec.t array;
  (* row i: the unit steady response y_inf(e_i) under 1 W on core i,
     solved once by pool-parallel CG at build time (symmetrized
     coordinates). *)
  steady_rows : float array array;
  (* row k: ambient-relative steady core-k temperature responses,
     indexed by driving core i — the constant-voltage steady peak needs
     only these entries. *)
  apply : Vec.t -> Vec.t;  (* the SPD operator M, shared read-only *)
  core_nodes : int array;  (* node index of each core, shared read-only *)
  c_sqrt_cores : float array;  (* c^{1/2} at each core's node *)
  c_sqrt_inv_cores : float array;  (* c^{-1/2} at each core's node *)
  scratch : scratch Util.Per_domain.t;
  superpose_evals : int Atomic.t;
  stable_solves : int Atomic.t;
  base_solves : int Atomic.t;
  delta_evals : int Atomic.t;
}

let build_count = Atomic.make 0

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
  let nc = Spec.n_cores spec in
  let core_nodes = spec.Spec.core_nodes in
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
  let diag = Sparse.diagonal m_sym in
  let apply = Sparse.spmv m_sym in
  let beta_tamb = spec.Spec.leak_beta *. spec.Spec.ambient in
  (* The heat input is affine in psi (the leakage drive beta*T_amb
     enters every core node), so subtracting the zero-power response
     isolates the pure per-core linear part u_i = M^{-1} C^{-1/2}
     e_{core_i}.  All n_cores + 1 Jacobi-preconditioned CG solves of
     the symmetrized drive b = C^{-1/2} h(psi) run across the pool in
     one deterministic batch. *)
  let steady_state psi =
    let b = Vec.zeros n in
    Array.iteri (fun k i -> b.(i) <- (psi.(k) +. beta_tamb) *. c_sqrt_inv.(i)) core_nodes;
    Krylov.cg ~tol:cg_tol ~precond:(Krylov.jacobi diag) apply b
  in
  let unit_psis =
    List.init (nc + 1) (fun i ->
        let e = Vec.zeros nc in
        if i > 0 then e.(i - 1) <- 1.;
        e)
  in
  let u0, responses =
    match Util.Pool.map ?pool steady_state unit_psis with
    | u0 :: rest -> (u0, Array.of_list rest)
    | [] -> assert false
  in
  let units = Array.map (fun u -> Vec.sub u u0) responses in
  let c_sqrt_inv_cores = Array.map (fun i -> c_sqrt_inv.(i)) core_nodes in
  Atomic.incr build_count;
  {
    spec;
    n;
    nc;
    ambient = spec.Spec.ambient;
    beta_tamb;
    m_sym;
    units;
    (* Core reads happen in node space: theta(core k) = c^{-1/2}_k y_k. *)
    steady_rows =
      Array.mapi
        (fun k node ->
          let ci = c_sqrt_inv_cores.(k) in
          Array.init nc (fun i -> ci *. units.(i).(node)))
        core_nodes;
    apply;
    core_nodes;
    c_sqrt_cores = Array.map (fun i -> c_sqrt.(i)) core_nodes;
    c_sqrt_inv_cores;
    scratch =
      Util.Per_domain.make (fun () ->
          {
            d = Array.make n 0.;
            y_eq = Array.make n 0.;
            base_cl = Array.make nc 0.;
            base_ch = Array.make nc 0.;
            base_mode = Array.make nc 0;
            base_ll = Array.make nc 0.;
            y_base = Array.make n 0.;
            w_nodes = Array.make nc 0.;
            bases = Array.make nc None;
            base_t_p = 0.;
            base_ready = false;
          });
    superpose_evals = Atomic.make 0;
    stable_solves = Atomic.make 0;
    base_solves = Atomic.make 0;
    delta_evals = Atomic.make 0;
  }

let spec t = t.spec
let operator t = t.m_sym
let n_cores t = t.nc

let stats t =
  {
    builds = Atomic.get build_count;
    superpose_evals = Atomic.get t.superpose_evals;
    stable_solves = Atomic.get t.stable_solves;
    base_solves = Atomic.get t.base_solves;
    delta_evals = Atomic.get t.delta_evals;
  }

(* ------------------------------------------------ state reads *)

let ambient_state t = Vec.zeros t.n

let core_temps t y =
  Array.init t.nc (fun k ->
      (t.c_sqrt_inv_cores.(k) *. y.(t.core_nodes.(k))) +. t.ambient)

let max_core_temp t y =
  let best = ref neg_infinity in
  for k = 0 to t.nc - 1 do
    best :=
      Float.max !best ((t.c_sqrt_inv_cores.(k) *. y.(t.core_nodes.(k))) +. t.ambient)
  done;
  !best

(* Measured-state correction, in place: core temperatures read
   c^{-1/2}(i) * y_i + T_amb, so adding [deltas.(k)] kelvin to core
   [k]'s reading is y_i += deltas.(k) * c^{1/2}(i) at its node.
   Off-core nodes are untouched — exactly the Luenberger L = gain * H^T
   shape. *)
let correct_cores t ~state ~deltas =
  if Vec.dim state <> t.n then
    invalid_arg "Sparse_response.correct_cores: state arity mismatch";
  if Vec.dim deltas <> t.nc then
    invalid_arg "Sparse_response.correct_cores: deltas arity differs from core count";
  Array.iteri
    (fun k i -> state.(i) <- state.(i) +. (deltas.(k) *. t.c_sqrt_cores.(k)))
    t.core_nodes

(* ------------------------------------------------ superposed responses *)

let check_psi t psi =
  if Vec.dim psi <> t.nc then
    invalid_arg
      "Sparse_response: power vector arity differs from the engine's core count"

(* y_inf(psi) = sum_i (psi_i + beta T_amb) u_i: exact because the
   thermal model is linear and the heat input is affine in psi. *)
let y_inf_into t dst psi =
  check_psi t psi;
  if Vec.dim dst <> t.n then
    invalid_arg "Sparse_response.y_inf_into: state arity mismatch";
  Atomic.incr t.superpose_evals;
  Array.fill dst 0 t.n 0.;
  for i = 0 to t.nc - 1 do
    let row = t.units.(i) in
    let c = psi.(i) +. t.beta_tamb in
    for j = 0 to t.n - 1 do
      Array.unsafe_set dst j
        (Array.unsafe_get dst j +. (c *. Array.unsafe_get row j))
    done
  done

let steady_core_into t dst ~pos psi =
  check_psi t psi;
  if pos < 0 || pos > Vec.dim dst - t.nc then
    invalid_arg "Sparse_response.steady_core_into: destination arity mismatch";
  Atomic.incr t.superpose_evals;
  for k = 0 to t.nc - 1 do
    let row = t.steady_rows.(k) in
    let acc = ref 0. in
    for i = 0 to t.nc - 1 do
      acc := !acc +. ((psi.(i) +. t.beta_tamb) *. Array.unsafe_get row i)
    done;
    dst.(pos + k) <- !acc
  done

(* The constant-voltage steady peak off the core-row table: O(n_cores^2),
   no CG, no allocation. *)
let steady_peak t psi =
  check_psi t psi;
  Atomic.incr t.superpose_evals;
  let best = ref neg_infinity in
  for k = 0 to t.nc - 1 do
    let row = t.steady_rows.(k) in
    let acc = ref 0. in
    for i = 0 to t.nc - 1 do
      acc := !acc +. ((psi.(i) +. t.beta_tamb) *. Array.unsafe_get row i)
    done;
    if !acc > !best then best := !acc
  done;
  !best +. t.ambient

(* ------------------------------------------------ transient steps *)

(* Exact LTI advance by [dt] toward equilibrium [y_inf]:
   y(dt) = y_inf + e^{-dt M} (y - y_inf), one [expmv] and no solve. *)
let advance t ~dt ~y_inf y =
  Vec.add y_inf (Krylov.expmv ~tol:expmv_tol t.apply ~t:dt (Vec.sub y y_inf))

let check_dt what dt =
  if not (Float.is_finite dt && dt >= 0.) then
    invalid_arg (what ^ ": duration must be finite and non-negative")

(* The equilibrium superposes straight into [dst]; [advance] reads it
   and [state] before the result is blitted over [dst], which is why
   [dst] must be a buffer of its own. *)
let step_into t ~dt ~state ~psi ~dst =
  check_dt "Sparse_response.step_into" dt;
  if Vec.dim state <> t.n || Vec.dim dst <> t.n then
    invalid_arg "Sparse_response.step_into: bad state arity";
  if state == dst then invalid_arg "Sparse_response.step_into: dst must not alias state";
  y_inf_into t dst psi;
  let next = advance t ~dt ~y_inf:dst state in
  Array.blit next 0 dst 0 t.n

(* One [expmv] per sub-step: the sparse engine has no decay table to
   look up. *)
let sample_segment t ~dt ~samples ~eq ~walker =
  if samples < 1 then
    invalid_arg "Sparse_response.sample_segment: non-positive sample count";
  check_dt "Sparse_response.sample_segment" dt;
  if Vec.dim eq <> t.n || Vec.dim walker <> t.n then
    invalid_arg "Sparse_response.sample_segment: bad state arity";
  let best = ref neg_infinity and best_k = ref 0 in
  for k = 1 to samples do
    let next = advance t ~dt ~y_inf:eq walker in
    Array.blit next 0 walker 0 t.n;
    let temp = max_core_temp t walker in
    if temp > !best then begin
      best := temp;
      best_k := k
    end
  done;
  (!best_k, !best)

(* ------------------------------------------------ stable status *)

let stable t ~t_p spans =
  if not (t_p > 0.) then invalid_arg "Sparse_response.stable: non-positive period";
  let s = Util.Per_domain.get t.scratch in
  Array.fill s.d 0 t.n 0.;
  spans (fun ~duration ~psi ->
      if not (duration > 0.) then
        invalid_arg "Sparse_response.stable: non-positive duration";
      y_inf_into t s.y_eq psi;
      (* d <- y_eq + e^{-dt M} (d - y_eq): one period of the affine
         map, simulated from the zero state exactly like the dense
         (I - K) reference solve of Eq. (4). *)
      let d' = advance t ~dt:duration ~y_inf:s.y_eq s.d in
      Array.blit d' 0 s.d 0 t.n);
  Atomic.incr t.stable_solves;
  (* Every segment shares M, so one period is the affine map
     y -> e^{-T_p M} y + d and the fixed point y* = (I - e^{-T_p M})^{-1} d
     is a matrix function of M applied to the drive: one Lanczos basis
     on [d], no matrix power, no LU, no O(n^2) storage.  1/-expm1(-x)
     is the numerically stable form of 1/(1 - e^{-x}) for the slow
     modes (T_p lambda << 1).  [d] is a pure function of the candidate
     — no worker-local history — so pool workers racing through
     candidates in any order return identical bits. *)
  Krylov.prepared_apply (Krylov.prepare t.apply s.d)
    ~f:(fun lam -> 1. /. -.Float.expm1 (-.t_p *. lam))

(* ------------------------------------------- prepared-base deltas *)

(* Delta candidate evaluation (DESIGN.md §14), sparse flavour.  The
   periodic drive of a two-mode config factors per core as a spectral
   weight on that core's unit response: for an interior core with
   leading low duration ll and trailing high duration dh = t_p - ll,

     w_i(lam) = -cl . e^{-dh lam} . expm1(-ll lam) - ch . expm1(-dh lam)

   (cl/ch = psi + beta T_amb), and the stable status is

     y* = (I - e^{-t_p M})^{-1} d = sum_i h_i(M) u_i,
     h_i(lam) = w_i(lam) / (1 - e^{-t_p lam}).

   Snapped all-low/all-high cores collapse to the constant h = cl / ch
   — their contribution is c . u_i with no matrix function at all.  A
   prepared Lanczos basis per unit response ({!Krylov.prepare}) makes
   every h_i(M) u_i an O(m) coefficient solve plus an O(m n) combine —
   no basis on the config's own drive — and a candidate changing only
   core j's duty cycle
   needs only the core-node reads of

     dh_j(lam) = +-(cl - ch) e^{-(t_p - max(ll,ll')) lam}
                 . (-expm1(-|ll - ll'| lam)) / (1 - e^{-t_p lam})

   applied to u_j: O(m . n_cores) per candidate, no new basis. *)

(* h_i for an interior core; [lam] ranges over Ritz values of the SPD
   operator, all positive, so the denominator never vanishes. *)
let[@inline] h_interior ~cl ~ch ~ll ~t_p lam =
  let dh = t_p -. ll in
  (-.(cl *. exp (-.dh *. lam) *. Float.expm1 (-.ll *. lam))
  -. (ch *. Float.expm1 (-.dh *. lam)))
  /. -.Float.expm1 (-.t_p *. lam)

let h_of ~cl ~ch ~mode ~ll ~t_p lam =
  if mode < 0 then cl
  else if mode > 0 then ch
  else h_interior ~cl ~ch ~ll ~t_p lam

let get_basis t (s : scratch) i =
  match s.bases.(i) with
  | Some b -> b
  | None ->
      let b = Krylov.prepare t.apply t.units.(i) in
      s.bases.(i) <- Some b;
      b

let prepare_base t ~t_p ~psi_low ~psi_high ~high_ratio =
  if not (Float.is_finite t_p && t_p > 0.) then
    invalid_arg "Sparse_response.prepare_base: period must be finite and positive";
  if Vec.dim psi_low <> t.nc || Vec.dim psi_high <> t.nc
     || Array.length high_ratio <> t.nc
  then
    invalid_arg
      "Sparse_response.prepare_base: arity differs from the engine's core count";
  let s = Util.Per_domain.get t.scratch in
  s.base_ready <- false;
  s.base_t_p <- t_p;
  for i = 0 to t.nc - 1 do
    let mode, ll = Modal.two_mode_core_shape ~t_p ~high_ratio:high_ratio.(i) in
    s.base_cl.(i) <- psi_low.(i) +. t.beta_tamb;
    s.base_ch.(i) <- psi_high.(i) +. t.beta_tamb;
    s.base_mode.(i) <- mode;
    s.base_ll.(i) <- ll
  done;
  Array.fill s.y_base 0 t.n 0.;
  for i = 0 to t.nc - 1 do
    let mode = s.base_mode.(i) in
    if mode <> 0 then begin
      (* Snapped core: h is the constant cl/ch — a plain axpy. *)
      let c = if mode < 0 then s.base_cl.(i) else s.base_ch.(i) in
      let u = t.units.(i) in
      for j = 0 to t.n - 1 do
        Array.unsafe_set s.y_base j
          (Array.unsafe_get s.y_base j +. (c *. Array.unsafe_get u j))
      done
    end
    else begin
      let cl = s.base_cl.(i) and ch = s.base_ch.(i) and ll = s.base_ll.(i) in
      let w =
        Krylov.prepared_apply (get_basis t s i)
          ~f:(fun lam -> h_interior ~cl ~ch ~ll ~t_p lam)
      in
      for j = 0 to t.n - 1 do
        Array.unsafe_set s.y_base j
          (Array.unsafe_get s.y_base j +. Array.unsafe_get w j)
      done
    end
  done;
  s.base_ready <- true;
  Atomic.incr t.base_solves

(* Candidate delta at the core nodes, into [s.w_nodes]. *)
let delta_nodes t (s : scratch) ~core ~psi_low ~psi_high ~high_ratio =
  if not s.base_ready then
    invalid_arg "Sparse_response.delta: no solved base on this domain";
  if core < 0 || core >= t.nc then
    invalid_arg "Sparse_response.delta: core index out of range";
  let t_p = s.base_t_p in
  let mode', ll' = Modal.two_mode_core_shape ~t_p ~high_ratio in
  let cl' = psi_low +. t.beta_tamb and ch' = psi_high +. t.beta_tamb in
  let cl = s.base_cl.(core) and ch = s.base_ch.(core) in
  let le mode ll = if mode < 0 then t_p else if mode > 0 then 0. else ll in
  let l0 = le s.base_mode.(core) s.base_ll.(core) in
  let l1 = le mode' ll' in
  (if Float.equal cl' cl && Float.equal ch' ch then begin
     if Float.equal l1 l0 then Array.fill s.w_nodes 0 t.nc 0.
     else begin
       let big = Float.max l0 l1 and small = Float.min l0 l1 in
       let c = if l1 > l0 then cl -. ch else ch -. cl in
       let tail = t_p -. big and gap = big -. small in
       let f lam =
         c *. exp (-.tail *. lam)
         *. -.Float.expm1 (-.gap *. lam)
         /. -.Float.expm1 (-.t_p *. lam)
       in
       Krylov.prepared_apply_at (get_basis t s core) ~f ~idx:t.core_nodes
         s.w_nodes
     end
   end
   else begin
     (* Voltage change too: the general difference of spectral weights. *)
     let mode = s.base_mode.(core) and ll = s.base_ll.(core) in
     let f lam =
       h_of ~cl:cl' ~ch:ch' ~mode:mode' ~ll:ll' ~t_p lam
       -. h_of ~cl ~ch ~mode ~ll ~t_p lam
     in
     Krylov.prepared_apply_at (get_basis t s core) ~f ~idx:t.core_nodes
       s.w_nodes
   end);
  Atomic.incr t.delta_evals

let delta_peak t ~core ~psi_low ~psi_high ~high_ratio =
  let s = Util.Per_domain.get t.scratch in
  delta_nodes t s ~core ~psi_low ~psi_high ~high_ratio;
  let best = ref neg_infinity in
  for k = 0 to t.nc - 1 do
    let v =
      t.c_sqrt_inv_cores.(k)
      *. (s.y_base.(t.core_nodes.(k)) +. s.w_nodes.(k))
      +. t.ambient
    in
    best := Float.max !best v
  done;
  !best

let delta_core_temp t ~at ~core ~psi_low ~psi_high ~high_ratio =
  if at < 0 || at >= t.nc then
    invalid_arg "Sparse_response.delta_core_temp: core index out of range";
  let s = Util.Per_domain.get t.scratch in
  delta_nodes t s ~core ~psi_low ~psi_high ~high_ratio;
  t.c_sqrt_inv_cores.(at)
  *. (s.y_base.(t.core_nodes.(at)) +. s.w_nodes.(at))
  +. t.ambient
