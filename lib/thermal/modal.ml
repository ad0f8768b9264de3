module Mat = Linalg.Mat
module Vec = Linalg.Vec

type stats = {
  builds : int;
  superpose_evals : int;
  exp_hits : int;
  exp_misses : int;
  base_solves : int;
  delta_evals : int;
}

(* The decay/gain memo: one direct-mapped table per domain, shared by
   every engine evaluated there.  Slot [s] holds a duration's bit
   pattern, the eigenvalue vector its row was computed from and the row
   itself: n decays e^{lambda_j dt} then n gains -expm1(lambda_j dt).
   The vector is compared by physical identity, and engines over one
   model share [Model.modal_parts]'s vector, so they share warm rows
   while engines over different models never read each other's.
   Lock-free by construction (nothing is shared across domains), and a
   miss is just [n] exp/expm1 pairs computed in place.  Collisions
   simply overwrite: recomputation is deterministic, so any replacement
   policy returns bit-identical values. *)
type memo = {
  keys : int64 array;  (* slot -> duration bits *)
  lams : Vec.t array;  (* slot -> eigenvalues of the row; [||] = empty *)
  rows : float array array;  (* slot -> n decays then n gains (>= 2n long) *)
}

let decay_slots = 1024 (* power of two; see [decay_slot] *)

let memo_key =
  Domain.DLS.new_key (fun () ->
      {
        keys = Array.make decay_slots 0L;
        lams = Array.make decay_slots [||];
        rows = Array.make decay_slots [||];
      })

(* Per-domain scratch, sized to the engine and owned by it
   ({!Util.Per_domain}): pool workers each see their own set, so the
   stable-status evaluation below is allocation-free without any
   locking, two domains can never observe each other's partial sums,
   and the scratch dies with its engine.  Each question (a stable
   status, a walked segment, a prepared base, a delta) borrows it once
   at entry. *)
type scratch = {
  memo : memo;  (* this domain's decay/gain memo *)
  d : float array;  (* accumulated periodic drive over one period *)
  z_eq : float array;  (* superposed per-segment modal equilibrium *)
  z_star : float array;  (* solved stable status *)
  mutable tally_hits : int;  (* decay-table counters, flushed to the *)
  mutable tally_misses : int;  (* engine's atomics once per solve *)
  (* ---- prepared-base delta state ([prepare_base] and the delta
     evaluators): the per-core two-mode drive parameters of the prepared
     base config, its stable status, and candidate scratch.
     Deliberately separate from the stable-status arrays above, so exact
     [stable] evaluations interleaved between delta candidates (the TPT
     loops' winner verification) never clobber the prepared base. *)
  base_cl : float array;  (* nc: psi_low + beta T_amb *)
  base_ch : float array;  (* nc: psi_high + beta T_amb *)
  base_mode : int array;  (* nc: -1 all-low, +1 all-high, 0 interior *)
  base_ll : float array;  (* nc: leading low duration (interior cores) *)
  z_base : float array;  (* n: the base config's stable status *)
  z_tmp : float array;  (* n: per-core drive scratch *)
  z_cand : float array;  (* n: delta candidate stable status *)
  mutable base_t_p : float;  (* the prepared base's period *)
  mutable base_ready : bool;  (* a base is prepared on this domain *)
}

type t = {
  model : Model.t;
  n : int;
  lambda : Vec.t; (* shared with the model, read-only *)
  w : Mat.t;
  w_inv : Mat.t;
  core_rows : Mat.t; (* n_cores x n: the core rows of W *)
  ambient : float;
  (* ------------------------- linear-response superposition tables ---- *)
  beta_tamb : float; (* leak_beta * T_amb, the per-core ambient drive *)
  unit_rz : float array array;
  (* row i: the modal unit response z_inf(e_i) under 1 W on core i,
     solved once with the LU path at build time. *)
  steady_rows : float array array;
  (* row k: theta_inf responses read at core k, indexed by driving core
     i — the constant-voltage steady peak needs only these entries. *)
  scratch : scratch Util.Per_domain.t;
  superpose_evals : int Atomic.t;
  exp_hits : int Atomic.t;
  exp_misses : int Atomic.t;
  base_solves : int Atomic.t;
  delta_evals : int Atomic.t;
}

let build_count = Atomic.make 0

let make model =
  let lambda, w, w_inv = Model.modal_parts model in
  let n = Vec.dim lambda in
  let cores = Model.core_nodes model in
  let n_cores = Array.length cores in
  let core_rows = Mat.init n_cores n (fun k j -> Mat.get w cores.(k) j) in
  (* Unit responses via the reference LU path: theta_inf is affine in
     psi (the leakage drive beta*T_amb enters every core node), so
     subtracting the zero-power response isolates the pure per-core
     linear part u_i = G'^{-1} e_{core_i}. *)
  let u0 = Model.theta_inf model (Vec.zeros n_cores) in
  let units =
    Array.init n_cores (fun i ->
        let e = Vec.zeros n_cores in
        e.(i) <- 1.;
        Vec.sub (Model.theta_inf model e) u0)
  in
  Atomic.incr build_count;
  {
    model;
    n;
    lambda;
    w;
    w_inv;
    core_rows;
    ambient = Model.ambient model;
    beta_tamb = Model.leak_beta model *. Model.ambient model;
    unit_rz = Array.map (fun u -> Mat.matvec w_inv u) units;
    steady_rows =
      Array.init n_cores (fun k ->
          Array.init n_cores (fun i -> units.(i).(cores.(k))));
    scratch =
      Util.Per_domain.make (fun () ->
          {
            memo = Domain.DLS.get memo_key;
            d = Array.make n 0.;
            z_eq = Array.make n 0.;
            z_star = Array.make n 0.;
            tally_hits = 0;
            tally_misses = 0;
            base_cl = Array.make n_cores 0.;
            base_ch = Array.make n_cores 0.;
            base_mode = Array.make n_cores 0;
            base_ll = Array.make n_cores 0.;
            z_base = Array.make n 0.;
            z_tmp = Array.make n 0.;
            z_cand = Array.make n 0.;
            base_t_p = 0.;
            base_ready = false;
          });
    superpose_evals = Atomic.make 0;
    exp_hits = Atomic.make 0;
    exp_misses = Atomic.make 0;
    base_solves = Atomic.make 0;
    delta_evals = Atomic.make 0;
  }

let model t = t.model
let eigenvalues t = Vec.copy t.lambda
let to_modal t theta = Mat.matvec t.w_inv theta
let of_modal t z = Mat.matvec t.w z
let ambient_state t = Vec.zeros t.n

let stats t =
  {
    builds = Atomic.get build_count;
    superpose_evals = Atomic.get t.superpose_evals;
    exp_hits = Atomic.get t.exp_hits;
    exp_misses = Atomic.get t.exp_misses;
    base_solves = Atomic.get t.base_solves;
    delta_evals = Atomic.get t.delta_evals;
  }

(* ------------------------------------------------ superposed responses *)

let check_psi t psi =
  if Vec.dim psi <> Array.length t.unit_rz then
    invalid_arg "Modal: power vector arity differs from the engine's core count"

(* z_inf(psi) = sum_i (psi_i + beta T_amb) z_inf(e_i): exact because the
   thermal model is linear and theta_inf is affine in psi with the
   leakage drive beta*T_amb entering every core identically. *)
let z_inf_into t dst psi =
  check_psi t psi;
  if Vec.dim dst <> t.n then invalid_arg "Modal.z_inf_into: bad state arity";
  Atomic.incr t.superpose_evals;
  Array.fill dst 0 t.n 0.;
  for i = 0 to Array.length t.unit_rz - 1 do
    let row = t.unit_rz.(i) in
    let c = psi.(i) +. t.beta_tamb in
    for j = 0 to t.n - 1 do
      Array.unsafe_set dst j
        (Array.unsafe_get dst j +. (c *. Array.unsafe_get row j))
    done
  done

let z_inf t psi =
  let dst = Array.make t.n 0. in
  z_inf_into t dst psi;
  dst

(* The constant-voltage steady peak by the same superposition, read
   directly off the core-row response table: O(n_cores^2), no LU, no
   allocation. *)
let steady_peak t psi =
  check_psi t psi;
  Atomic.incr t.superpose_evals;
  let nc = Array.length t.steady_rows in
  let best = ref neg_infinity in
  for k = 0 to nc - 1 do
    let row = t.steady_rows.(k) in
    let acc = ref 0. in
    for i = 0 to nc - 1 do
      acc := !acc +. ((psi.(i) +. t.beta_tamb) *. Array.unsafe_get row i)
    done;
    if !acc > !best then best := !acc
  done;
  !best +. t.ambient

(* --------------------------------------------------- decay/gain table *)

(* Fibonacci-style multiplicative hash of a duration's bit pattern into
   a direct-mapped slot.  The low mantissa bits of nearby durations are
   the ones that differ, so the multiply spreads them across the high
   bits we keep. *)
let[@inline] decay_slot key =
  Int64.to_int (Int64.shift_right_logical (Int64.mul key 0x9E3779B97F4A7C15L) 52)
  land (decay_slots - 1)

(* The row of [dt] in this domain's memo, computed into its slot on a
   miss.  The row is only valid until the next fetch: a later duration
   may map to the same slot and overwrite it in place.  The counters
   tally into the scratch (flushed by [stable], [step_into] and the
   base/delta calls) so the hot loops perform no atomic traffic. *)
let[@inline] decay_row t (s : scratch) dt =
  let m = s.memo in
  let key = Int64.bits_of_float dt in
  let slot = decay_slot key in
  let row = Array.unsafe_get m.rows slot in
  if Int64.equal (Array.unsafe_get m.keys slot) key && Array.unsafe_get m.lams slot == t.lambda
  then begin
    s.tally_hits <- s.tally_hits + 1;
    row
  end
  else begin
    s.tally_misses <- s.tally_misses + 1;
    (* Rows only grow, so a domain's table stops allocating once it has
       seen its largest model. *)
    let row = if Array.length row >= 2 * t.n then row else Array.make (2 * t.n) 0. in
    for j = 0 to t.n - 1 do
      let x = Array.unsafe_get t.lambda j *. dt in
      Array.unsafe_set row j (exp x);
      Array.unsafe_set row (t.n + j) (-.Float.expm1 x)
    done;
    m.keys.(slot) <- key;
    m.lams.(slot) <- t.lambda;
    m.rows.(slot) <- row;
    row
  end

(* Publish this domain's decay-table tallies to the engine's atomics. *)
let flush_tallies t (s : scratch) =
  if s.tally_hits <> 0 then begin
    ignore (Atomic.fetch_and_add t.exp_hits s.tally_hits);
    s.tally_hits <- 0
  end;
  if s.tally_misses <> 0 then begin
    ignore (Atomic.fetch_and_add t.exp_misses s.tally_misses);
    s.tally_misses <- 0
  end

(* Written as a positive range test, so a NaN or infinite [dt] is
   rejected instead of stepping to a state that reads as -inf. *)
let check_dt what dt =
  if not (Float.is_finite dt && dt >= 0.) then
    invalid_arg (what ^ ": duration must be finite and non-negative")

let step t ~dt ~z ~psi =
  check_dt "Modal.step" dt;
  if Vec.dim z <> t.n then invalid_arg "Modal.step: bad state arity";
  let zi = z_inf t psi in
  Array.init t.n (fun j -> zi.(j) +. (exp (t.lambda.(j) *. dt) *. (z.(j) -. zi.(j))))

(* Allocation-free [step]: equilibrium superposed straight into [dst],
   decay factors amortized through the per-domain duration table (epoch
   loops step at one fixed dt, so after the first call every factor is a
   table read).  The tallies flush per call. *)
let step_into t ~dt ~z ~psi ~dst =
  check_dt "Modal.step_into" dt;
  if Vec.dim z <> t.n || Vec.dim dst <> t.n then
    invalid_arg "Modal.step_into: bad state arity";
  if z == dst then invalid_arg "Modal.step_into: dst must not alias z";
  let s = Util.Per_domain.get t.scratch in
  let row = decay_row t s dt in
  z_inf_into t dst psi;
  for j = 0 to t.n - 1 do
    let zi = Array.unsafe_get dst j in
    Array.unsafe_set dst j
      (zi
      +. (Array.unsafe_get row j *. (Array.unsafe_get z j -. zi)))
  done;
  flush_tallies t s

let core_temps t z =
  if Vec.dim z <> t.n then invalid_arg "Modal.core_temps: bad state arity";
  let temps = Mat.matvec t.core_rows z in
  Array.map (fun x -> x +. t.ambient) temps

let[@inline] max_core_temp t z =
  let { Mat.rows; cols; data } = t.core_rows in
  let best = ref neg_infinity in
  for k = 0 to rows - 1 do
    let off = k * cols in
    let acc = ref 0. in
    for j = 0 to cols - 1 do
      acc := !acc +. (Array.unsafe_get data (off + j) *. Array.unsafe_get z j)
    done;
    if !acc > !best then best := !acc
  done;
  !best +. t.ambient

(* ------------------------------------------------ stable status *)

(* The candidate-evaluation hot path: fold a periodic profile's segments
   through the per-domain scratch, then solve the per-mode fixed point.
   One period from the zero state leaves the drive d (d <- D_dt d +
   g_dt z_eq per segment); K = prod e^{lambda dt_q} is diagonal in modal
   space, so the (I - K)^{-1} solve of Eq. (4) collapses to a per-mode
   division, whose expm1 denominator keeps slow modes (lambda t_p ~ 0)
   at full precision.  Zero LU solves and table-amortized exponentials;
   the only allocation is the feed closure handed to [spans]. *)
let stable t ~t_p spans =
  if not (t_p > 0.) then invalid_arg "Modal.stable: non-positive period";
  let s = Util.Per_domain.get t.scratch in
  let n = t.n in
  Array.fill s.d 0 n 0.;
  spans (fun ~duration ~psi ->
      if not (duration > 0.) then invalid_arg "Modal.stable: non-positive duration";
      (* Fetched and consumed before [spans] runs anything else: the
         caller's iterator may evaluate other engines in between. *)
      let row = decay_row t s duration in
      z_inf_into t s.z_eq psi;
      for j = 0 to n - 1 do
        Array.unsafe_set s.d j
          ((Array.unsafe_get row j *. Array.unsafe_get s.d j)
          +. (Array.unsafe_get row (n + j) *. Array.unsafe_get s.z_eq j))
      done);
  (* z*_j = d_j / (1 - e^{lambda_j t_p}); the denominator is exactly the
     gain factor of a [t_p]-long segment, so it shares the table. *)
  let row = decay_row t s t_p in
  for j = 0 to n - 1 do
    Array.unsafe_set s.z_star j
      (Array.unsafe_get s.d j /. Array.unsafe_get row (n + j))
  done;
  (* One flush per candidate keeps the shared stats observable without
     per-span atomic traffic from every pool worker. *)
  flush_tallies t s;
  (s.z_star
  [@fosc.dls_ok
    "documented borrow of this domain's scratch (see modal.mli): valid until \
     the next stable status on the same domain, never shared across \
     domains"])

(* ------------------------------------------------ walked segments *)

(* The sub-step of every walk: z <- D_dt z + g_dt eq, element-wise, so
   the walker steps in place. *)
let[@inline] advance_row n row ~eq walker =
  for j = 0 to n - 1 do
    Array.unsafe_set walker j
      ((Array.unsafe_get row j *. Array.unsafe_get walker j)
      +. (Array.unsafe_get row (n + j) *. Array.unsafe_get eq j))
  done

let check_walk what t ~dt ~samples ~eq ~walker =
  if samples < 1 then invalid_arg (what ^ ": non-positive sample count");
  check_dt what dt;
  if Vec.dim eq <> t.n || Vec.dim walker <> t.n then
    invalid_arg (what ^ ": bad state arity")

(* One scratch borrow and one table lookup per segment: the row serves
   every sub-step, and the hottest core is read after each one.  The
   tallies are left for the next [stable]/[step_into] to flush. *)
let sample_segment t ~dt ~samples ~eq ~walker =
  check_walk "Modal.sample_segment" t ~dt ~samples ~eq ~walker;
  let row = decay_row t (Util.Per_domain.get t.scratch) dt in
  let best = ref neg_infinity and best_k = ref 0 in
  for k = 1 to samples do
    advance_row t.n row ~eq walker;
    let temp = max_core_temp t walker in
    if temp > !best then begin
      best := temp;
      best_k := k
    end
  done;
  (!best_k, !best)

(* The visiting walk hands [visit] control between sub-steps, and
   [visit] may evaluate on this domain's table, so the row is copied
   out of the table first. *)
let walk t ~dt ~samples ~eq ~walker visit =
  check_walk "Modal.walk" t ~dt ~samples ~eq ~walker;
  let row = Array.sub (decay_row t (Util.Per_domain.get t.scratch) dt) 0 (2 * t.n) in
  for k = 1 to samples do
    advance_row t.n row ~eq walker;
    visit k walker
  done

(* ------------------------------------------- prepared-base deltas *)

(* Delta candidate evaluation (DESIGN.md §14).  Per-core two-mode drive
   over one period, from zero state:

     interior:  w_i = cl . D_{T-ll} . g_ll + ch . g_{T-ll}
     all-low:   w_i = cl . g_T          all-high: w_i = ch . g_T

   with D_dt = e^{lambda dt}, g_dt = -expm1(lambda dt), cl/ch = psi +
   beta T_amb and ll the leading low duration.  The accumulated drive
   of a whole config is d = sum_i u_i . w_i (u_i the modal unit
   responses), so z_base = d / g_T — and a candidate that changes only
   core j's terms is z_base + u_j . (w_j' - w_j) / g_T: O(n) per
   candidate instead of a full O(n . n_cores) re-superposition.  When
   only the duty cycle moves (the TPT loops never change voltages), the
   difference is evaluated cancellation-free:

     w' - w = (cl - ch) (D_{T-ll'} - D_{T-ll})
            = +-(cl - ch) . D_{T-max(ll,ll')} . g_{|ll - ll'|}

   The prepared base lives in per-domain scratch arrays DISJOINT from
   the stable-status state, so the exact winner verification the TPT
   loops interleave between candidates cannot clobber it. *)

(* Replicates [Sched.Peak.two_mode_decompose]'s ratio validation and
   boundary snapping (which itself replicates [Schedule.two_mode]), so
   the prepared-base path agrees with the exact decomposed path on
   which spans exist.  Written as a positive range test so a NaN ratio
   is rejected, as the exact path rejects it. *)
let two_mode_core_shape ~t_p ~high_ratio =
  if not (-1e-12 <= high_ratio && high_ratio <= 1. +. 1e-12) then
    invalid_arg
      (Printf.sprintf "two-mode delta: high_ratio %.6g not in [0,1]" high_ratio);
  let lh = Float.max 0. (Float.min t_p (high_ratio *. t_p)) in
  let ll = t_p -. lh in
  if lh <= 1e-12 then (-1, t_p)
  else if ll <= 1e-12 then (1, 0.)
  else (0, ll)

(* One core's periodic drive into [dst].  Rows are fetched one at a
   time and fully consumed before the next fetch: the direct-mapped
   table may map two of the durations needed here to the same slot. *)
let w_into t (s : scratch) dst ~cl ~ch ~mode ~ll =
  let t_p = s.base_t_p in
  let n = t.n in
  if mode <> 0 then begin
    let c = if mode < 0 then cl else ch in
    let b = decay_row t s t_p in
    for j = 0 to n - 1 do
      Array.unsafe_set dst j (c *. Array.unsafe_get b (n + j))
    done
  end
  else begin
    let b_low = decay_row t s ll in
    for j = 0 to n - 1 do
      Array.unsafe_set dst j (cl *. Array.unsafe_get b_low (n + j))
    done;
    let b_high = decay_row t s (t_p -. ll) in
    for j = 0 to n - 1 do
      Array.unsafe_set dst j
        ((Array.unsafe_get b_high j *. Array.unsafe_get dst j)
        +. (ch *. Array.unsafe_get b_high (n + j)))
    done
  end

let prepare_base t ~t_p ~psi_low ~psi_high ~high_ratio =
  if not (Float.is_finite t_p && t_p > 0.) then
    invalid_arg "Modal.prepare_base: period must be finite and positive";
  let nc = Array.length t.unit_rz in
  if Vec.dim psi_low <> nc || Vec.dim psi_high <> nc || Array.length high_ratio <> nc
  then invalid_arg "Modal.prepare_base: arity differs from the engine's core count";
  let s = Util.Per_domain.get t.scratch in
  s.base_ready <- false;
  s.base_t_p <- t_p;
  for i = 0 to nc - 1 do
    let mode, ll = two_mode_core_shape ~t_p ~high_ratio:high_ratio.(i) in
    s.base_cl.(i) <- psi_low.(i) +. t.beta_tamb;
    s.base_ch.(i) <- psi_high.(i) +. t.beta_tamb;
    s.base_mode.(i) <- mode;
    s.base_ll.(i) <- ll
  done;
  Array.fill s.z_base 0 t.n 0.;
  for i = 0 to nc - 1 do
    w_into t s s.z_tmp ~cl:s.base_cl.(i) ~ch:s.base_ch.(i)
      ~mode:s.base_mode.(i) ~ll:s.base_ll.(i);
    let u = t.unit_rz.(i) in
    for j = 0 to t.n - 1 do
      Array.unsafe_set s.z_base j
        (Array.unsafe_get s.z_base j
        +. (Array.unsafe_get u j *. Array.unsafe_get s.z_tmp j))
    done
  done;
  let b = decay_row t s t_p in
  for j = 0 to t.n - 1 do
    Array.unsafe_set s.z_base j
      (Array.unsafe_get s.z_base j /. Array.unsafe_get b (t.n + j))
  done;
  s.base_ready <- true;
  Atomic.incr t.base_solves;
  flush_tallies t s

let delta_into t (s : scratch) ~core ~psi_low ~psi_high ~high_ratio =
  if not s.base_ready then
    invalid_arg "Modal.delta: no solved base on this domain";
  if core < 0 || core >= Array.length s.base_mode then
    invalid_arg "Modal.delta: core index out of range";
  let t_p = s.base_t_p in
  let n = t.n in
  let mode', ll' = two_mode_core_shape ~t_p ~high_ratio in
  let cl' = psi_low +. t.beta_tamb and ch' = psi_high +. t.beta_tamb in
  let cl = s.base_cl.(core) and ch = s.base_ch.(core) in
  (* Effective leading-low duration: snapped modes are exactly t_p / 0,
     so the same-voltage difference below needs no mode cases. *)
  let le mode ll = if mode < 0 then t_p else if mode > 0 then 0. else ll in
  let l0 = le s.base_mode.(core) s.base_ll.(core) in
  let l1 = le mode' ll' in
  if Float.equal cl' cl && Float.equal ch' ch then begin
    if Float.equal l1 l0 then Array.blit s.z_base 0 s.z_cand 0 n
    else begin
      let big = Float.max l0 l1 and small = Float.min l0 l1 in
      let c = if l1 > l0 then cl -. ch else ch -. cl in
      let b_gap = decay_row t s (big -. small) in
      for j = 0 to n - 1 do
        Array.unsafe_set s.z_tmp j
          (c *. Array.unsafe_get b_gap (n + j))
      done;
      (* D_{t_p - big} = 1 exactly when big = t_p (snapped all-low side),
         so the fetch is skipped. *)
      if t_p -. big > 0. then begin
        let b_dec = decay_row t s (t_p -. big) in
        for j = 0 to n - 1 do
          Array.unsafe_set s.z_tmp j
            (Array.unsafe_get s.z_tmp j *. Array.unsafe_get b_dec j)
        done
      end;
      let u = t.unit_rz.(core) in
      let b_t = decay_row t s t_p in
      for j = 0 to n - 1 do
        Array.unsafe_set s.z_cand j
          (Array.unsafe_get s.z_base j
          +. Array.unsafe_get u j *. Array.unsafe_get s.z_tmp j
             /. Array.unsafe_get b_t (n + j))
      done
    end
  end
  else begin
    (* Voltage change too (not exercised by the TPT loops, which only
       move duty cycles): subtract the old drive, add the new. *)
    w_into t s s.z_tmp ~cl:cl' ~ch:ch' ~mode:mode' ~ll:ll';
    w_into t s s.z_eq ~cl ~ch ~mode:s.base_mode.(core) ~ll:s.base_ll.(core);
    let u = t.unit_rz.(core) in
    let b_t = decay_row t s t_p in
    for j = 0 to n - 1 do
      Array.unsafe_set s.z_cand j
        (Array.unsafe_get s.z_base j
        +. Array.unsafe_get u j
           *. (Array.unsafe_get s.z_tmp j -. Array.unsafe_get s.z_eq j)
           /. Array.unsafe_get b_t (n + j))
    done
  end;
  Atomic.incr t.delta_evals;
  flush_tallies t s

let delta_peak t ~core ~psi_low ~psi_high ~high_ratio =
  let s = Util.Per_domain.get t.scratch in
  delta_into t s ~core ~psi_low ~psi_high ~high_ratio;
  max_core_temp t s.z_cand

let delta_core_temp t ~at ~core ~psi_low ~psi_high ~high_ratio =
  let { Mat.rows; cols; data } = t.core_rows in
  if at < 0 || at >= rows then
    invalid_arg "Modal.delta_core_temp: core index out of range";
  let s = Util.Per_domain.get t.scratch in
  delta_into t s ~core ~psi_low ~psi_high ~high_ratio;
  let off = at * cols in
  let acc = ref 0. in
  for j = 0 to cols - 1 do
    acc := !acc +. (Array.unsafe_get data (off + j) *. Array.unsafe_get s.z_cand j)
  done;
  !acc +. t.ambient
