let jacobi d =
  Array.iteri
    (fun i di ->
      if not (di > 0.) then
        invalid_arg
          (Printf.sprintf "Krylov.jacobi: diagonal entry %d is %g, not positive"
             i di))
    d;
  fun r ->
    if Array.length r <> Array.length d then
      invalid_arg "Krylov.jacobi: operand arity mismatch";
    Array.mapi (fun i ri -> ri /. d.(i)) r

(* ------------------------------------------------------------------ CG *)

let cg ?(tol = 1e-13) ?(max_iter = 0) ?precond ?x0 apply b =
  let n = Array.length b in
  let max_iter = if max_iter > 0 then max_iter else (20 * n) + 100 in
  let precond = match precond with Some f -> f | None -> Vec.copy in
  let b_norm = Vec.norm2 b in
  if Float.equal b_norm 0. then Vec.zeros n
  else begin
    (* Warm start: iterate on the residual system from [x0].  The
       stopping test stays relative to ‖b‖ (not the initial residual), so
       a warm start can only shorten the iteration, never loosen the
       answer — callers passing a candidate-local deterministic guess
       (e.g. the accumulated periodic drive) keep bit-reproducibility
       across pool sizes. *)
    let x, r =
      match x0 with
      | None -> (Vec.zeros n, Vec.copy b)
      | Some x0 ->
          if Array.length x0 <> n then
            invalid_arg "Krylov.cg: warm-start arity mismatch";
          (Vec.copy x0, Vec.sub b (apply x0))
    in
    let z = precond r in
    let p = Vec.copy z in
    let rz = ref (Vec.dot r z) in
    (* A warm start may already satisfy the tolerance (cold starts never
       do: ‖b‖ > 0 here); entering the loop with a zero residual would
       trip the definiteness check on a zero search direction. *)
    let converged = ref (Vec.norm2 r <= tol *. b_norm) in
    let iter = ref 0 in
    while (not !converged) && !iter < max_iter do
      let q = apply p in
      let pq = Vec.dot p q in
      if not (pq > 0.) then
        failwith "Krylov.cg: operator is not positive definite";
      let alpha = !rz /. pq in
      for i = 0 to n - 1 do
        x.(i) <- x.(i) +. (alpha *. p.(i));
        r.(i) <- r.(i) -. (alpha *. q.(i))
      done;
      if Vec.norm2 r <= tol *. b_norm then converged := true
      else begin
        let z = precond r in
        let rz' = Vec.dot r z in
        let beta = rz' /. !rz in
        for i = 0 to n - 1 do
          p.(i) <- z.(i) +. (beta *. p.(i))
        done;
        rz := rz'
      end;
      incr iter
    done;
    if not !converged then
      failwith
        (Printf.sprintf "Krylov.cg: no convergence in %d iterations (n = %d)"
           max_iter n);
    x
  end

(* ------------------------------------------------------------- Lanczos *)

(* Incrementally grown Lanczos factorization A Q_m = Q_m T_m + beta_m
   q_{m+1} e_m^T with full reorthogonalization (two modified
   Gram-Schmidt passes), so T_m remains an accurate projection even
   after many steps.  [qs] holds m+1 basis vectors; [alpha]/[beta] the
   tridiagonal.  A step may signal breakdown (residual below the
   breakdown threshold): the Krylov space is then invariant. *)
type lanczos_state = {
  qs : Vec.t array;  (* capacity m_cap + 1; entries 0..steps valid *)
  alpha : float array;
  beta : float array;  (* beta.(j) couples basis vectors j and j+1 *)
  mutable steps : int;
  mutable invariant : bool;
}

let lanczos_start ~m_cap q0 =
  let qs = Array.make (m_cap + 1) [||] in
  qs.(0) <- q0;
  {
    qs;
    alpha = Array.make m_cap 0.;
    beta = Array.make m_cap 0.;
    steps = 0;
    invariant = false;
  }

let reorthogonalize st u =
  (* Two passes of modified Gram-Schmidt against every basis vector.
     Slot [steps] is unassigned (empty) while an invariant breakdown is
     pending — a deflated restart reorthogonalizes in exactly that
     state, so skip it. *)
  for _pass = 1 to 2 do
    for i = 0 to st.steps do
      let qi = st.qs.(i) in
      if Array.length qi > 0 then begin
        let c = Vec.dot u qi in
        if not (Float.equal c 0.) then
          Array.iteri (fun l q -> u.(l) <- u.(l) -. (c *. q)) qi
      end
    done
  done

(* One Lanczos step of the operator [apply].  After the call either
   [st.steps] grew by one, or [st.invariant] is set (and [st.steps] also
   grew, with [beta = 0] recorded for the final coupling). *)
let lanczos_step ~apply st =
  let j = st.steps in
  let q = st.qs.(j) in
  let u = apply q in
  let a = Vec.dot u q in
  st.alpha.(j) <- a;
  (* Subtract the local tridiagonal terms first, then fully
     reorthogonalize — cheap insurance that keeps Q orthonormal. *)
  Array.iteri (fun l ql -> u.(l) <- u.(l) -. (a *. ql)) q;
  if j > 0 then begin
    let b = st.beta.(j - 1) in
    Array.iteri (fun l ql -> u.(l) <- u.(l) -. (b *. ql)) st.qs.(j - 1)
  end;
  reorthogonalize st u;
  let b = Vec.norm2 u in
  let scale =
    Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1e-300 st.alpha
  in
  if b <= 1e-14 *. scale then begin
    st.beta.(j) <- 0.;
    st.steps <- j + 1;
    st.invariant <- true
  end
  else begin
    st.beta.(j) <- b;
    st.qs.(j + 1) <- Vec.scale (1. /. b) u;
    st.steps <- j + 1
  end

(* The eigendecomposition of T_m, the leading m x m block of the
   tridiagonal — the one place a Lanczos projection is diagonalized, so
   swapping the small eigensolver is a change to this function alone. *)
let tridiag_eig st m =
  let t = Mat.zeros m m in
  for i = 0 to m - 1 do
    Mat.set t i i st.alpha.(i);
    if i < m - 1 && not (Float.equal st.beta.(i) 0.) then begin
      Mat.set t i (i + 1) st.beta.(i);
      Mat.set t (i + 1) i st.beta.(i)
    end
  done;
  Sym_eig.decompose t

(* y = f(T_m) e1 = S diag(f theta) S^T e1 from T_m's decomposition. *)
let tridiag_coeffs { Sym_eig.eigenvalues; eigenvectors } f =
  let m = Vec.dim eigenvalues in
  let y = Array.make m 0. in
  for l = 0 to m - 1 do
    let w = f eigenvalues.(l) *. Mat.get eigenvectors 0 l in
    for i = 0 to m - 1 do
      y.(i) <- y.(i) +. (w *. Mat.get eigenvectors i l)
    done
  done;
  y

(* Reconstruct beta0 * Q_m y in node space. *)
let lanczos_combine st ~n m beta0 y =
  let w = Vec.zeros n in
  for i = 0 to m - 1 do
    let c = beta0 *. y.(i) in
    Array.iteri (fun l ql -> w.(l) <- w.(l) +. (c *. ql)) st.qs.(i)
  done;
  w

(* ------------------------------------------------------------- expm·v *)

let expmv ?(tol = 1e-12) ?(m_max = 64) apply ~t v =
  let n = Array.length v in
  if not (t >= 0.) then invalid_arg "Krylov.expmv: negative time";
  let combine st m beta0 y = lanczos_combine st ~n m beta0 y in
  let rec go t v depth =
    if depth > 60 then failwith "Krylov.expmv: time-splitting did not converge";
    let beta0 = Vec.norm2 v in
    if Float.equal beta0 0. then Vec.zeros n
    else begin
      let m_cap = Stdlib.min n (Stdlib.max 2 m_max) in
      let st = lanczos_start ~m_cap (Vec.scale (1. /. beta0) v) in
      let result = ref None in
      while Option.is_none !result do
        lanczos_step ~apply st;
        let m = st.steps in
        (* The small eigensolve costs O(m^3): amortize by checking only
           at exponentially spaced sizes, on breakdown, and at the cap.
           Never at one step short of those: T_1 is a single Rayleigh
           quotient, and once e^{-t alpha_1} underflows the estimate
           vanishes whatever share of [v] lies in slower modes. *)
        let checkpoint =
          st.invariant || m >= m_cap || (m > 1 && m land (m - 1) = 0) || m mod 8 = 0
        in
        if checkpoint then begin
          let y = tridiag_coeffs (tridiag_eig st m) (fun lam -> Float.exp (-.t *. lam)) in
          if st.invariant then result := Some (combine st m beta0 y)
          else begin
            let err = beta0 *. st.beta.(m - 1) *. Float.abs y.(m - 1) in
            if err <= tol *. beta0 then result := Some (combine st m beta0 y)
            else if m >= m_cap then begin
              (* Stiff step: apply the half-time exponential twice instead. *)
              let half = go (t /. 2.) v (depth + 1) in
              result := Some (go (t /. 2.) half (depth + 1))
            end
          end
        end
      done;
      Option.get !result
    end
  in
  go t v 0

(* ------------------------------------------------------ prepared f(A)v *)

(* A reusable Lanczos factorization of [A] on a fixed start vector [v].
   The basis depends only on [(apply, v)] — never on [f] — so one
   preparation serves every smooth function evaluated against it; the
   basis is grown lazily, on demand, and each [prepared_coeffs] call
   re-walks the checkpoint ladder from the bottom, so the accepted size
   for a given [f] is deterministic and independent of which other
   functions were evaluated first. *)
type prepared = {
  p_apply : Vec.t -> Vec.t;
  p_st : lanczos_state option;  (* [None] iff the start vector is zero *)
  p_beta0 : float;
  p_n : int;
  p_m_cap : int;
  (* Memoized eigendecompositions of T_m at visited checkpoint sizes —
     f-independent, so they are shared across every [f].  Mutable growth
     state: a [prepared] value is NOT domain-safe; confine each one to a
     single domain. *)
  mutable p_eigs : (int * Sym_eig.t) list;
}

(* Relative plateau tolerance of the coefficient vector f(T_m) e1. *)
let plateau_tol = 1e-13

let prepare ?(m_max = 256) apply v =
  let n = Array.length v in
  let beta0 = Vec.norm2 v in
  let m_cap = Stdlib.min n (Stdlib.max 2 m_max) in
  let st =
    if Float.equal beta0 0. then None
    else Some (lanczos_start ~m_cap (Vec.scale (1. /. beta0) v))
  in
  { p_apply = apply; p_st = st; p_beta0 = beta0; p_n = n; p_m_cap = m_cap;
    p_eigs = [] }

let prepared_eig p st m =
  match List.assoc_opt m p.p_eigs with
  | Some e -> e
  | None ->
      let e = tridiag_eig st m in
      p.p_eigs <- (m, e) :: p.p_eigs;
      e

(* Accepted coefficient vector for [f]: walk checkpoints m = 4, 8, ...,
   capped at [p_m_cap], growing the basis as needed.  Gauss-quadrature
   convergence: f(T_m) e1 stabilizes geometrically for smooth positive
   [f], so accept at the smallest size where two consecutive checkpoints
   agree to [plateau_tol] relative — a plateau of one checkpoint is not
   trusted (symmetric spectra can stall one step before a new Ritz value
   splits off) — or exactly, on an invariant subspace.  Returns
   [(m, y)]. *)
let prepared_coeffs p st ~f =
  let rec walk m prev streak =
    let m = Stdlib.min m p.p_m_cap in
    while st.steps < m && not st.invariant do
      lanczos_step ~apply:p.p_apply st
    done;
    let m_eff = Stdlib.min m st.steps in
    let y = tridiag_coeffs (prepared_eig p st m_eff) f in
    if st.invariant && st.steps <= m then (m_eff, y)
    else begin
      let delta = ref 0. and scale = ref 0. in
      for i = 0 to m_eff - 1 do
        let yp = if i < Array.length prev then prev.(i) else 0. in
        let d = y.(i) -. yp in
        delta := !delta +. (d *. d);
        scale := !scale +. (y.(i) *. y.(i))
      done;
      let streak =
        if Float.sqrt !delta <= plateau_tol *. Float.sqrt !scale then streak + 1
        else 0
      in
      if streak >= 2 then (m_eff, y)
      else if m_eff >= p.p_m_cap then
        failwith
          (Printf.sprintf
             "Krylov.prepared: no convergence in %d steps (n = %d)" p.p_m_cap
             p.p_n)
      else walk (m + 4) y streak
    end
  in
  walk 4 [||] 0

let prepared_apply p ~f =
  match p.p_st with
  | None -> Vec.zeros p.p_n
  | Some st ->
      let m, y = prepared_coeffs p st ~f in
      lanczos_combine st ~n:p.p_n m p.p_beta0 y

let prepared_apply_at p ~f ~idx dst =
  let k = Array.length idx in
  if Array.length dst < k then
    invalid_arg "Krylov.prepared_apply_at: destination too short";
  (match p.p_st with
  | None -> Array.fill dst 0 k 0.
  | Some st ->
      let m, y = prepared_coeffs p st ~f in
      for l = 0 to k - 1 do
        let node = idx.(l) in
        let acc = ref 0. in
        for i = 0 to m - 1 do
          acc := !acc +. (y.(i) *. st.qs.(i).(node))
        done;
        dst.(l) <- p.p_beta0 *. !acc
      done)

(* ------------------------------------------- shift-invert eigenpairs *)

(* Deterministic replacement start vector used when a Krylov block
   closes before the basis is full: coordinate direction [seed]
   orthogonalized against everything found so far. *)
let deflated_restart st n =
  let rec try_seed seed =
    if seed >= n then None
    else begin
      let u = Vec.zeros n in
      u.(seed) <- 1.;
      reorthogonalize st u;
      let norm = Vec.norm2 u in
      if norm > 1e-8 then Some (Vec.scale (1. /. norm) u)
      else try_seed (seed + 1)
    end
  in
  try_seed 0

let smallest_eigs ?(tol = 1e-10) ?(m_max = 0) ~n ~k solve =
  if k <= 0 || k > n then
    invalid_arg (Printf.sprintf "Krylov.smallest_eigs: k = %d with n = %d" k n);
  let m_cap =
    let default = Stdlib.min n ((4 * k) + 20) in
    if m_max > 0 then Stdlib.min n (Stdlib.max k m_max) else default
  in
  (* Fixed ramp start vector: no randomness (lint R4), and generic
     enough to have components along every slow mode in practice. *)
  let v0 = Vec.init n (fun i -> 1. +. (float_of_int (i + 1) /. float_of_int n)) in
  let st = lanczos_start ~m_cap (Vec.scale (1. /. Vec.norm2 v0) v0) in
  (* T_m's decomposition once the basis is final — on convergence, the
     one the residual check just made. *)
  let result = ref None in
  while Option.is_none !result do
    lanczos_step ~apply:solve st;
    let m = st.steps in
    if st.invariant && m < m_cap then begin
      (* Invariant block closed early; deflate into a fresh direction so
         degenerate eigenspaces are still explored. *)
      match deflated_restart st n with
      | Some q ->
          st.qs.(m) <- q;
          st.invariant <- false
      | None -> result := Some (tridiag_eig st m)
    end
    else if m >= m_cap then result := Some (tridiag_eig st m)
    else if m >= k then begin
      (* Converged when the k largest Ritz values of the shift-inverted
         operator all have small residuals |beta_m . s_{m,j}|. *)
      let ({ Sym_eig.eigenvalues; eigenvectors } as eig) = tridiag_eig st m in
      let ok = ref true in
      for j = m - k to m - 1 do
        let mu = eigenvalues.(j) in
        let res = st.beta.(m - 1) *. Float.abs (Mat.get eigenvectors (m - 1) j) in
        if not (mu > 0.) || res > tol *. mu then ok := false
      done;
      if !ok then result := Some eig
    end
  done;
  let m = st.steps in
  let { Sym_eig.eigenvalues; eigenvectors } = Option.get !result in
  (* Largest mu of A^{-1} are the smallest lambda = 1/mu of A; eigenvalues
     come back ascending, so walk the top of the spectrum backwards. *)
  if m < k then
    failwith
      (Printf.sprintf "Krylov.smallest_eigs: basis collapsed at %d < k = %d" m k);
  Array.init k (fun idx ->
      let j = m - 1 - idx in
      let mu = eigenvalues.(j) in
      if not (mu > 0.) then
        failwith "Krylov.smallest_eigs: operator is not positive definite";
      let w = Vec.zeros n in
      for i = 0 to m - 1 do
        let s = Mat.get eigenvectors i j in
        Array.iteri (fun l ql -> w.(l) <- w.(l) +. (s *. ql)) st.qs.(i)
      done;
      let norm = Vec.norm2 w in
      (1. /. mu, Vec.scale (1. /. norm) w))
