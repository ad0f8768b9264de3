(* Differential tests for the sparse (CSR + Krylov) path: assembly must
   round-trip against dense matrices, spmv must agree with Mat.matvec,
   and the Krylov kernels must reproduce dense LU / expm results to
   <= 1e-9 on random SPD systems. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Sparse = Linalg.Sparse
module Krylov = Linalg.Krylov

let seed_gen = QCheck.(make Gen.(int_range 0 1_000_000))

(* Random sparse-ish dense matrix with ~density of entries set. *)
let random_dense rng rows cols ~density =
  Mat.init rows cols (fun _ _ ->
      if Random.State.float rng 1.0 < density then
        Random.State.float rng 2.0 -. 1.0
      else 0.)

(* Random RC-network-shaped SPD matrix: diagonally dominant symmetric,
   positive diagonal — same structure class as the symmetrized thermal
   conductance operator. *)
let random_spd rng n =
  let a = Mat.zeros n n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Random.State.float rng 1.0 < 0.3 then begin
        let g = -.Random.State.float rng 1.0 in
        Mat.set a i j g;
        Mat.set a j i g
      end
    done
  done;
  for i = 0 to n - 1 do
    let off = ref 0. in
    for j = 0 to n - 1 do
      if j <> i then off := !off +. Float.abs (Mat.get a i j)
    done;
    Mat.set a i i (!off +. 0.1 +. Random.State.float rng 2.0)
  done;
  a

(* ------------------------------------------------------ CSR structure *)

let prop_dense_round_trip =
  QCheck.Test.make ~name:"of_dense |> to_dense is the identity" ~count:100
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rows = 1 + Random.State.int rng 12
      and cols = 1 + Random.State.int rng 12 in
      let a = random_dense rng rows cols ~density:0.3 in
      Mat.approx_equal ~tol:0. a (Sparse.to_dense (Sparse.of_dense a)))

let prop_triplets_match_dense =
  QCheck.Test.make ~name:"of_triplets sums duplicates like dense assembly"
    ~count:100 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rows = 1 + Random.State.int rng 8
      and cols = 1 + Random.State.int rng 8 in
      let n_trip = Random.State.int rng 40 in
      let trips =
        List.init n_trip (fun _ ->
            ( Random.State.int rng rows,
              Random.State.int rng cols,
              Random.State.float rng 2.0 -. 1.0 ))
      in
      let dense = Mat.zeros rows cols in
      List.iter
        (fun (i, j, v) -> Mat.set dense i j (Mat.get dense i j +. v))
        trips;
      let sparse = Sparse.of_triplets ~rows ~cols trips in
      Mat.approx_equal ~tol:1e-12 dense (Sparse.to_dense sparse))

let prop_spmv_matches_matvec =
  QCheck.Test.make ~name:"spmv = Mat.matvec" ~count:100 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rows = 1 + Random.State.int rng 15
      and cols = 1 + Random.State.int rng 15 in
      let a = random_dense rng rows cols ~density:0.4 in
      let x = Vec.init cols (fun _ -> Random.State.float rng 2.0 -. 1.0) in
      Vec.dist_inf (Sparse.spmv (Sparse.of_dense a) x) (Mat.matvec a x) <= 1e-12)

let prop_transpose_matches_dense =
  QCheck.Test.make ~name:"transpose agrees with dense transpose" ~count:100
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rows = 1 + Random.State.int rng 10
      and cols = 1 + Random.State.int rng 10 in
      let a = random_dense rng rows cols ~density:0.3 in
      Mat.approx_equal ~tol:0.
        (Mat.transpose a)
        (Sparse.to_dense (Sparse.transpose (Sparse.of_dense a))))

let prop_sym_scale_matches_dense =
  QCheck.Test.make ~name:"sym_scale = diag(d) A diag(d)" ~count:100 seed_gen
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 1 + Random.State.int rng 10 in
      let a = random_dense rng n n ~density:0.4 in
      let d = Vec.init n (fun _ -> 0.1 +. Random.State.float rng 2.0) in
      let dense = Mat.matmul (Mat.diag d) (Mat.matmul a (Mat.diag d)) in
      Mat.approx_equal ~tol:1e-12 dense
        (Sparse.to_dense (Sparse.sym_scale (Sparse.of_dense a) d)))

let test_csr_units () =
  let a = Sparse.of_triplets ~rows:3 ~cols:3 [ (0, 0, 1.); (2, 1, 5.); (0, 0, 2.) ] in
  Alcotest.(check int) "duplicates summed into one slot" 2 (Sparse.nnz a);
  Alcotest.(check (float 0.)) "summed value" 3. (Sparse.get a 0 0);
  Alcotest.(check (float 0.)) "missing entry reads 0" 0. (Sparse.get a 1 1);
  Alcotest.(check bool) "structural equality" true
    (Sparse.equal a (Sparse.of_triplets ~rows:3 ~cols:3 [ (2, 1, 5.); (0, 0, 3.) ]));
  Alcotest.(check bool) "asymmetric matrix detected" false (Sparse.is_symmetric a);
  let s =
    Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 1, -1.); (1, 0, -1.); (0, 0, 2.) ]
  in
  Alcotest.(check bool) "symmetric matrix detected" true (Sparse.is_symmetric s);
  Alcotest.(check (array (float 0.))) "diagonal" [| 2.; 0. |] (Sparse.diagonal s)

(* -------------------------------------------------------------- Krylov *)

let prop_cg_matches_lu =
  QCheck.Test.make ~name:"cg solves SPD systems like dense LU" ~count:60 seed_gen
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + Random.State.int rng 20 in
      let a = random_spd rng n in
      let b = Vec.init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
      let reference = Linalg.Lu.solve_vec (Linalg.Lu.factorize a) b in
      let sp = Sparse.of_dense a in
      let x =
        Krylov.cg ~precond:(Krylov.jacobi (Sparse.diagonal sp)) (Sparse.spmv sp) b
      in
      Vec.dist_inf reference x <= 1e-9)

let prop_expmv_matches_dense_expm =
  QCheck.Test.make ~name:"expmv = Sym_eig expm on SPD operators" ~count:60
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + Random.State.int rng 20 in
      let a = random_spd rng n in
      let t = 0.01 +. Random.State.float rng 3.0 in
      let v = Vec.init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
      let eig = Linalg.Sym_eig.decompose a in
      let reference =
        Mat.matvec (Linalg.Sym_eig.apply_function eig (fun lam -> Float.exp (-.t *. lam))) v
      in
      let sp = Sparse.of_dense a in
      let w = Krylov.expmv (Sparse.spmv sp) ~t v in
      Vec.dist_inf reference w <= 1e-9)

let prop_expmv_small_basis_splits_time =
  QCheck.Test.make ~name:"expmv stays accurate when m_max forces splitting"
    ~count:20 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 12 + Random.State.int rng 10 in
      let a = random_spd rng n in
      let t = 0.5 +. Random.State.float rng 2.0 in
      let v = Vec.init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
      let eig = Linalg.Sym_eig.decompose a in
      let reference =
        Mat.matvec (Linalg.Sym_eig.apply_function eig (fun lam -> Float.exp (-.t *. lam))) v
      in
      let sp = Sparse.of_dense a in
      let w = Krylov.expmv ~m_max:6 (Sparse.spmv sp) ~t v in
      Vec.dist_inf reference w <= 1e-8)

(* A long step on a stiff operator whose start vector is nearly all
   fast mode: e^{-t alpha_1} of the first Rayleigh quotient underflows,
   so a one-step estimate reads zero error while the slow mode still
   carries e^{-0.044} of its share. *)
let test_expmv_long_step_keeps_slow_mode () =
  let d = [| 0.1; 1000. |] in
  let a = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, d.(0)); (1, 1, d.(1)) ] in
  let v = [| 1e-3; 1. |] and t = 0.44 in
  let w = Krylov.expmv (Sparse.spmv a) ~t v in
  let reference = Array.mapi (fun i x -> Float.exp (-.t *. d.(i)) *. x) v in
  Alcotest.(check bool) "slow mode survives the long step" true
    (Vec.dist_inf reference w <= 1e-12 *. Vec.norm2 v)

let prop_smallest_eigs_match_dense =
  QCheck.Test.make ~name:"smallest_eigs agree with the dense eigensolve"
    ~count:40 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 4 + Random.State.int rng 16 in
      let k = 1 + Random.State.int rng (Stdlib.min 4 (n - 1)) in
      let a = random_spd rng n in
      let dense = Linalg.Sym_eig.decompose a in
      let sp = Sparse.of_dense a in
      let solve =
        let pre = Krylov.jacobi (Sparse.diagonal sp) in
        fun b -> Krylov.cg ~precond:pre (Sparse.spmv sp) b
      in
      let pairs = Krylov.smallest_eigs ~n ~k solve in
      Array.length pairs = k
      && Array.for_all
           (fun (lambda, w) ->
             (* Residual check ‖A w − λ w‖ ≤ tol·λ: robust to degenerate
                eigenvalues, unlike comparing eigenvectors directly. *)
             let r = Vec.sub (Sparse.spmv sp w) (Vec.scale lambda w) in
             Vec.norm2 r <= 1e-6 *. lambda
             && Float.abs (Vec.norm2 w -. 1.) <= 1e-9)
           pairs
      && Array.for_all
           (fun idx ->
             let lambda, _ = pairs.(idx) in
             Float.abs (lambda -. dense.eigenvalues.(idx))
             <= 1e-6 *. dense.eigenvalues.(idx))
           (Array.init k (fun i -> i)))

(* The prepared matrix-function ladder against the dense reference
   V f(Λ) V^T v, on the two function families the sparse engine
   evaluates: the transient e^{-tλ} and the periodic fixed point
   1/(1 - e^{-T_p λ}). *)

(* Random SPD operator of order 1..12 (so some sit below the first
   checkpoint and most are off the 4-step ladder); every third one has at
   most three distinct eigenvalues, which closes the Krylov space early
   (invariant breakdown). *)
let random_matfun_operator rng =
  let n = 1 + Random.State.int rng 12 in
  let a = random_spd rng n in
  if Random.State.int rng 3 > 0 then a
  else begin
    let { Linalg.Sym_eig.eigenvectors = v; _ } = Linalg.Sym_eig.decompose a in
    let distinct = Array.init 3 (fun _ -> 0.1 +. Random.State.float rng 4.0) in
    let lam = Array.init n (fun _ -> distinct.(Random.State.int rng 3)) in
    Mat.init n n (fun i j ->
        let acc = ref 0. in
        for l = 0 to n - 1 do
          acc := !acc +. (Mat.get v i l *. lam.(l) *. Mat.get v j l)
        done;
        !acc)
  end

let random_matfun rng =
  if Random.State.bool rng then
    let t = 0.01 +. Random.State.float rng 3.0 in
    fun lam -> Float.exp (-.t *. lam)
  else
    let t_p = 0.01 +. Random.State.float rng 1.0 in
    fun lam -> 1. /. -.Float.expm1 (-.t_p *. lam)

let prop_prepared_matches_dense =
  QCheck.Test.make ~name:"prepared_apply(_at) = Sym_eig f(A) v" ~count:300
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let a = random_matfun_operator rng in
      let n = fst (Mat.dims a) in
      let f = random_matfun rng in
      let v = Vec.init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
      let reference =
        Mat.matvec (Linalg.Sym_eig.apply_function (Linalg.Sym_eig.decompose a) f) v
      in
      let p = Krylov.prepare (Sparse.spmv (Sparse.of_dense a)) v in
      let idx = Array.init (1 + Random.State.int rng n) (fun _ -> Random.State.int rng n) in
      let at = Vec.zeros (Array.length idx) in
      Krylov.prepared_apply_at p ~f ~idx at;
      let tol = 1e-10 *. Vec.norm_inf reference in
      Vec.dist_inf reference (Krylov.prepared_apply p ~f) <= tol
      && Vec.dist_inf (Array.map (fun i -> reference.(i)) idx) at <= tol)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let prop_prepared_order_independent =
  QCheck.Test.make ~name:"prepared_apply bits do not depend on call order"
    ~count:100 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let a = random_matfun_operator rng in
      let n = fst (Mat.dims a) in
      let f1 = random_matfun rng and f2 = random_matfun rng in
      let v = Vec.init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
      let apply = Sparse.spmv (Sparse.of_dense a) in
      let p = Krylov.prepare apply v and q = Krylov.prepare apply v in
      let p1 = Krylov.prepared_apply p ~f:f1 in
      let p2 = Krylov.prepared_apply p ~f:f2 in
      let q2 = Krylov.prepared_apply q ~f:f2 in
      let q1 = Krylov.prepared_apply q ~f:f1 in
      same_bits p1 q1 && same_bits p2 q2)

(* A basis cap off the 4-step ladder must end in the documented
   no-convergence [Failure], not in a Lanczos step past the cap. *)
let test_prepared_cap_off_ladder () =
  let n = 100 in
  let lap =
    Mat.init n n (fun i j ->
        if i = j then 3. else if abs (i - j) = 1 then -1. else 0.)
  in
  let apply = Sparse.spmv (Sparse.of_dense lap) in
  let v = Vec.init n (fun i -> 1. +. float_of_int i) in
  let f lam = Float.exp (-.lam) in
  let fails name run =
    match run () with
    | exception Failure _ -> ()
    | exception e -> Alcotest.failf "%s raised %s" name (Printexc.to_string e)
    | () -> Alcotest.failf "%s converged under the cap" name
  in
  List.iter
    (fun m_max ->
      fails (Printf.sprintf "prepared_apply, m_max = %d" m_max) (fun () ->
          ignore (Krylov.prepared_apply (Krylov.prepare ~m_max apply v) ~f : Vec.t));
      fails (Printf.sprintf "prepared_apply_at, m_max = %d" m_max) (fun () ->
          Krylov.prepared_apply_at (Krylov.prepare ~m_max apply v) ~f
            ~idx:[| 0; 50 |] (Vec.zeros 2)))
    [ 6; 10 ]

let test_prepared_zero_start () =
  let apply = Sparse.spmv (Sparse.of_dense (Mat.identity 5)) in
  let p = Krylov.prepare apply (Vec.zeros 5) in
  Alcotest.(check bool) "zero start vector, zero result" true
    (same_bits (Vec.zeros 5) (Krylov.prepared_apply p ~f:(fun lam -> 1. /. lam)))

(* ------------------------------------------- thermal backend parity *)

(* The sparse engine must agree with the dense Model/Matex path to
   <= 1e-9 on every evaluator the policies use: steady temperatures,
   exact transient steps, the periodic stable status, and both peak
   scans.
   Hotspot core-level models carry 3 nodes per core, so the 3x3 grid is
   the n = 27 ceiling named in the differential-test contract. *)

module Model = Thermal.Model
module Spec = Thermal.Spec
module Resp = Thermal.Sparse_response
module Matex = Thermal.Matex

let pm = Power.Power_model.default
let levels5 = Power.Vf.table_iv 5

let model3 =
  Thermal.Hotspot.core_level
    (Thermal.Floorplan.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)

let model9 =
  Thermal.Hotspot.core_level
    (Thermal.Floorplan.grid ~rows:3 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)

let random_segments rng model n_segs =
  List.init n_segs (fun _ ->
      {
        Thermal.Matex.duration = 0.01 +. Random.State.float rng 0.5;
        psi =
          Array.init (Model.n_cores model) (fun _ -> Random.State.float rng 20.);
      })

let engine_of ?pool model = Resp.of_spec ?pool (Spec.of_model model)

(* Node-space ambient-relative temperatures of a sparse state, which is
   symmetrized: y = C^{1/2} theta. *)
let to_theta model y = Vec.mul (Vec.map (fun c -> 1. /. sqrt c) (Model.capacitance model)) y

let random_step_up rng ~n_cores ~period =
  Workload.Random_sched.step_up rng ~n_cores ~period ~max_intervals:5
    ~levels:levels5

let test_spec_model_round_trip () =
  List.iter
    (fun model ->
      let spec = Spec.of_model model in
      let rebuilt = Spec.to_model spec in
      let psi = Array.init (Model.n_cores model) (fun i -> 3. +. float_of_int i) in
      Alcotest.(check bool) "steady temps survive the spec round trip" true
        (Vec.dist_inf
           (Model.steady_core_temps model psi)
           (Model.steady_core_temps rebuilt psi)
        <= 1e-9))
    [ model3; model9 ]

let test_operator_is_symmetrized_conductance () =
  List.iter
    (fun model ->
      let eng = engine_of model in
      let n = Model.n_nodes model in
      let a = Model.a_matrix model in
      let c = Model.capacitance model in
      (* A = -C^{-1} G', so M = C^{-1/2} G' C^{-1/2} = -C^{1/2} A C^{-1/2}. *)
      let expected =
        Mat.init n n (fun i j ->
            -.Mat.get a i j *. Float.sqrt c.(i) /. Float.sqrt c.(j))
      in
      Alcotest.(check bool) "assembled CSR is the symmetrized operator" true
        (Mat.approx_equal ~tol:1e-9 expected
           (Sparse.to_dense (Resp.operator eng)));
      Alcotest.(check bool) "operator is symmetric" true
        (Sparse.is_symmetric ~tol:1e-12 (Resp.operator eng)))
    [ model3; model9 ]

let prop_sparse_steady_matches_dense =
  QCheck.Test.make ~name:"sparse steady temps = dense steady temps" ~count:50
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = if seed mod 2 = 0 then model3 else model9 in
      let eng = engine_of model in
      let nc = Model.n_cores model in
      let psi = Array.init nc (fun _ -> Random.State.float rng 25.) in
      let rel = Vec.zeros nc in
      Resp.steady_core_into eng rel ~pos:0 psi;
      Vec.dist_inf
        (Vec.map (fun x -> x +. Model.ambient model) rel)
        (Model.steady_core_temps model psi)
      <= 1e-9
      && Float.abs
           (Resp.steady_peak eng psi -. Vec.max (Model.steady_core_temps model psi))
         <= 1e-9)

let prop_sparse_trajectory_matches_dense =
  QCheck.Test.make ~name:"sparse step = Model.step along trajectories" ~count:40
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = if seed mod 2 = 0 then model3 else model9 in
      let eng = engine_of model in
      let segs = random_segments rng model 5 in
      let theta = ref (Vec.zeros (Model.n_nodes model)) in
      let y = ref (Resp.ambient_state eng) in
      List.for_all
        (fun (s : Thermal.Matex.segment) ->
          theta := Oracle.Reference.step model ~dt:s.duration ~theta:!theta ~psi:s.psi;
          let next = Resp.ambient_state eng in
          Resp.step_into eng ~dt:s.duration ~state:!y ~psi:s.psi ~dst:next;
          y := next;
          Vec.dist_inf !theta (to_theta model !y) <= 1e-9
          && Float.abs
               (Resp.max_core_temp eng !y -. Model.max_core_temp model !theta)
             <= 1e-9)
        segs)

let prop_sparse_stable_matches_dense =
  QCheck.Test.make ~name:"sparse stable status = Matex.stable_start" ~count:40
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = if seed mod 2 = 0 then model3 else model9 in
      let eng = engine_of model in
      let s = random_step_up rng ~n_cores:(Model.n_cores model) ~period:5. in
      let profile = Sched.Peak.profile (Thermal.Backend.of_model model) pm s in
      let dense = Matex.stable_start model profile in
      let b = Thermal.Backend.of_model model in
      let y = Resp.stable eng ~t_p:(Matex.period profile) (Matex.spans profile) in
      Vec.dist_inf dense (to_theta model y) <= 1e-9
      && Vec.dist_inf
           (Sched.Peak.profile_end_core_temps b profile)
           (Resp.core_temps eng y)
         <= 1e-9
      && Float.abs
           (Sched.Peak.profile_end_peak b profile
           -. Sched.Peak.profile_end_peak (Thermal.Backend.of_response eng) profile)
         <= 1e-9)

(* The production sparse scans: [Sched.Peak]'s in-period walk over
   [Backend.of_response], what [of_any]/[of_any_refined] run on every
   sparse context. *)
let sparse_backend model = Thermal.Backend.of_response (engine_of model)

let prop_sparse_peak_scan_matches_dense =
  QCheck.Test.make ~name:"sparse peak_scan = Matex.peak_scan" ~count:25 seed_gen
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let segs = random_segments rng model3 4 in
      let scan b = Sched.Peak.profile_scan_peak b ~samples_per_segment:16 segs in
      Float.abs
        (scan (Thermal.Backend.of_model model3) -. scan (sparse_backend model3))
      <= 1e-9)

let prop_sparse_peak_refined_matches_dense =
  QCheck.Test.make ~name:"sparse peak_refined = Matex.peak_refined" ~count:20
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let ratio () = 0.1 +. Random.State.float rng 0.8 in
      let s =
        Sched.Schedule.two_mode ~period:0.1 ~low:[| 0.6; 0.6; 0.6 |]
          ~high:[| 1.3; 1.3; 1.3 |]
          ~high_ratio:[| ratio (); ratio (); ratio () |]
      in
      let profile = Sched.Peak.profile (Thermal.Backend.of_model model3) pm s in
      let refined b = Sched.Peak.profile_refined_peak b ~samples_per_segment:16 profile in
      Float.abs
        (refined (Thermal.Backend.of_model model3) -. refined (sparse_backend model3))
      <= 1e-9)

let test_parallel_assembly_deterministic () =
  let spec = Spec.of_model model9 in
  let sequential = Util.Pool.create ~size:1 () in
  let parallel = Util.Pool.create ~size:4 () in
  let a = Resp.operator (Resp.of_spec ~pool:sequential spec) in
  let b = Resp.operator (Resp.of_spec ~pool:parallel spec) in
  Util.Pool.shutdown sequential;
  Util.Pool.shutdown parallel;
  Alcotest.(check bool) "assembly is bit-identical at any pool size" true
    (Sparse.equal a b)

(* The n_cores + 1 unit solves run as one pool batch at build time; the
   superposed equilibria they feed must not depend on how the batch was
   spread. *)
let test_unit_batch_pool_independent () =
  let rng = Random.State.make [| 7 |] in
  let psis =
    List.init 12 (fun _ -> Array.init 9 (fun _ -> Random.State.float rng 25.))
  in
  let solve pool_size =
    let pool = Util.Pool.create ~size:pool_size () in
    let eng = engine_of ~pool model9 in
    Util.Pool.shutdown pool;
    List.map
      (fun psi ->
        let y = Vec.zeros (Model.n_nodes model9) in
        Resp.y_inf_into eng y psi;
        y)
      psis
  in
  let batched = solve 4 and sequential = solve 1 in
  Alcotest.(check int) "batch preserves arity" (List.length sequential)
    (List.length batched);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "batched solve matches sequential" true
        (Vec.dist_inf a b <= 1e-12))
    batched sequential

(* Every guard is a finite-range test, so NaN and infinity fail it: a
   non-finite spec must be rejected at construction, not surface later
   as a NaN diagonal inside the Krylov preconditioner. *)
let test_spec_validation () =
  let n = 2 in
  let make ?(ambient = 35.) ?(leak_beta = 0.05) ?(capacitance = [| 1.; 1. |])
      ?(edges = [ (0, 1, 0.5) ]) () =
    ignore
      (Spec.make ~ambient ~leak_beta ~capacitance
         ~to_ambient:(Vec.create n 0.2) ~edges ~core_nodes:[| 0 |] ()
        : Spec.t)
  in
  let rejected what f =
    Alcotest.(check bool) (what ^ " rejected") true
      (match f () with exception Invalid_argument _ -> true | () -> false)
  in
  make ();
  rejected "NaN leak_beta" (make ~leak_beta:nan);
  rejected "infinite leak_beta" (make ~leak_beta:infinity);
  rejected "NaN ambient" (make ~ambient:nan);
  rejected "NaN edge conductance" (make ~edges:[ (0, 1, nan) ]);
  rejected "infinite edge conductance" (make ~edges:[ (0, 1, infinity) ]);
  rejected "infinite capacitance" (make ~capacitance:[| infinity; 1. |]);
  (* The dense builder guards the same two scalars with the same test. *)
  let model ?(ambient = 35.) ?(leak_beta = 0.05) () =
    Model.make ~ambient ~leak_beta ~capacitance:[| 1.; 1. |]
      ~conductance:(Mat.of_rows [| [| 0.7; -0.5 |]; [| -0.5; 0.7 |] |])
      ~core_nodes:[| 0 |] ()
  in
  ignore (model () : Model.t);
  Alcotest.check_raises "Model.make NaN leak_beta"
    (Invalid_argument "Model.make: leakage slope must be finite and non-negative")
    (fun () -> ignore (model ~leak_beta:nan () : Model.t));
  Alcotest.check_raises "Model.make NaN ambient"
    (Invalid_argument "Model.make: ambient temperature must be finite")
    (fun () -> ignore (model ~ambient:nan () : Model.t))

(* ----------------------------- backend dispatch through Core.Eval *)

module Eval = Core.Eval
module Solver = Core.Solver

let seq = { Solver.default_params with Solver.par = false }

let test_backend_names () =
  let p = Workload.Configs.platform ~cores:3 ~levels:3 ~t_max:65. in
  Alcotest.(check string) "dense context wraps the modal engine" "dense-modal"
    (Eval.backend (Eval.create ~backend:Eval.Dense p)).Thermal.Backend.name;
  Alcotest.(check string) "sparse context wraps the superposition engine"
    "sparse-response"
    (Eval.backend (Eval.create ~backend:Eval.Sparse p)).Thermal.Backend.name

(* Every Eval entry point must answer the same (to 1e-9) from a Dense
   and a Sparse context on the 3x3 grid — the property that lets a
   policy switch backends without noticing. *)
let test_eval_backends_agree () =
  let p = Core.Platform.grid ~rows:3 ~cols:3 ~levels:levels5 ~t_max:80. () in
  let dense = Eval.create ~backend:Eval.Dense p in
  let sparse = Eval.create ~backend:Eval.Sparse p in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 8 do
    let v = Array.init 9 (fun _ -> 0.6 +. Random.State.float rng 0.7) in
    Alcotest.(check bool) "steady_peak agrees" true
      (Float.abs (Eval.steady_peak dense v -. Eval.steady_peak sparse v)
      <= 1e-9)
  done;
  for _ = 1 to 5 do
    let s = random_step_up rng ~n_cores:9 ~period:5. in
    Alcotest.(check bool) "step_up_peak agrees" true
      (Float.abs (Eval.step_up_peak dense s -. Eval.step_up_peak sparse s)
      <= 1e-9);
    Alcotest.(check bool) "stable_end_core_temps agrees" true
      (Vec.dist_inf
         (Eval.stable_end_core_temps dense s)
         (Eval.stable_end_core_temps sparse s)
      <= 1e-9);
    Alcotest.(check bool) "any_peak agrees" true
      (Float.abs
         (Eval.any_peak dense ~samples_per_segment:8 s
         -. Eval.any_peak sparse ~samples_per_segment:8 s)
      <= 1e-9)
  done;
  for _ = 1 to 5 do
    let ratio () = Random.State.float rng 1. in
    let low = Array.make 9 0.6 and high = Array.make 9 1.3 in
    let high_ratio = Array.init 9 (fun _ -> ratio ()) in
    Alcotest.(check bool) "two_mode_peak agrees" true
      (Float.abs
         (Eval.two_mode_peak dense ~period:0.1 ~low ~high ~high_ratio
         -. Eval.two_mode_peak sparse ~period:0.1 ~low ~high ~high_ratio)
      <= 1e-9);
    Alcotest.(check bool) "two_mode_end_core_temps agrees" true
      (Vec.dist_inf
         (Eval.two_mode_end_core_temps dense ~period:0.1 ~low ~high ~high_ratio)
         (Eval.two_mode_end_core_temps sparse ~period:0.1 ~low ~high
            ~high_ratio)
      <= 1e-9)
  done

(* All eight registered policies must solve unchanged on a Sparse
   context and land on the dense answer.  Search trajectories are
   identical as long as no comparison straddles the ~1e-12 backend
   disagreement, so the outcomes match far inside 1e-6. *)
let test_policies_run_on_either_backend () =
  let p = Workload.Configs.platform ~cores:3 ~levels:3 ~t_max:65. in
  List.iter
    (fun (pol : Solver.t) ->
      let d = Solver.run ~params:seq pol (Eval.create ~backend:Eval.Dense p) in
      let s = Solver.run ~params:seq pol (Eval.create ~backend:Eval.Sparse p) in
      Alcotest.(check bool)
        (pol.Solver.name ^ ": peaks agree across backends")
        true
        (Float.abs (d.Solver.peak -. s.Solver.peak) <= 1e-6);
      Alcotest.(check bool)
        (pol.Solver.name ^ ": throughputs agree across backends")
        true
        (Float.abs (d.Solver.throughput -. s.Solver.throughput) <= 1e-6);
      Array.iteri
        (fun i dv ->
          Alcotest.(check bool)
            (pol.Solver.name ^ ": delivered speeds agree across backends")
            true
            (Float.abs (dv -. s.Solver.voltages.(i)) <= 1e-6))
        d.Solver.voltages)
    Core.Registry.all

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "sparse"
    [
      qsuite "csr"
        [
          prop_dense_round_trip;
          prop_triplets_match_dense;
          prop_spmv_matches_matvec;
          prop_transpose_matches_dense;
          prop_sym_scale_matches_dense;
        ];
      ("csr units", [ Alcotest.test_case "assembly basics" `Quick test_csr_units ]);
      qsuite "krylov"
        [
          prop_cg_matches_lu;
          prop_expmv_matches_dense_expm;
          prop_expmv_small_basis_splits_time;
          prop_smallest_eigs_match_dense;
          prop_prepared_matches_dense;
          prop_prepared_order_independent;
        ];
      ( "krylov units",
        [
          Alcotest.test_case "prepared cap off the ladder" `Quick
            test_prepared_cap_off_ladder;
          Alcotest.test_case "prepared zero start" `Quick test_prepared_zero_start;
          Alcotest.test_case "expmv long stiff step" `Quick
            test_expmv_long_step_keeps_slow_mode;
        ] );
      qsuite "thermal parity"
        [
          prop_sparse_steady_matches_dense;
          prop_sparse_trajectory_matches_dense;
          prop_sparse_stable_matches_dense;
          prop_sparse_peak_scan_matches_dense;
          prop_sparse_peak_refined_matches_dense;
        ];
      ( "thermal units",
        [
          Alcotest.test_case "spec/model round trip" `Quick
            test_spec_model_round_trip;
          Alcotest.test_case "operator assembly" `Quick
            test_operator_is_symmetrized_conductance;
          Alcotest.test_case "pool-deterministic assembly" `Quick
            test_parallel_assembly_deterministic;
          Alcotest.test_case "unit batch at any pool size" `Quick
            test_unit_batch_pool_independent;
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
        ] );
      ( "backend",
        [
          Alcotest.test_case "backend names" `Quick test_backend_names;
          Alcotest.test_case "eval entry points agree" `Quick
            test_eval_backends_agree;
          Alcotest.test_case "all policies on either backend" `Quick
            test_policies_run_on_either_backend;
        ] );
    ]
