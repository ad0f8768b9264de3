(* Tests for the ODE integrators, including cross-validation against
   closed-form solutions of linear systems. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat

let check_close tol = Alcotest.(check (float tol))

(* dy/dt = -y, y(0) = 1  =>  y(t) = e^{-t}. *)
let decay _t (y : Vec.t) = [| -.y.(0) |]

let test_rk4_exponential_decay () =
  let y = Oracle.Rk4.integrate decay ~t0:0. ~t1:2. ~dt:0.01 [| 1. |] in
  check_close 1e-8 "e^-2" (exp (-2.)) y.(0)

let test_rk4_polynomial_exact () =
  (* RK4 integrates quartics' derivatives (cubics) exactly:
     dy/dt = t^3, y(0)=0 => y(1) = 1/4 with any step count. *)
  let f t _ = [| t *. t *. t |] in
  let y = Oracle.Rk4.integrate f ~t0:0. ~t1:1. ~dt:0.25 [| 0. |] in
  check_close 1e-12 "quartic exact" 0.25 y.(0)

let test_rk4_harmonic_oscillator () =
  (* y'' = -y as a 2d system; energy must be conserved to O(dt^4). *)
  let f _ (y : Vec.t) = [| y.(1); -.y.(0) |] in
  let y = Oracle.Rk4.integrate f ~t0:0. ~t1:(2. *. Float.pi) ~dt:1e-3 [| 1.; 0. |] in
  check_close 1e-9 "returns to start (pos)" 1. y.(0);
  check_close 1e-9 "returns to start (vel)" 0. y.(1)

let test_rk4_trajectory_endpoints () =
  let tr = Oracle.Rk4.trajectory decay ~t0:0. ~t1:1. ~dt:0.1 [| 1. |] in
  let t_first, y_first = List.hd tr in
  let t_last, y_last = List.nth tr (List.length tr - 1) in
  check_close 1e-12 "starts at t0" 0. t_first;
  check_close 1e-12 "initial state" 1. y_first.(0);
  check_close 1e-9 "ends at t1" 1. t_last;
  check_close 1e-5 "final state" (exp (-1.)) y_last.(0)

let test_rk4_partial_last_step () =
  (* t1 - t0 not a multiple of dt: final step must shorten. *)
  let y = Oracle.Rk4.integrate decay ~t0:0. ~t1:0.95 ~dt:0.3 [| 1. |] in
  check_close 1e-4 "lands exactly on t1" (exp (-0.95)) y.(0)

let test_rk4_invalid_args () =
  Alcotest.check_raises "t1 < t0" (Invalid_argument "Rk4.integrate: t1 < t0") (fun () ->
      ignore (Oracle.Rk4.integrate decay ~t0:1. ~t1:0. ~dt:0.1 [| 1. |]));
  Alcotest.check_raises "dt <= 0" (Invalid_argument "Rk4.integrate: dt <= 0") (fun () ->
      ignore (Oracle.Rk4.integrate decay ~t0:0. ~t1:1. ~dt:0. [| 1. |]))

let test_rkf45_decay () =
  let y, stats = Oracle.Rkf45.integrate decay ~t0:0. ~t1:3. ~tol:1e-10 [| 1. |] in
  check_close 1e-8 "e^-3" (exp (-3.)) y.(0);
  Alcotest.(check bool) "took steps" true (stats.Oracle.Rkf45.steps > 0)

let test_rkf45_adapts_step () =
  (* A stiff-ish decay: the adaptive integrator should use far fewer
     steps at loose tolerance than at tight tolerance. *)
  let f _ (y : Vec.t) = [| -50. *. y.(0) |] in
  let _, loose = Oracle.Rkf45.integrate f ~t0:0. ~t1:1. ~tol:1e-4 [| 1. |] in
  let _, tight = Oracle.Rkf45.integrate f ~t0:0. ~t1:1. ~tol:1e-12 [| 1. |] in
  Alcotest.(check bool) "tight tolerance costs more steps" true
    (tight.Oracle.Rkf45.steps > loose.Oracle.Rkf45.steps)

let test_rkf45_matches_rk4 () =
  let f _ (y : Vec.t) = [| y.(1); -2. *. y.(0) -. (0.5 *. y.(1)) |] in
  let y_rk4 = Oracle.Rk4.integrate f ~t0:0. ~t1:4. ~dt:1e-4 [| 1.; 0. |] in
  let y_rkf, _ = Oracle.Rkf45.integrate f ~t0:0. ~t1:4. ~tol:1e-12 [| 1.; 0. |] in
  check_close 1e-7 "damped oscillator pos" y_rk4.(0) y_rkf.(0);
  check_close 1e-7 "damped oscillator vel" y_rk4.(1) y_rkf.(1)

let test_linear_exact_matches_rk4 () =
  let a = Mat.of_rows [| [| -2.; 0.5 |]; [| 0.5; -3. |] |] in
  let b = [| 1.; 2. |] in
  let f _ y = Vec.add (Mat.matvec a y) b in
  let stepper = Oracle.Linear_exact.prepare a b 0.4 in
  let y0 = [| 5.; -1. |] in
  let exact = Oracle.Linear_exact.step stepper y0 in
  let numeric = Oracle.Rk4.integrate f ~t0:0. ~t1:0.4 ~dt:1e-4 y0 in
  Alcotest.(check bool) "exact LTI step = dense RK4" true
    (Vec.approx_equal ~tol:1e-9 exact numeric)

let test_linear_exact_fixed_point () =
  let a = Mat.of_rows [| [| -1.; 0. |]; [| 0.; -4. |] |] in
  let b = [| 2.; 8. |] in
  let stepper = Oracle.Linear_exact.prepare a b 1.0 in
  let fp = Oracle.Linear_exact.fixed_point stepper in
  Alcotest.(check bool) "fixed point = -A^-1 b" true
    (Vec.approx_equal ~tol:1e-12 [| 2.; 2. |] fp);
  (* Stepping from the fixed point stays there. *)
  Alcotest.(check bool) "fixed point is invariant" true
    (Vec.approx_equal ~tol:1e-12 fp (Oracle.Linear_exact.step stepper fp))

let test_linear_exact_convergence () =
  let a = Mat.of_rows [| [| -3.; 1. |]; [| 1.; -2. |] |] in
  let b = [| 1.; 1. |] in
  let stepper = Oracle.Linear_exact.prepare a b 0.5 in
  let fp = Oracle.Linear_exact.fixed_point stepper in
  let y = ref [| 10.; -10. |] in
  for _ = 1 to 100 do
    y := Oracle.Linear_exact.step stepper !y
  done;
  Alcotest.(check bool) "iterated step converges to fixed point" true
    (Vec.approx_equal ~tol:1e-9 fp !y)

let prop_rk4_linear_matches_expm =
  QCheck.Test.make ~name:"rk4 matches matrix exponential on random stable systems"
    ~count:40
    QCheck.(
      make
        Gen.(
          let* n = int_range 1 4 in
          let* entries = array_size (return (n * n)) (float_bound_inclusive 1.) in
          let* y0 = array_size (return n) (float_bound_inclusive 5.) in
          return (n, entries, y0)))
    (fun (n, entries, y0) ->
      (* Stable A: random minus a dominant diagonal. *)
      let a =
        Mat.add_scaled_identity (-2. *. float_of_int n)
          (Mat.init n n (fun i j -> entries.((i * n) + j)))
      in
      let f _ y = Mat.matvec a y in
      let numeric = Oracle.Rk4.integrate f ~t0:0. ~t1:0.5 ~dt:1e-3 y0 in
      let exact = Mat.matvec (Oracle.Expm.expm_scaled a 0.5) y0 in
      Vec.dist_inf numeric exact < 1e-6)

let () =
  Alcotest.run "odeint"
    [
      ( "rk4",
        [
          Alcotest.test_case "exponential decay" `Quick test_rk4_exponential_decay;
          Alcotest.test_case "polynomial exact" `Quick test_rk4_polynomial_exact;
          Alcotest.test_case "harmonic oscillator" `Quick test_rk4_harmonic_oscillator;
          Alcotest.test_case "trajectory endpoints" `Quick test_rk4_trajectory_endpoints;
          Alcotest.test_case "partial last step" `Quick test_rk4_partial_last_step;
          Alcotest.test_case "invalid arguments" `Quick test_rk4_invalid_args;
        ] );
      ( "rkf45",
        [
          Alcotest.test_case "decay" `Quick test_rkf45_decay;
          Alcotest.test_case "step adaptation" `Quick test_rkf45_adapts_step;
          Alcotest.test_case "matches rk4" `Quick test_rkf45_matches_rk4;
        ] );
      ( "linear_exact",
        [
          Alcotest.test_case "matches rk4" `Quick test_linear_exact_matches_rk4;
          Alcotest.test_case "fixed point" `Quick test_linear_exact_fixed_point;
          Alcotest.test_case "convergence" `Quick test_linear_exact_convergence;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_rk4_linear_matches_expm ]);
    ]
