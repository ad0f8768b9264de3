(* Unit and property tests for the dense linear-algebra substrate. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Lu = Linalg.Lu
module Sym_eig = Linalg.Sym_eig
module Expm = Oracle.Expm

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

let vec_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check bool) msg true (Vec.approx_equal ~tol expected actual)

let mat_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check bool) msg true (Mat.approx_equal ~tol expected actual)

(* ------------------------------------------------------------------ Vec *)

let test_vec_arithmetic () =
  let x = [| 1.; 2.; 3. |] and y = [| 4.; 5.; 6. |] in
  vec_close "add" [| 5.; 7.; 9. |] (Vec.add x y);
  vec_close "sub" [| -3.; -3.; -3. |] (Vec.sub x y);
  vec_close "scale" [| 2.; 4.; 6. |] (Vec.scale 2. x);
  vec_close "mul" [| 4.; 10.; 18. |] (Vec.mul x y);
  vec_close "axpy" [| 6.; 9.; 12. |] (Vec.axpy 2. x y);
  check_float "dot" 32. (Vec.dot x y);
  check_float "sum" 6. (Vec.sum x);
  check_float "mean" 2. (Vec.mean x)

let test_vec_reductions () =
  let v = [| 3.; -7.; 5.; 1. |] in
  check_float "max" 5. (Vec.max v);
  check_float "min" (-7.) (Vec.min v);
  Alcotest.(check int) "argmax" 2 (Vec.argmax v);
  check_float "norm_inf" 7. (Vec.norm_inf v);
  check_float "norm2" (sqrt 84.) (Vec.norm2 v)

let test_vec_leq () =
  Alcotest.(check bool) "leq true" true (Vec.leq [| 1.; 2. |] [| 1.; 3. |]);
  Alcotest.(check bool) "leq false" false (Vec.leq [| 1.; 4. |] [| 1.; 3. |])

let test_vec_dim_mismatch () =
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Vec.add: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.add [| 1.; 2. |] [| 1.; 2.; 3. |]))

let test_vec_empty_mean () =
  Alcotest.check_raises "mean empty" (Invalid_argument "Vec.mean: empty vector")
    (fun () -> ignore (Vec.mean [||]))

(* ------------------------------------------------------------------ Mat *)

let test_mat_identity_matmul () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  mat_close "I*A = A" a (Mat.matmul (Mat.identity 2) a);
  mat_close "A*I = A" a (Mat.matmul a (Mat.identity 2))

let test_mat_matmul_known () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_rows [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  mat_close "2x2 product" (Mat.of_rows [| [| 19.; 22. |]; [| 43.; 50. |] |]) (Mat.matmul a b)

let test_mat_matvec () =
  let a = Mat.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  vec_close "matvec" [| 14.; 32. |] (Mat.matvec a [| 1.; 2.; 3. |]);
  vec_close "vecmat" [| 9.; 12.; 15. |] (Mat.vecmat [| 1.; 2. |] a)

let test_mat_transpose () =
  let a = Mat.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let at = Mat.transpose a in
  Alcotest.(check (pair int int)) "dims" (3, 2) (Mat.dims at);
  check_float "element" 6. (Mat.get at 2 1);
  mat_close "double transpose" a (Mat.transpose at)

let test_mat_norms () =
  let a = Mat.of_rows [| [| 1.; -2. |]; [| 3.; 4. |] |] in
  check_float "norm_inf" 7. (Mat.norm_inf a);
  check_float "norm_fro" (sqrt 30.) (Mat.norm_fro a);
  check_float "trace" 5. (Mat.trace a)

let test_mat_symmetry () =
  let s = Mat.of_rows [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric s);
  let a = Mat.of_rows [| [| 2.; 1. |]; [| 0.; 3. |] |] in
  Alcotest.(check bool) "asymmetric" false (Mat.is_symmetric a)

let test_mat_diag () =
  let d = Mat.diag [| 1.; 2.; 3. |] in
  check_float "diag get" 2. (Mat.get d 1 1);
  check_float "diag off" 0. (Mat.get d 0 2);
  vec_close "diagonal" [| 1.; 2.; 3. |] (Mat.diagonal d)

let test_mat_add_scaled_identity () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  mat_close "A + 2I" (Mat.of_rows [| [| 3.; 2. |]; [| 3.; 6. |] |]) (Mat.add_scaled_identity 2. a)

let test_mat_bad_dims () =
  Alcotest.check_raises "inner mismatch"
    (Invalid_argument "Mat.matmul: inner dimensions differ (2x2 times 3x2)") (fun () ->
      ignore (Mat.matmul (Mat.identity 2) (Mat.zeros 3 2)))

(* ------------------------------------------------------------------- Lu *)

let random_matrix rng n =
  Mat.init n n (fun _ _ -> Random.State.float rng 2. -. 1.)

let test_lu_solve_known () =
  let a = Mat.of_rows [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  (* x = (1, 2): b = (4, 7) *)
  vec_close "solve" [| 1.; 2. |] (Lu.solve a [| 4.; 7. |])

let test_lu_inverse_roundtrip () =
  let rng = Random.State.make [| 42 |] in
  for n = 1 to 8 do
    let a = Mat.add_scaled_identity (float_of_int n) (random_matrix rng n) in
    let inv = Lu.inverse a in
    mat_close ~tol:1e-9 (Printf.sprintf "A*A^-1 = I (n=%d)" n) (Mat.identity n)
      (Mat.matmul a inv)
  done

let test_lu_det () =
  let a = Mat.of_rows [| [| 2.; 0. |]; [| 0.; 3. |] |] in
  check_float "diag det" 6. (Lu.det a);
  let b = Mat.of_rows [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  check_float "permutation det" (-1.) (Lu.det b);
  check_float "singular det" 0. (Lu.det (Mat.of_rows [| [| 1.; 2. |]; [| 2.; 4. |] |]))

let test_lu_singular_raises () =
  let s = Mat.of_rows [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.(check bool) "raises Singular" true
    (match Lu.factorize s with exception Lu.Singular _ -> true | _ -> false)

let test_lu_pivoting () =
  (* Requires row exchange: leading zero pivot. *)
  let a = Mat.of_rows [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  vec_close "swap solve" [| 2.; 1. |] (Lu.solve a [| 1.; 2. |])

let test_lu_solve_mat () =
  let a = Mat.of_rows [| [| 3.; 1. |]; [| 1.; 2. |] |] in
  let x = Mat.of_rows [| [| 1.; 0. |]; [| 2.; 5. |] |] in
  let b = Mat.matmul a x in
  mat_close ~tol:1e-12 "solve_mat" x (Lu.solve_mat (Lu.factorize a) b)

(* -------------------------------------------------------------- Sym_eig *)

let random_symmetric rng n =
  let a = random_matrix rng n in
  Mat.init n n (fun i j -> (Mat.get a i j +. Mat.get a j i) /. 2.)

let test_eig_diagonal () =
  let d = Sym_eig.decompose (Mat.diag [| 3.; 1.; 2. |]) in
  vec_close "sorted eigenvalues" [| 1.; 2.; 3. |] d.Sym_eig.eigenvalues

let test_eig_known_2x2 () =
  (* [[2,1],[1,2]] has eigenvalues 1 and 3. *)
  let d = Sym_eig.decompose (Mat.of_rows [| [| 2.; 1. |]; [| 1.; 2. |] |]) in
  vec_close ~tol:1e-12 "eigenvalues" [| 1.; 3. |] d.Sym_eig.eigenvalues

let test_eig_reconstruct () =
  let rng = Random.State.make [| 7 |] in
  for n = 2 to 10 do
    let s = random_symmetric rng n in
    let d = Sym_eig.decompose s in
    mat_close ~tol:1e-10 (Printf.sprintf "reconstruct n=%d" n) s (Sym_eig.reconstruct d)
  done

let test_eig_orthonormal () =
  let rng = Random.State.make [| 11 |] in
  let s = random_symmetric rng 6 in
  let d = Sym_eig.decompose s in
  let v = d.Sym_eig.eigenvectors in
  mat_close ~tol:1e-10 "V^T V = I" (Mat.identity 6) (Mat.matmul (Mat.transpose v) v)

let test_eig_apply_function () =
  let s = Mat.of_rows [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  let d = Sym_eig.decompose s in
  (* exp of the matrix via eigenvalues must match the Padé expm. *)
  mat_close ~tol:1e-9 "exp via eig = expm" (Expm.expm s) (Sym_eig.apply_function d exp)

let test_eig_rejects_asymmetric () =
  Alcotest.check_raises "asymmetric input"
    (Invalid_argument "Sym_eig.decompose: matrix not symmetric") (fun () ->
      ignore (Sym_eig.decompose (Mat.of_rows [| [| 1.; 2. |]; [| 0.; 1. |] |])))

(* ----------------------------------------------------------------- Expm *)

let test_expm_zero () =
  mat_close "e^0 = I" (Mat.identity 4) (Expm.expm (Mat.zeros 4 4))

let test_expm_diagonal () =
  let e = Expm.expm (Mat.diag [| 1.; -2. |]) in
  check_close 1e-12 "e^1" (exp 1.) (Mat.get e 0 0);
  check_close 1e-12 "e^-2" (exp (-2.)) (Mat.get e 1 1);
  check_float "off-diag" 0. (Mat.get e 0 1)

let test_expm_nilpotent () =
  (* exp [[0,1],[0,0]] = [[1,1],[0,1]] exactly. *)
  let n = Mat.of_rows [| [| 0.; 1. |]; [| 0.; 0. |] |] in
  mat_close ~tol:1e-14 "nilpotent" (Mat.of_rows [| [| 1.; 1. |]; [| 0.; 1. |] |]) (Expm.expm n)

let test_expm_rotation () =
  (* exp [[0,-t],[t,0]] is a rotation by t. *)
  let t = 1.2 in
  let r = Expm.expm (Mat.of_rows [| [| 0.; -.t |]; [| t; 0. |] |]) in
  check_close 1e-12 "cos" (cos t) (Mat.get r 0 0);
  check_close 1e-12 "sin" (sin t) (Mat.get r 1 0)

let test_expm_inverse_property () =
  let rng = Random.State.make [| 3 |] in
  let a = random_matrix rng 5 in
  let e = Expm.expm a in
  let e_neg = Expm.expm (Mat.scale (-1.) a) in
  mat_close ~tol:1e-10 "e^A e^-A = I" (Mat.identity 5) (Mat.matmul e e_neg)

let test_expm_scaling_branch () =
  (* Norm far above theta13 forces the squaring path. *)
  let a = Mat.scale 40. (Mat.of_rows [| [| 0.; 1. |]; [| -1.; 0. |] |]) in
  let r = Expm.expm a in
  check_close 1e-8 "large rotation cos" (cos 40.) (Mat.get r 0 0)

let test_expm_semigroup () =
  let rng = Random.State.make [| 13 |] in
  let a = random_matrix rng 4 in
  let lhs = Expm.expm_scaled a 0.7 in
  let rhs = Mat.matmul (Expm.expm_scaled a 0.3) (Expm.expm_scaled a 0.4) in
  mat_close ~tol:1e-11 "e^{0.7A} = e^{0.3A} e^{0.4A}" lhs rhs

(* ------------------------------------------------------------ properties *)

let vec_gen n = QCheck.Gen.(array_size (return n) (float_bound_inclusive 10.))

let prop_lu_solve_residual =
  QCheck.Test.make ~name:"lu: ||Ax - b|| small for well-conditioned A" ~count:100
    QCheck.(
      make
        Gen.(
          let* n = int_range 1 8 in
          let* entries = array_size (return (n * n)) (float_bound_inclusive 1.) in
          let* b = vec_gen n in
          return (n, entries, b)))
    (fun (n, entries, b) ->
      let a =
        Mat.add_scaled_identity (float_of_int (2 * n)) (Mat.init n n (fun i j -> entries.((i * n) + j)))
      in
      let x = Lu.solve a b in
      Vec.dist_inf (Mat.matvec a x) b < 1e-8)

let prop_eig_spectrum_matches_trace =
  QCheck.Test.make ~name:"sym_eig: eigenvalue sum equals trace" ~count:100
    QCheck.(
      make
        Gen.(
          let* n = int_range 2 8 in
          let* entries = array_size (return (n * n)) (float_bound_inclusive 1.) in
          return (n, entries)))
    (fun (n, entries) ->
      let raw = Mat.init n n (fun i j -> entries.((i * n) + j)) in
      let s = Mat.init n n (fun i j -> (Mat.get raw i j +. Mat.get raw j i) /. 2.) in
      let d = Sym_eig.decompose s in
      Float.abs (Vec.sum d.Sym_eig.eigenvalues -. Mat.trace s) < 1e-9)

let prop_expm_det =
  QCheck.Test.make ~name:"expm: det e^A = e^{tr A}" ~count:60
    QCheck.(
      make
        Gen.(
          let* n = int_range 1 5 in
          let* entries = array_size (return (n * n)) (float_bound_inclusive 1.) in
          return (n, entries)))
    (fun (n, entries) ->
      let a = Mat.init n n (fun i j -> entries.((i * n) + j)) in
      let lhs = Lu.det (Expm.expm a) in
      let rhs = exp (Mat.trace a) in
      Float.abs (lhs -. rhs) <= 1e-7 *. Float.max 1. (Float.abs rhs))

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "arithmetic" `Quick test_vec_arithmetic;
          Alcotest.test_case "reductions" `Quick test_vec_reductions;
          Alcotest.test_case "leq ordering" `Quick test_vec_leq;
          Alcotest.test_case "dimension mismatch" `Quick test_vec_dim_mismatch;
          Alcotest.test_case "empty mean raises" `Quick test_vec_empty_mean;
        ] );
      ( "mat",
        [
          Alcotest.test_case "identity matmul" `Quick test_mat_identity_matmul;
          Alcotest.test_case "known product" `Quick test_mat_matmul_known;
          Alcotest.test_case "matvec/vecmat" `Quick test_mat_matvec;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
          Alcotest.test_case "norms and trace" `Quick test_mat_norms;
          Alcotest.test_case "symmetry check" `Quick test_mat_symmetry;
          Alcotest.test_case "diag round trip" `Quick test_mat_diag;
          Alcotest.test_case "add scaled identity" `Quick test_mat_add_scaled_identity;
          Alcotest.test_case "bad dims raise" `Quick test_mat_bad_dims;
        ] );
      ( "lu",
        [
          Alcotest.test_case "known solve" `Quick test_lu_solve_known;
          Alcotest.test_case "inverse round trip" `Quick test_lu_inverse_roundtrip;
          Alcotest.test_case "determinants" `Quick test_lu_det;
          Alcotest.test_case "singular raises" `Quick test_lu_singular_raises;
          Alcotest.test_case "pivoting" `Quick test_lu_pivoting;
          Alcotest.test_case "matrix rhs" `Quick test_lu_solve_mat;
        ] );
      ( "sym_eig",
        [
          Alcotest.test_case "diagonal input" `Quick test_eig_diagonal;
          Alcotest.test_case "known 2x2" `Quick test_eig_known_2x2;
          Alcotest.test_case "reconstruction" `Quick test_eig_reconstruct;
          Alcotest.test_case "orthonormal vectors" `Quick test_eig_orthonormal;
          Alcotest.test_case "matrix function" `Quick test_eig_apply_function;
          Alcotest.test_case "rejects asymmetric" `Quick test_eig_rejects_asymmetric;
        ] );
      ( "expm",
        [
          Alcotest.test_case "zero matrix" `Quick test_expm_zero;
          Alcotest.test_case "diagonal" `Quick test_expm_diagonal;
          Alcotest.test_case "nilpotent" `Quick test_expm_nilpotent;
          Alcotest.test_case "rotation" `Quick test_expm_rotation;
          Alcotest.test_case "inverse property" `Quick test_expm_inverse_property;
          Alcotest.test_case "scaling branch" `Quick test_expm_scaling_branch;
          Alcotest.test_case "semigroup property" `Quick test_expm_semigroup;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_lu_solve_residual; prop_eig_spectrum_matches_trace; prop_expm_det ] );
    ]
