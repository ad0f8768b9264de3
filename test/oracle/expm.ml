(* Degree-13 Padé approximant of exp with scaling and squaring
   (Higham, "The scaling and squaring method for the matrix exponential
   revisited", 2005), with the single theta_13 threshold rather than the
   multi-degree selection — slightly more work for small norms but simpler
   and just as accurate. *)

module Mat = Linalg.Mat
module Lu = Linalg.Lu

let pade13_coefficients =
  [|
    64764752532480000.;
    32382376266240000.;
    7771770303897600.;
    1187353796428800.;
    129060195264000.;
    10559470521600.;
    670442572800.;
    33522128640.;
    1323241920.;
    40840800.;
    960960.;
    16380.;
    182.;
    1.;
  |]
[@@fosc.unguarded "constant table, written by no one after module load"]

let theta13 = 5.371920351148152

let expm a =
  if not (Mat.is_square a) then invalid_arg "Expm.expm: matrix not square";
  let n = a.Mat.rows in
  let norm = Mat.norm_inf a in
  let squarings =
    if norm <= theta13 then 0
    else int_of_float (Float.ceil (Float.log (norm /. theta13) /. Float.log 2.))
  in
  let a = if squarings = 0 then Mat.copy a else Mat.scale (1. /. Float.pow 2. (float_of_int squarings)) a in
  let c = pade13_coefficients in
  let a2 = Mat.matmul a a in
  let a4 = Mat.matmul a2 a2 in
  let a6 = Mat.matmul a4 a2 in
  let ident = Mat.identity n in
  (* u = A (A6 (c13 A6 + c11 A4 + c9 A2) + c7 A6 + c5 A4 + c3 A2 + c1 I) *)
  let w1 = Mat.add (Mat.scale c.(13) a6) (Mat.add (Mat.scale c.(11) a4) (Mat.scale c.(9) a2)) in
  let w2 =
    Mat.add (Mat.scale c.(7) a6)
      (Mat.add (Mat.scale c.(5) a4) (Mat.add (Mat.scale c.(3) a2) (Mat.scale c.(1) ident)))
  in
  let u = Mat.matmul a (Mat.add (Mat.matmul a6 w1) w2) in
  (* v = A6 (c12 A6 + c10 A4 + c8 A2) + c6 A6 + c4 A4 + c2 A2 + c0 I *)
  let z1 = Mat.add (Mat.scale c.(12) a6) (Mat.add (Mat.scale c.(10) a4) (Mat.scale c.(8) a2)) in
  let z2 =
    Mat.add (Mat.scale c.(6) a6)
      (Mat.add (Mat.scale c.(4) a4) (Mat.add (Mat.scale c.(2) a2) (Mat.scale c.(0) ident)))
  in
  let v = Mat.add (Mat.matmul a6 z1) z2 in
  (* r = (v - u)^{-1} (v + u), then square back. *)
  let r = ref (Lu.solve_mat (Lu.factorize (Mat.sub v u)) (Mat.add v u)) in
  for _ = 1 to squarings do
    r := Mat.matmul !r !r
  done;
  !r

let expm_scaled a t = expm (Mat.scale t a)
