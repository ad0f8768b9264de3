(* Tests for the thermal substrate: floorplans, RC networks, the compact
   model, the MatEx analytic solver and traces — including cross-validation
   of every closed-form solution against direct ODE integration. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Fp = Thermal.Floorplan
module Rc = Thermal.Rc_network
module Model = Thermal.Model
module Matex = Thermal.Matex
module Modal = Thermal.Modal

let check_close tol = Alcotest.(check (float tol))

let grid3 = Fp.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3
let model3 () = Thermal.Hotspot.core_level grid3

let psi_of v = if Float.equal v 0. then 0. else 0.5 +. (9. *. (v ** 3.))
let psi_vec vs = Array.map psi_of vs

(* ------------------------------------------------------------ floorplan *)

let test_grid_geometry () =
  Alcotest.(check int) "3 blocks" 3 (Fp.n_blocks grid3);
  let b1 = grid3.Fp.blocks.(1) in
  check_close 1e-12 "x of middle core" 4e-3 b1.Fp.x;
  check_close 1e-15 "area" 16e-6 (Fp.area b1)

let test_shared_edges () =
  let b0 = grid3.Fp.blocks.(0) and b1 = grid3.Fp.blocks.(1) and b2 = grid3.Fp.blocks.(2) in
  check_close 1e-12 "adjacent cores share 4mm" 4e-3 (Fp.shared_edge b0 b1);
  check_close 1e-12 "non-adjacent cores share nothing" 0. (Fp.shared_edge b0 b2);
  check_close 1e-12 "symmetric" (Fp.shared_edge b0 b1) (Fp.shared_edge b1 b0)

let test_exposed_perimeter () =
  (* 3x1 row: edge cores expose 3 sides (12 mm), middle exposes 2 (8 mm). *)
  check_close 1e-12 "edge core" 12e-3 (Fp.exposed_perimeter grid3 0);
  check_close 1e-12 "middle core" 8e-3 (Fp.exposed_perimeter grid3 1);
  check_close 1e-12 "other edge" 12e-3 (Fp.exposed_perimeter grid3 2)

let test_grid_2d_adjacency () =
  let g = Fp.grid ~rows:2 ~cols:3 ~core_width:4e-3 ~core_height:4e-3 in
  (* Core (0,0) at index 0 touches (0,1) at index 1 and (1,0) at index 3. *)
  Alcotest.(check bool) "right neighbour" true
    (Fp.shared_edge g.Fp.blocks.(0) g.Fp.blocks.(1) > 0.);
  Alcotest.(check bool) "upper neighbour" true
    (Fp.shared_edge g.Fp.blocks.(0) g.Fp.blocks.(3) > 0.);
  Alcotest.(check bool) "diagonal is not a neighbour" true
    (Float.equal (Fp.shared_edge g.Fp.blocks.(0) g.Fp.blocks.(4)) 0.)

let test_stack3d_overlap () =
  let s = Fp.stack3d ~layers:2 ~rows:1 ~cols:2 ~core_width:4e-3 ~core_height:4e-3 in
  Alcotest.(check int) "4 blocks" 4 (Fp.n_blocks s);
  (* Block 0 (layer 0) overlaps block 2 (layer 1, same position) fully. *)
  check_close 1e-15 "full overlap" 16e-6 (Fp.overlap_area s.Fp.blocks.(0) s.Fp.blocks.(2));
  check_close 1e-15 "no overlap across positions" 0.
    (Fp.overlap_area s.Fp.blocks.(0) s.Fp.blocks.(3));
  check_close 1e-15 "same layer never overlaps" 0.
    (Fp.overlap_area s.Fp.blocks.(0) s.Fp.blocks.(1))

let test_grid_invalid () =
  Alcotest.check_raises "zero rows"
    (Invalid_argument "Floorplan.grid: non-positive grid size") (fun () ->
      ignore (Fp.grid ~rows:0 ~cols:1 ~core_width:1e-3 ~core_height:1e-3))

(* ----------------------------------------------------------- rc_network *)

let test_rc_matrix_assembly () =
  let net = Rc.create () in
  let a = Rc.add_node net ~name:"a" ~capacitance:1. ~to_ambient:0.5 in
  let b = Rc.add_node net ~name:"b" ~capacitance:2. ~to_ambient:0. in
  Rc.connect net a b 0.25;
  let g = Rc.conductance_matrix net in
  check_close 1e-12 "G_aa" 0.75 (Mat.get g 0 0);
  check_close 1e-12 "G_ab" (-0.25) (Mat.get g 0 1);
  check_close 1e-12 "G_bb" 0.25 (Mat.get g 1 1);
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric g);
  Alcotest.(check bool) "grounded" true (Rc.is_grounded net)

let test_rc_accumulating_edges () =
  let net = Rc.create () in
  let a = Rc.add_node net ~name:"a" ~capacitance:1. ~to_ambient:1. in
  let b = Rc.add_node net ~name:"b" ~capacitance:1. ~to_ambient:1. in
  Rc.connect net a b 0.1;
  Rc.connect net a b 0.2;
  check_close 1e-12 "parallel conductances add" (-0.3)
    (Mat.get (Rc.conductance_matrix net) 0 1)

let test_rc_rejects_bad_input () =
  let net = Rc.create () in
  let a = Rc.add_node net ~name:"a" ~capacitance:1. ~to_ambient:0. in
  Alcotest.check_raises "self loop" (Invalid_argument "Rc_network.connect: self-loop")
    (fun () -> Rc.connect net a a 1.);
  Alcotest.check_raises "negative capacitance"
    (Invalid_argument "Rc_network.add_node: capacitance must be positive") (fun () ->
      ignore (Rc.add_node net ~name:"bad" ~capacitance:(-1.) ~to_ambient:0.))

(* ---------------------------------------------------------------- model *)

let test_model_eigenvalues_negative () =
  let m = model3 () in
  Alcotest.(check bool) "all eigenvalues negative" true
    (Vec.for_all (fun l -> l < 0.) (Model.eigenvalues m))

let test_model_steady_state_balance () =
  let m = model3 () in
  let psi = psi_vec [| 1.3; 0.6; 1.3 |] in
  let theta = Model.theta_inf m psi in
  Alcotest.(check bool) "dT/dt = 0 at steady state" true
    (Vec.norm_inf (Oracle.Reference.derivative m theta psi) < 1e-9)

let test_model_propagator_semigroup () =
  let m = model3 () in
  let p1 = Oracle.Reference.propagator m 0.1 in
  let p2 = Oracle.Reference.propagator m 0.2 in
  Alcotest.(check bool) "P(0.1)^2 = P(0.2)" true
    (Mat.approx_equal ~tol:1e-10 (Mat.matmul p1 p1) p2)

let test_model_propagator_matches_expm () =
  let m = model3 () in
  let direct = Oracle.Expm.expm_scaled (Model.a_matrix m) 0.05 in
  Alcotest.(check bool) "eigen route = Pade route" true
    (Mat.approx_equal ~tol:1e-9 (Oracle.Reference.propagator m 0.05) direct)

let test_model_step_matches_rk4 () =
  let m = model3 () in
  let psi = psi_vec [| 1.3; 0.6; 0.6 |] in
  let theta0 = [| 5.; 1.; 0. |] in
  let exact = Oracle.Reference.step m ~dt:0.3 ~theta:theta0 ~psi in
  let f _ theta = Oracle.Reference.derivative m theta psi in
  let numeric = Oracle.Rk4.integrate f ~t0:0. ~t1:0.3 ~dt:1e-4 theta0 in
  Alcotest.(check bool) "closed form matches RK4" true
    (Vec.approx_equal ~tol:1e-8 exact numeric)

let test_model_hotter_neighbours () =
  (* Heating one core must raise (not lower) every other core. *)
  let m = model3 () in
  let base = Model.theta_inf m (psi_vec [| 0.6; 0.6; 0.6 |]) in
  let hot = Model.theta_inf m (psi_vec [| 1.3; 0.6; 0.6 |]) in
  Alcotest.(check bool) "monotone thermal coupling" true (Vec.leq base hot)

let test_model_middle_core_hottest () =
  let m = model3 () in
  let temps = Model.steady_core_temps m (psi_vec [| 1.3; 1.3; 1.3 |]) in
  Alcotest.(check bool) "middle core hottest under uniform load" true
    (temps.(1) > temps.(0) && temps.(1) > temps.(2));
  check_close 1e-9 "left/right symmetric" temps.(0) temps.(2)

let test_model_property1_cooling () =
  (* Property 1: with all cores off, temperatures decay monotonically
     towards the (tiny) leakage floor. *)
  let m = model3 () in
  let psi = Array.make 3 0. in
  let theta = ref [| 40.; 35.; 30. |] in
  let floor_theta = Model.theta_inf m psi in
  for _ = 1 to 50 do
    let next = Oracle.Reference.step m ~dt:0.05 ~theta:!theta ~psi in
    Alcotest.(check bool) "monotone cooling" true
      (Vec.leq next (Vec.add !theta (Vec.create 3 1e-12)));
    Alcotest.(check bool) "never undershoots the floor" true
      (Vec.leq floor_theta (Vec.add next (Vec.create 3 1e-9)));
    theta := next
  done

let test_model_solve_uniform_temp_roundtrip () =
  let m = model3 () in
  let psi = Model.solve_powers_for_uniform_core_temp m 65. in
  let temps = Model.steady_core_temps m psi in
  Alcotest.(check bool) "powers reproduce 65C everywhere" true
    (Vec.approx_equal ~tol:1e-9 [| 65.; 65.; 65. |] temps);
  Alcotest.(check bool) "edge power > middle power" true (psi.(0) > psi.(1))

let test_model_solve_mixed () =
  let m = model3 () in
  let constraints =
    [|
      Model.Pinned_temperature 60.;
      Model.Known_power 5.;
      Model.Pinned_temperature 60.;
    |]
  in
  let psi, temps = Model.solve_mixed m constraints in
  check_close 1e-9 "pinned core 0" 60. temps.(0);
  check_close 1e-9 "pinned core 2" 60. temps.(2);
  check_close 1e-12 "echoed power" 5. psi.(1);
  let roundtrip = Model.steady_core_temps m psi in
  Alcotest.(check bool) "round trip" true
    (Vec.approx_equal ~tol:1e-8
       (Array.of_list [ temps.(0); temps.(1); temps.(2) ])
       roundtrip)

let test_model_runaway_rejected () =
  let net = Rc.create () in
  let _ = Rc.add_node net ~name:"a" ~capacitance:1. ~to_ambient:0.1 in
  Alcotest.(check bool) "thermal runaway detected" true
    (match
       Model.make ~ambient:35. ~leak_beta:0.2
         ~capacitance:(Rc.capacitance_vector net)
         ~conductance:(Rc.conductance_matrix net) ~core_nodes:[| 0 |] ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_layered_model_close_to_core_level () =
  let layered = Thermal.Hotspot.layered grid3 in
  let psi = psi_vec [| 1.3; 1.3; 1.3 |] in
  let temps = Model.steady_core_temps layered psi in
  Alcotest.(check bool) "middle hottest in layered model too" true
    (temps.(1) > temps.(0));
  Alcotest.(check bool) "temperature scale sane (50..110C)" true
    (temps.(1) > 50. && temps.(1) < 110.)

let test_3d_upper_layer_hotter () =
  (* In a 2-layer stack with equal loads, the package-attached layer cools
     better than the stacked one — the paper's 3D-crisis motivation. *)
  let s = Fp.stack3d ~layers:2 ~rows:1 ~cols:2 ~core_width:4e-3 ~core_height:4e-3 in
  let m = Thermal.Hotspot.core_level s in
  let temps = Model.steady_core_temps m (psi_vec [| 1.0; 1.0; 1.0; 1.0 |]) in
  (* Blocks 0,1 are layer 0; blocks 2,3 are layer 1. *)
  Alcotest.(check bool) "stacked layer runs hotter" true
    (temps.(2) > temps.(0) && temps.(3) > temps.(1))

let test_model_integrate_theta_matches_quadrature () =
  let m = model3 () in
  let psi = psi_vec [| 1.3; 0.6; 1.0 |] in
  let theta0 = [| 3.; 1.; 0. |] in
  let exact = Oracle.Reference.integrate_theta m ~dt:0.4 ~theta:theta0 ~psi in
  (* Composite-trapezoid quadrature on the exact trajectory. *)
  let samples = 4000 in
  let h = 0.4 /. float_of_int samples in
  let acc = Vec.zeros 3 in
  let theta = ref theta0 in
  for k = 0 to samples do
    let w = if k = 0 || k = samples then 0.5 else 1. in
    Array.iteri (fun i x -> acc.(i) <- acc.(i) +. (w *. h *. x)) !theta;
    if k < samples then theta := Oracle.Reference.step m ~dt:h ~theta:!theta ~psi
  done;
  Alcotest.(check bool) "closed-form integral matches quadrature" true
    (Vec.approx_equal ~tol:1e-6 acc exact)

let test_model_integrate_theta_steady () =
  (* At the steady state the integral is just theta_inf * dt. *)
  let m = model3 () in
  let psi = psi_vec [| 1.0; 1.0; 1.0 |] in
  let tinf = Model.theta_inf m psi in
  let integral = Oracle.Reference.integrate_theta m ~dt:2.5 ~theta:tinf ~psi in
  Alcotest.(check bool) "steady integral" true
    (Vec.approx_equal ~tol:1e-9 (Vec.scale 2.5 tinf) integral)

(* ----------------------------------------------------------- grid model *)

let test_grid_model_matches_block_level () =
  let g = Thermal.Grid_model.build ~subdivisions:3 grid3 in
  let block = model3 () in
  let psi = psi_vec [| 1.3; 1.3; 1.3 |] in
  let fine = Thermal.Grid_model.steady_block_temps g psi in
  let coarse = Model.steady_core_temps block psi in
  Alcotest.(check int) "27 cells" 27 (Model.n_cores g.Thermal.Grid_model.model);
  for i = 0 to 2 do
    (* Lumping averages the intra-core gradient away, so the fine grid's
       hottest cell sits a few degrees above the block temperature —
       never below it, and not wildly above. *)
    Alcotest.(check bool)
      (Printf.sprintf "block %d: coarse <= fine <= coarse + 6C" i)
      true
      (fine.(i) >= coarse.(i) -. 0.2 && fine.(i) <= coarse.(i) +. 6.)
  done;
  Alcotest.(check bool) "middle block hottest on the fine grid too" true
    (fine.(1) > fine.(0));
  (* k = 1 degenerates exactly to the block-level model. *)
  let g1 = Thermal.Grid_model.build ~subdivisions:1 grid3 in
  Alcotest.(check bool) "k = 1 is exactly the block model" true
    (Vec.approx_equal ~tol:1e-9 coarse (Thermal.Grid_model.steady_block_temps g1 psi))

let test_grid_model_shows_gradient () =
  (* Heat one core only: its cells must show an intra-core gradient, and
     the far core's cells must stay cooler than the hot core's. *)
  let g = Thermal.Grid_model.build ~subdivisions:3 grid3 in
  let temps =
    Model.steady_core_temps g.Thermal.Grid_model.model
      (Thermal.Grid_model.expand_powers g (psi_vec [| 1.3; 0.; 0. |]))
  in
  let cells i = Array.map (fun n -> temps.(n)) g.Thermal.Grid_model.mapping.(i) in
  let hot = cells 0 and far = cells 2 in
  Alcotest.(check bool) "gradient inside the hot core" true
    (Vec.max hot -. Vec.min hot > 0.5);
  Alcotest.(check bool) "far core cooler" true (Vec.max far < Vec.min hot)

let test_grid_model_profile_roundtrip () =
  let g = Thermal.Grid_model.build ~subdivisions:2 grid3 in
  let block = model3 () in
  let profile =
    [
      { Matex.duration = 0.05; psi = psi_vec [| 1.3; 0.6; 1.3 |] };
      { Matex.duration = 0.05; psi = psi_vec [| 0.6; 1.3; 0.6 |] };
    ]
  in
  let scan model = Sched.Peak.profile_scan_peak (Thermal.Backend.of_model model) in
  let fine_peak =
    scan g.Thermal.Grid_model.model ~samples_per_segment:16
      (Thermal.Grid_model.profile_of g profile)
  in
  let coarse_peak = scan block ~samples_per_segment:16 profile in
  Alcotest.(check bool) "fine-grid periodic peak bracketed" true
    (fine_peak >= coarse_peak -. 0.2 && fine_peak <= coarse_peak +. 6.)

let test_grid_model_validation () =
  Alcotest.(check bool) "subdivisions < 1 rejected" true
    (match Thermal.Grid_model.build ~subdivisions:0 grid3 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let g = Thermal.Grid_model.build ~subdivisions:2 grid3 in
  Alcotest.(check bool) "power arity checked" true
    (match Thermal.Grid_model.expand_powers g [| 1. |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------------------------------------------------------------- matex *)

let two_mode_profile ~d1 ~v1 ~d2 ~v2 =
  [
    { Matex.duration = d1; psi = psi_vec v1 };
    { Matex.duration = d2; psi = psi_vec v2 };
  ]

let test_matex_period () =
  let p = two_mode_profile ~d1:0.03 ~v1:[| 1.3; 0.6; 0.6 |] ~d2:0.07 ~v2:[| 0.6; 0.6; 1.3 |] in
  check_close 1e-12 "period" 0.1 (Matex.period p)

let test_matex_simulate_boundaries () =
  let m = model3 () in
  let p = two_mode_profile ~d1:0.05 ~v1:[| 1.3; 0.6; 0.6 |] ~d2:0.05 ~v2:[| 0.6; 0.6; 1.3 |] in
  let states = Oracle.Reference.simulate m ~theta0:(Vec.zeros 3) p in
  Alcotest.(check int) "boundary count" 3 (Array.length states);
  Alcotest.(check bool) "starts at theta0" true
    (Float.equal (Vec.norm_inf states.(0)) 0.);
  Alcotest.(check bool) "temperatures rose" true (Vec.max states.(2) > 0.)

let test_matex_stable_start_is_fixed_point () =
  let m = model3 () in
  let p = two_mode_profile ~d1:0.04 ~v1:[| 1.3; 1.3; 0.6 |] ~d2:0.06 ~v2:[| 0.6; 0.6; 1.3 |] in
  let theta_star = Matex.stable_start m p in
  let states = Oracle.Reference.simulate m ~theta0:theta_star p in
  Alcotest.(check bool) "one period returns to the start" true
    (Vec.approx_equal ~tol:1e-9 theta_star states.(Array.length states - 1))

let test_matex_stable_matches_long_simulation () =
  let m = model3 () in
  let p = two_mode_profile ~d1:0.05 ~v1:[| 1.3; 0.6; 1.3 |] ~d2:0.05 ~v2:[| 0.6; 1.3; 0.6 |] in
  let theta_star = Matex.stable_start m p in
  let theta = ref (Vec.zeros 3) in
  for _ = 1 to 200 do
    let states = Oracle.Reference.simulate m ~theta0:!theta p in
    theta := states.(Array.length states - 1)
  done;
  Alcotest.(check bool) "(I-K)^-1 formula equals brute-force repetition" true
    (Vec.approx_equal ~tol:1e-7 theta_star !theta)

let test_matex_constant_profile_stable_is_steady () =
  let m = model3 () in
  let psi = psi_vec [| 1.0; 1.0; 1.0 |] in
  let p = [ { Matex.duration = 0.5; psi } ] in
  Alcotest.(check bool) "stable status of constant profile = T^inf" true
    (Vec.approx_equal ~tol:1e-9 (Model.theta_inf m psi) (Matex.stable_start m p))

let test_matex_peak_scan_at_least_boundaries () =
  let m = model3 () in
  let p = two_mode_profile ~d1:0.2 ~v1:[| 1.3; 0.6; 0.6 |] ~d2:0.2 ~v2:[| 0.6; 0.6; 1.3 |] in
  (* Hottest core over the stable-status segment boundaries, walked with
     the modal primitives the scan itself advances by. *)
  let eng = Modal.make m in
  let z = Array.copy (Modal.stable eng ~t_p:(Matex.period p) (Matex.spans p)) in
  let boundary_peak =
    List.fold_left
      (fun best (s : Matex.segment) ->
        let _, temp =
          Modal.sample_segment eng ~dt:s.duration ~samples:1 ~eq:(Modal.z_inf eng s.psi)
            ~walker:z
        in
        Float.max best temp)
      (Modal.max_core_temp eng z) p
  in
  Alcotest.(check bool) "scan >= boundary peak" true
    (Sched.Peak.profile_scan_peak (Thermal.Backend.of_modal eng) p
    >= boundary_peak -. 1e-12)

let test_matex_interior_peak_found () =
  (* Hot interval first, then a long cool-down: the true peak is at the
     first (interior) boundary, far above the end-of-period temperature. *)
  let m = model3 () in
  let p = two_mode_profile ~d1:0.5 ~v1:[| 1.3; 0.6; 0.6 |] ~d2:0.5 ~v2:[| 0.6; 0.6; 0.6 |] in
  let scan = Sched.Peak.profile_scan_peak (Thermal.Backend.of_model m) p in
  let end_peak = Sched.Peak.profile_end_peak (Thermal.Backend.of_model m) p in
  Alcotest.(check bool) "non-step-up: scan strictly above end-of-period" true
    (scan > end_peak +. 0.5)

(* A tolerance the bracket width can never fall below must be rejected
   up front: the search would otherwise never return. *)
let test_golden_max_tolerance () =
  let f x = -.((x -. 0.3) ** 2.) in
  Alcotest.(check (float 1e-6)) "finds the maximum" 0. (Matex.golden_max f 0. 1. 1e-6);
  List.iter
    (fun (what, tol) ->
      Alcotest.check_raises (what ^ " tolerance rejected")
        (Invalid_argument "Matex.golden_max: tolerance must be finite and positive")
        (fun () -> ignore (Matex.golden_max f 0. 1. tol : float)))
    [ ("zero", 0.); ("negative", -1e-4); ("NaN", Float.nan); ("infinite", infinity) ]

let test_matex_validation () =
  let m = model3 () in
  let resp = Thermal.Sparse_response.of_spec (Thermal.Spec.of_model m) in
  (* Every engine validates its profiles through Matex.validate, so the
     dense and sparse evaluators reject the same inputs with the same
     messages. *)
  let engines =
    [
      ("dense", fun p -> ignore (Matex.stable_start m p));
      ( "sparse",
        fun p ->
          ignore (Sched.Peak.profile_end_peak (Thermal.Backend.of_response resp) p) );
      ( "response",
        fun p ->
          ignore (Sched.Peak.profile_scan_peak (Thermal.Backend.of_response resp) p) );
    ]
  in
  Alcotest.check_raises "empty profile" (Invalid_argument "Matex: empty profile")
    (fun () -> Matex.validate (Model.n_cores m) []);
  Alcotest.(check bool) "wrong arity rejected" true
    (match Matex.validate (Model.n_cores m) [ { Matex.duration = 1.; psi = [| 1. |] } ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  List.iter
    (fun (name, eval) ->
      Alcotest.check_raises (name ^ " empty profile")
        (Invalid_argument "Matex: empty profile") (fun () -> eval []);
      Alcotest.check_raises (name ^ " wrong arity")
        (Invalid_argument "Matex: segment 0 power vector has arity 1, expected 3")
        (fun () -> eval [ { Matex.duration = 1.; psi = [| 1. |] } ]);
      Alcotest.check_raises (name ^ " non-positive duration")
        (Invalid_argument "Matex: segment 1 has non-positive duration")
        (fun () ->
          eval
            [
              { Matex.duration = 1.; psi = psi_vec [| 1.; 1.; 1. |] };
              { Matex.duration = 0.; psi = psi_vec [| 1.; 1.; 1. |] };
            ]);
      (* A NaN duration or power must not read as the coolest peak. *)
      Alcotest.check_raises (name ^ " NaN duration")
        (Invalid_argument "Matex: segment 0 has non-finite duration")
        (fun () -> eval [ { Matex.duration = nan; psi = psi_vec [| 1.; 1.; 1. |] } ]);
      Alcotest.check_raises (name ^ " NaN power")
        (Invalid_argument "Matex: segment 0 has a non-finite power")
        (fun () -> eval [ { Matex.duration = 1.; psi = [| 1.; nan; 1. |] } ]))
    engines;
  (* The profile evaluators validate the same way: a NaN duration or
     power is rejected, not priced as a -inf peak. *)
  let end_peak = Sched.Peak.profile_end_peak (Thermal.Backend.of_model m) in
  Alcotest.check_raises "end peak NaN duration"
    (Invalid_argument "Matex: segment 0 has non-finite duration")
    (fun () -> ignore (end_peak [ { Matex.duration = nan; psi = psi_vec [| 1.; 1.; 1. |] } ]));
  Alcotest.check_raises "end peak NaN power"
    (Invalid_argument "Matex: segment 0 has a non-finite power")
    (fun () -> ignore (end_peak [ { Matex.duration = 1.; psi = [| 1.; nan; 1. |] } ]));
  (* The sparse backend rejects a sample count below 1 for the in-period
     walks, as the dense one does, instead of scanning with an infinite
     sub-step. *)
  let s =
    Sched.Schedule.two_mode ~period:0.1 ~low:[| 0.6; 0.6; 0.6 |]
      ~high:[| 1.3; 1.3; 1.3 |] ~high_ratio:[| 0.4; 0.5; 0.6 |]
  in
  let b = Thermal.Backend.of_response resp and pm = Power.Power_model.default in
  let rejected f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "sparse scan rejects 0 samples" true
    (rejected (fun () -> Sched.Peak.of_any b pm ~samples_per_segment:0 s));
  Alcotest.(check bool) "sparse refined rejects 0 samples" true
    (rejected (fun () -> Sched.Peak.of_any_refined b pm ~samples_per_segment:0 s))

let test_matex_trace_continuity () =
  let m = model3 () in
  let p = two_mode_profile ~d1:0.05 ~v1:[| 1.3; 1.3; 1.3 |] ~d2:0.05 ~v2:[| 0.6; 0.6; 0.6 |] in
  let trace = Matex.stable_core_trace m ~samples_per_segment:8 p in
  Alcotest.(check int) "sample count" 17 (Array.length trace);
  let t_last, temps_last = trace.(Array.length trace - 1) in
  let _, temps_first = trace.(0) in
  check_close 1e-9 "covers the period" 0.1 t_last;
  Alcotest.(check bool) "periodic continuity" true
    (Vec.approx_equal ~tol:1e-9 temps_first temps_last)

let test_time_to_threshold_crossing () =
  let m = model3 () in
  let profile = [ { Matex.duration = 0.05; psi = psi_vec [| 1.3; 1.3; 1.3 |] } ] in
  match Matex.time_to_threshold m ~threshold:60. profile with
  | None -> Alcotest.fail "all-high from ambient must cross 60C"
  | Some t ->
      (* Cross-check against a dense transient simulation. *)
      let trace = Thermal.Trace.from_ambient m ~periods:40 ~samples_per_segment:64 profile in
      let first_above =
        Array.to_seq trace
        |> Seq.filter (fun s -> Vec.max s.Thermal.Trace.core_temps >= 60.)
        |> Seq.uncons
      in
      (match first_above with
      | Some (s, _) ->
          Alcotest.(check bool) "matches dense simulation" true
            (Float.abs (t -. s.Thermal.Trace.time) < 2. *. (0.05 /. 64.))
      | None -> Alcotest.fail "dense simulation should cross too");
      Alcotest.(check bool) "positive crossing time" true (t > 0.)

let test_time_to_threshold_never () =
  let m = model3 () in
  let profile = [ { Matex.duration = 0.05; psi = psi_vec [| 0.6; 0.6; 0.6 |] } ] in
  Alcotest.(check bool) "all-low never reaches 60C" true
    (Option.is_none
       (Matex.time_to_threshold m ~max_periods:200 ~threshold:60. profile))

let test_time_to_threshold_immediate () =
  let m = model3 () in
  let profile = [ { Matex.duration = 0.05; psi = psi_vec [| 1.3; 1.3; 1.3 |] } ] in
  let hot_start = Vec.create 3 40. in
  Alcotest.(check (option (float 1e-12))) "already above" (Some 0.)
    (Matex.time_to_threshold m ~theta0:hot_start ~threshold:60. profile)

let test_time_to_threshold_monotone_in_threshold () =
  let m = model3 () in
  let profile = [ { Matex.duration = 0.05; psi = psi_vec [| 1.3; 1.3; 1.3 |] } ] in
  let t1 = Option.get (Matex.time_to_threshold m ~threshold:50. profile) in
  let t2 = Option.get (Matex.time_to_threshold m ~threshold:65. profile) in
  Alcotest.(check bool) "higher threshold takes longer" true (t2 > t1)

let test_mission_peak () =
  let m = model3 () in
  (* Boot (low) -> burst (high) -> settle (low): the mission peak is at
     the end of the burst, strictly above both endpoints. *)
  let mission =
    [
      { Matex.duration = 0.2; psi = psi_vec [| 0.6; 0.6; 0.6 |] };
      { Matex.duration = 0.3; psi = psi_vec [| 1.3; 1.3; 1.3 |] };
      { Matex.duration = 0.5; psi = psi_vec [| 0.6; 0.6; 0.6 |] };
    ]
  in
  let peak, final = Matex.mission_peak m mission in
  (* Cross-check against the burst-end temperature computed directly. *)
  let after_boot =
    Oracle.Reference.step m ~dt:0.2 ~theta:(Vec.zeros 3) ~psi:(psi_vec [| 0.6; 0.6; 0.6 |])
  in
  let after_burst =
    Oracle.Reference.step m ~dt:0.3 ~theta:after_boot ~psi:(psi_vec [| 1.3; 1.3; 1.3 |])
  in
  check_close 1e-6 "peak at end of burst" (Model.max_core_temp m after_burst) peak;
  Alcotest.(check bool) "settled below the peak" true
    (Model.max_core_temp m final < peak -. 5.)

(* ---------------------------------------------------------------- trace *)

let test_trace_from_ambient_monotone_warmup () =
  let m = model3 () in
  let p = [ { Matex.duration = 0.1; psi = psi_vec [| 1.3; 1.3; 1.3 |] } ] in
  let samples = Thermal.Trace.from_ambient m ~periods:5 ~samples_per_segment:4 p in
  Alcotest.(check int) "sample count" 21 (Array.length samples);
  check_close 1e-9 "starts at ambient" 35. samples.(0).Thermal.Trace.core_temps.(0);
  let ok = ref true in
  for i = 1 to Array.length samples - 1 do
    if
      not
        (Vec.leq
           samples.(i - 1).Thermal.Trace.core_temps
           (Vec.add samples.(i).Thermal.Trace.core_temps (Vec.create 3 1e-9)))
    then ok := false
  done;
  Alcotest.(check bool) "monotone warm-up" true !ok

let test_trace_periods_to_stable () =
  let m = model3 () in
  let p = [ { Matex.duration = 0.1; psi = psi_vec [| 1.3; 0.6; 1.3 |] } ] in
  let n = Thermal.Trace.periods_to_stable m ~tol:1e-6 p in
  Alcotest.(check bool) "finite warm-up" true (n > 1 && n < 1000)

let test_trace_peak () =
  let samples =
    [|
      { Thermal.Trace.time = 0.; core_temps = [| 35.; 36. |] };
      { Thermal.Trace.time = 1.; core_temps = [| 40.; 40.5 |] };
    |]
  in
  check_close 1e-12 "peak over trace" 40.5 (Thermal.Trace.peak samples)

let () =
  Alcotest.run "thermal"
    [
      ( "floorplan",
        [
          Alcotest.test_case "grid geometry" `Quick test_grid_geometry;
          Alcotest.test_case "shared edges" `Quick test_shared_edges;
          Alcotest.test_case "exposed perimeter" `Quick test_exposed_perimeter;
          Alcotest.test_case "2d adjacency" `Quick test_grid_2d_adjacency;
          Alcotest.test_case "3d overlap" `Quick test_stack3d_overlap;
          Alcotest.test_case "invalid grid" `Quick test_grid_invalid;
        ] );
      ( "rc_network",
        [
          Alcotest.test_case "matrix assembly" `Quick test_rc_matrix_assembly;
          Alcotest.test_case "parallel edges accumulate" `Quick test_rc_accumulating_edges;
          Alcotest.test_case "input validation" `Quick test_rc_rejects_bad_input;
        ] );
      ( "model",
        [
          Alcotest.test_case "eigenvalues negative" `Quick test_model_eigenvalues_negative;
          Alcotest.test_case "steady-state balance" `Quick test_model_steady_state_balance;
          Alcotest.test_case "propagator semigroup" `Quick test_model_propagator_semigroup;
          Alcotest.test_case "propagator = expm" `Quick test_model_propagator_matches_expm;
          Alcotest.test_case "step matches RK4" `Quick test_model_step_matches_rk4;
          Alcotest.test_case "monotone coupling" `Quick test_model_hotter_neighbours;
          Alcotest.test_case "middle core hottest" `Quick test_model_middle_core_hottest;
          Alcotest.test_case "Property 1 cooling" `Quick test_model_property1_cooling;
          Alcotest.test_case "uniform temp solve" `Quick test_model_solve_uniform_temp_roundtrip;
          Alcotest.test_case "mixed solve" `Quick test_model_solve_mixed;
          Alcotest.test_case "runaway rejected" `Quick test_model_runaway_rejected;
          Alcotest.test_case "layered variant" `Quick test_layered_model_close_to_core_level;
          Alcotest.test_case "3d stacking penalty" `Quick test_3d_upper_layer_hotter;
          Alcotest.test_case "integrate_theta quadrature" `Quick
            test_model_integrate_theta_matches_quadrature;
          Alcotest.test_case "integrate_theta steady" `Quick test_model_integrate_theta_steady;
        ] );
      ( "grid_model",
        [
          Alcotest.test_case "matches block level" `Quick test_grid_model_matches_block_level;
          Alcotest.test_case "intra-core gradient" `Quick test_grid_model_shows_gradient;
          Alcotest.test_case "periodic profile" `Quick test_grid_model_profile_roundtrip;
          Alcotest.test_case "validation" `Quick test_grid_model_validation;
        ] );
      ( "matex",
        [
          Alcotest.test_case "period" `Quick test_matex_period;
          Alcotest.test_case "simulate boundaries" `Quick test_matex_simulate_boundaries;
          Alcotest.test_case "stable start fixed point" `Quick test_matex_stable_start_is_fixed_point;
          Alcotest.test_case "stable = long simulation" `Quick test_matex_stable_matches_long_simulation;
          Alcotest.test_case "constant profile" `Quick test_matex_constant_profile_stable_is_steady;
          Alcotest.test_case "scan >= boundaries" `Quick test_matex_peak_scan_at_least_boundaries;
          Alcotest.test_case "interior peak found" `Quick test_matex_interior_peak_found;
          Alcotest.test_case "validation" `Quick test_matex_validation;
          Alcotest.test_case "golden_max tolerance" `Quick test_golden_max_tolerance;
          Alcotest.test_case "trace continuity" `Quick test_matex_trace_continuity;
        ] );
      ( "time_to_threshold",
        [
          Alcotest.test_case "crossing" `Quick test_time_to_threshold_crossing;
          Alcotest.test_case "never crosses" `Quick test_time_to_threshold_never;
          Alcotest.test_case "immediate" `Quick test_time_to_threshold_immediate;
          Alcotest.test_case "monotone" `Quick test_time_to_threshold_monotone_in_threshold;
        ] );
      ( "mission",
        [ Alcotest.test_case "boot-burst-settle" `Quick test_mission_peak ] );
      ( "trace",
        [
          Alcotest.test_case "monotone warm-up" `Quick test_trace_from_ambient_monotone_warmup;
          Alcotest.test_case "periods to stable" `Quick test_trace_periods_to_stable;
          Alcotest.test_case "trace peak" `Quick test_trace_peak;
        ] );
    ]
