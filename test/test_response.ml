(* Differential tests for the linear-response superposition engine: the
   unit-response tables, the streaming stable-status path and the
   constant-voltage superposition must agree with the LU-backed
   reference evaluators to <= 1e-9 on random platforms, and the
   per-domain scratch must neither contend (pool sizes 1 and 4 give
   bit-identical answers) nor cross-contaminate between engines. *)

module Vec = Linalg.Vec
module Model = Thermal.Model
module Modal = Thermal.Modal
module Matex = Thermal.Matex

let model_a =
  Thermal.Hotspot.core_level
    (Thermal.Floorplan.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)

let model_b =
  Thermal.Hotspot.core_level ~ambient:45.
    (Thermal.Floorplan.grid ~rows:2 ~cols:2 ~core_width:3e-3 ~core_height:3e-3)

let seed_gen = QCheck.(make Gen.(int_range 0 1_000_000))

(* A random small platform: varied geometry AND varied ambient,
   including ambients below 0 C (negative ambient offsets) — the
   superposition folds the leakage drive beta*T_amb into every
   coefficient, so ambient handling is exactly what this suite must
   stress. *)
let random_model rng =
  let rows = 1 + Random.State.int rng 2 in
  let cols = 1 + Random.State.int rng 3 in
  let ambient = -10. +. Random.State.float rng 70. in
  let leak_beta = Random.State.float rng 0.1 in
  Thermal.Hotspot.core_level ~ambient ~leak_beta
    (Thermal.Floorplan.grid ~rows ~cols ~core_width:4e-3 ~core_height:4e-3)

(* Random power vector with deliberate zeros (inactive cores). *)
let random_psi rng n =
  Array.init n (fun _ ->
      if Random.State.float rng 1. < 0.3 then 0.
      else Random.State.float rng 20.)

let random_profile rng model =
  let n = Model.n_cores model in
  let n_segs = 1 + Random.State.int rng 6 in
  List.init n_segs (fun _ ->
      {
        Thermal.Matex.duration = 0.01 +. Random.State.float rng 0.5;
        psi = random_psi rng n;
      })

(* The production end-of-period peak: the profile streamed through the
   model's dense backend. *)
let end_peak model profile =
  Sched.Peak.profile_end_peak (Thermal.Backend.of_model model) profile

(* ------------------------------------------- superposition vs LU path *)

let prop_z_inf_matches_lu =
  QCheck.Test.make ~name:"z_inf superposition = W^-1 theta_inf (LU)"
    ~count:100 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = random_model rng in
      let eng = Modal.make model in
      let psi = random_psi rng (Model.n_cores model) in
      let superposed = Modal.z_inf eng psi in
      let lu = Modal.to_modal eng (Model.theta_inf model psi) in
      Vec.dist_inf superposed lu <= 1e-9)

let prop_steady_peak_matches_lu =
  QCheck.Test.make ~name:"steady_peak superposition = max steady_core_temps (LU)"
    ~count:100 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = random_model rng in
      let eng = Modal.make model in
      let psi = random_psi rng (Model.n_cores model) in
      Float.abs
        (Modal.steady_peak eng psi -. Vec.max (Model.steady_core_temps model psi))
      <= 1e-9)

let prop_streamed_stable_matches_lu =
  QCheck.Test.make ~name:"streamed stable status = Reference.stable_start (LU)"
    ~count:60 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = random_model rng in
      let profile = random_profile rng model in
      let streamed =
        Sched.Peak.profile_end_core_temps (Thermal.Backend.of_model model) profile
      in
      let reference =
        Model.core_temps_of_theta model (Oracle.Reference.stable_start model profile)
      in
      Vec.dist_inf streamed reference <= 1e-9)

let prop_end_of_period_peak_matches_lu =
  QCheck.Test.make ~name:"end_of_period_peak = LU stable-start peak"
    ~count:60 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = random_model rng in
      let profile = random_profile rng model in
      let streamed = end_peak model profile in
      let reference =
        Model.max_core_temp model (Oracle.Reference.stable_start model profile)
      in
      Float.abs (streamed -. reference) <= 1e-9)

(* ---------------------------------------------- pool-size invariance *)

(* The stable status keeps all its state in per-domain scratch; fanning
   a batch of candidates across pools of different sizes must return
   bit-identical floats in index order. *)
let test_pool_size_invariance () =
  let rng = Random.State.make [| 2024 |] in
  let profiles = Array.init 24 (fun _ -> random_profile rng model_a) in
  let eval pool =
    Util.Pool.init ~pool (Array.length profiles) (fun i ->
        end_peak model_a profiles.(i))
  in
  let p1 = Util.Pool.create ~size:1 () in
  let p4 = Util.Pool.create ~size:4 () in
  let r1 = eval p1 and r4 = eval p4 in
  Array.iteri
    (fun i v1 ->
      Alcotest.(check bool)
        (Printf.sprintf "candidate %d bit-identical at pool sizes 1 and 4" i)
        true
        (Int64.bits_of_float v1 = Int64.bits_of_float r4.(i)))
    r1

(* ----------------------------------------------- engine independence *)

(* Complete evaluations on another engine, run inside one engine's span
   iterator between its feeds, must not disturb it: each engine owns its
   per-domain scratch. *)
let test_no_cross_contamination () =
  let rng = Random.State.make [| 7 |] in
  let profile_a = random_profile rng model_a in
  let profile_b = random_profile rng model_b in
  let eng_a = Modal.make model_a in
  let expected_a = end_peak model_a profile_a in
  (* Feed profile_a by hand, running complete evaluations on model_b
     inside the span iterator, before every feed. *)
  let interleaved =
    Modal.max_core_temp eng_a
      (Modal.stable eng_a ~t_p:(Matex.period profile_a) (fun feed ->
           List.iter
             (fun (s : Matex.segment) ->
               ignore (end_peak model_b profile_b);
               feed ~duration:s.duration ~psi:s.psi)
             profile_a))
  in
  Alcotest.(check bool) "interleaved streaming bit-identical" true
    (Int64.bits_of_float interleaved = Int64.bits_of_float expected_a);
  (* And the other platform still answers correctly afterwards. *)
  let b_now = end_peak model_b profile_b in
  let b_ref =
    Model.max_core_temp model_b (Oracle.Reference.stable_start model_b profile_b)
  in
  Alcotest.(check bool) "other platform undisturbed" true
    (Float.abs (b_now -. b_ref) <= 1e-9)

(* Engines over one model share this domain's decay/gain rows; an
   engine over another model with the same node count maps its
   durations to the same slots but never reads those rows.  Interleaved
   answers must equal a table-free evaluation bit for bit. *)
let test_shared_memo_isolation () =
  let model_c =
    Thermal.Hotspot.core_level
      (Thermal.Floorplan.grid ~rows:1 ~cols:3 ~core_width:3e-3 ~core_height:5e-3)
  in
  Alcotest.(check int) "same node count" (Model.n_nodes model_a) (Model.n_nodes model_c);
  let a1 = Modal.make model_a and a2 = Modal.make model_a and c = Modal.make model_c in
  let rng = Random.State.make [| 3 |] in
  (* One duration set for every profile, so all three engines hit the
     same slots. *)
  let durations = [ 0.013; 0.2; 0.057; 0.31 ] in
  let profiles =
    List.init 6 (fun _ ->
        List.map
          (fun duration -> { Matex.duration; psi = random_psi rng 3 })
          durations)
  in
  let streamed eng profile =
    Sched.Peak.profile_end_peak (Thermal.Backend.of_modal eng) profile
  in
  let table_free eng profile =
    (* Every decay/gain factor computed fresh, bypassing the table: one
       period from the zero state, then the per-mode division. *)
    let lambda = Modal.eigenvalues eng in
    let d = Array.make (Array.length lambda) 0. in
    List.iter
      (fun (s : Matex.segment) ->
        let z_eq = Modal.z_inf eng s.psi in
        Array.iteri
          (fun j l ->
            d.(j) <-
              (exp (l *. s.duration) *. d.(j))
              +. (-.Float.expm1 (l *. s.duration) *. z_eq.(j)))
          lambda)
      profile;
    let t_p = Matex.period profile in
    Modal.max_core_temp eng
      (Array.mapi (fun j l -> d.(j) /. -.Float.expm1 (l *. t_p)) lambda)
  in
  List.iteri
    (fun i profile ->
      List.iter
        (fun (name, eng) ->
          Alcotest.(check int64)
            (Printf.sprintf "%s, profile %d" name i)
            (Int64.bits_of_float (table_free eng profile))
            (Int64.bits_of_float (streamed eng profile)))
        [ ("a1", a1); ("a2", a2); ("c", c) ])
    profiles;
  Alcotest.(check bool) "a2 reuses a1's rows" true
    ((Modal.stats a2).Modal.exp_hits > 0)

(* ------------------------------------------------- scratch lifetime *)

(* Run [f] once on every domain of [pool]: one task per participant,
   each waiting until all have started, so no participant takes two. *)
let on_every_domain pool f =
  let size = Util.Pool.size pool in
  let started = Atomic.make 0 in
  ignore
    (Util.Pool.init ~pool ~chunk:1 size (fun _ ->
         Atomic.incr started;
         while Atomic.get started < size do
           Domain.cpu_relax ()
         done;
         f ())
      : unit array)

let live_mb () =
  Gc.compact ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* Engine scratch belongs to the engine: building many engines over
   distinct models, using each on every domain and dropping them leaves
   the live heap where it was. *)
let test_scratch_dies_with_engine () =
  let pool = Util.Pool.create ~size:4 () in
  let rng = Random.State.make [| 5 |] in
  let batch ~modal ~sparse =
    let jobs =
      List.init (modal + sparse) (fun i ->
          let model =
            Thermal.Hotspot.core_level ~ambient:(Random.State.float rng 60.)
              (Thermal.Floorplan.grid ~rows:1 ~cols:(1 + Random.State.int rng 2)
                 ~core_width:4e-3 ~core_height:4e-3)
          in
          let b =
            if i < modal then Thermal.Backend.of_modal (Modal.make model)
            else
              Thermal.Backend.of_response
                (Thermal.Sparse_response.of_spec ~pool (Thermal.Spec.of_model model))
          in
          (b, random_profile rng model))
    in
    on_every_domain pool (fun () ->
        List.iter (fun (b, p) -> ignore (Sched.Peak.profile_end_peak b p : float)) jobs)
  in
  batch ~modal:10 ~sparse:2;
  let before = live_mb () in
  for k = 1 to 20 do
    batch ~modal:50 ~sparse:(if k <= 5 then 10 else 0)
  done;
  let grown = live_mb () -. before in
  Util.Pool.shutdown pool;
  Alcotest.(check bool)
    (Printf.sprintf "live heap grew %.2f MB over 1000 dense and 50 sparse engines" grown)
    true (grown < 5.)

(* -------------------------------------------------- stats observability *)

let test_stats_observable () =
  let eng = Modal.make model_a in
  let b = Thermal.Backend.of_modal eng in
  let before = Modal.stats eng in
  Alcotest.(check bool) "at least one engine built" true (before.Modal.builds >= 1);
  let rng = Random.State.make [| 11 |] in
  let profile = random_profile rng model_a in
  ignore (Sched.Peak.profile_end_peak b profile);
  let mid = Modal.stats eng in
  Alcotest.(check bool) "superposition evaluations counted" true
    (mid.Modal.superpose_evals > before.Modal.superpose_evals);
  (* Re-evaluating the same profile reuses the same durations: every
     decay/gain lookup after the first pass hits the table. *)
  ignore (Sched.Peak.profile_end_peak b profile);
  let after = Modal.stats eng in
  Alcotest.(check bool) "decay-table hits grow on repeated durations" true
    (after.Modal.exp_hits > mid.Modal.exp_hits);
  Alcotest.(check bool) "no new decay-table misses for repeated durations" true
    (after.Modal.exp_misses = mid.Modal.exp_misses)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "response"
    [
      qsuite "superposition vs LU"
        [
          prop_z_inf_matches_lu;
          prop_steady_peak_matches_lu;
          prop_streamed_stable_matches_lu;
          prop_end_of_period_peak_matches_lu;
        ];
      ( "domains",
        [
          Alcotest.test_case "pool sizes 1 and 4 bit-identical" `Quick
            test_pool_size_invariance;
          Alcotest.test_case "no cross-contamination" `Quick
            test_no_cross_contamination;
          Alcotest.test_case "shared decay memo isolation" `Quick
            test_shared_memo_isolation;
          Alcotest.test_case "scratch dies with its engine" `Quick
            test_scratch_dies_with_engine;
        ] );
      ( "stats",
        [ Alcotest.test_case "counters observable" `Quick test_stats_observable ] );
    ]
