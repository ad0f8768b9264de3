(* Differential tests for the sparse engine and the two-tier ROM
   screening path: superposed equilibria, steps and streamed stable
   statuses must agree with the dense per-candidate solves (Model,
   Matex, the reference propagator) to <= 1e-9 at n <= 27, the
   measured-state correction must move core readings and nothing else
   on either backend, per-domain scratch must neither contend (pool
   sizes 1 and 4 bit-identical) nor cross-contaminate between engines,
   and a screened search with a sound margin must return exactly the
   exhaustive exact search's answer. *)

module Vec = Linalg.Vec
module Model = Thermal.Model
module Resp = Thermal.Sparse_response
module Reduced = Thermal.Reduced
module Matex = Thermal.Matex

let seed_gen = QCheck.(make Gen.(int_range 0 1_000_000))

(* Random small layered platform (die and spreader nodes per core plus
   a shared sink: at most 13 nodes on 2x3 cores), so off-core nodes
   exist, with varied ambient and leakage so the beta*T_amb fold into
   the unit responses is stressed. *)
let random_model rng =
  let rows = 1 + Random.State.int rng 2 in
  let cols = 1 + Random.State.int rng 3 in
  let ambient = -10. +. Random.State.float rng 70. in
  let leak_beta = Random.State.float rng 0.1 in
  Thermal.Hotspot.layered ~ambient ~leak_beta
    (Thermal.Floorplan.grid ~rows ~cols ~core_width:4e-3 ~core_height:4e-3)

let random_psi rng n =
  Array.init n (fun _ ->
      if Random.State.float rng 1. < 0.3 then 0.
      else Random.State.float rng 20.)

let random_profile rng n =
  let n_segs = 1 + Random.State.int rng 6 in
  List.init n_segs (fun _ ->
      {
        Thermal.Matex.duration = 0.01 +. Random.State.float rng 0.5;
        psi = random_psi rng n;
      })

let engine_of model = Resp.of_spec (Thermal.Spec.of_model model)

(* Node-space ambient-relative temperatures of a sparse state, which is
   symmetrized: y = C^{1/2} theta. *)
let to_theta model y = Vec.mul (Vec.map (fun c -> 1. /. sqrt c) (Model.capacitance model)) y

(* The production period-boundary answers on a response engine: whole
   profiles streamed through [Backend.of_response] by [Sched.Peak]. *)
let end_peak resp profile =
  Sched.Peak.profile_end_peak (Thermal.Backend.of_response resp) profile

(* The stable state itself, read off the same engine call. *)
let stable_state resp profile =
  Resp.stable resp ~t_p:(Matex.period profile) (Matex.spans profile)

(* ------------------------------------- superposition vs dense solves *)

let prop_steady_superposition_matches_dense =
  QCheck.Test.make ~name:"superposed steady temps = per-candidate dense solve"
    ~count:60 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = random_model rng in
      let resp = engine_of model in
      let nc = Model.n_cores model in
      let psi = random_psi rng nc in
      let rel = Vec.zeros nc in
      Resp.steady_core_into resp rel ~pos:0 psi;
      let dense = Model.steady_core_temps model psi in
      Vec.dist_inf (Vec.map (fun x -> x +. Model.ambient model) rel) dense <= 1e-9
      && Float.abs (Resp.steady_peak resp psi -. Vec.max dense) <= 1e-9)

let prop_y_inf_matches_dense_steady_state =
  QCheck.Test.make ~name:"superposed y_inf = dense steady state" ~count:60
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = random_model rng in
      let resp = engine_of model in
      let psi = random_psi rng (Model.n_cores model) in
      let y = Vec.zeros (Model.n_nodes model) in
      Resp.y_inf_into resp y psi;
      Vec.dist_inf (to_theta model y) (Model.theta_inf model psi) <= 1e-9)

let prop_streaming_stable_matches_dense =
  QCheck.Test.make
    ~name:"streamed stable status/peaks = Matex and dense scans"
    ~count:40 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = random_model rng in
      let resp = engine_of model in
      let profile = random_profile rng (Model.n_cores model) in
      let dense = Thermal.Backend.of_model model
      and sparse = Thermal.Backend.of_response resp in
      let scan b = Sched.Peak.profile_scan_peak b profile
      and refined b = Sched.Peak.profile_refined_peak b profile in
      Vec.dist_inf (to_theta model (stable_state resp profile))
        (Matex.stable_start model profile)
      <= 1e-9
      && Float.abs (end_peak resp profile -. Sched.Peak.profile_end_peak dense profile)
         <= 1e-9
      && Float.abs (scan sparse -. scan dense) <= 1e-9
      && Float.abs (refined sparse -. refined dense) <= 1e-9)

let prop_step_matches_reference =
  QCheck.Test.make ~name:"superposed step = Reference.step" ~count:60
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = random_model rng in
      let resp = engine_of model in
      let n = Model.n_nodes model and nc = Model.n_cores model in
      let psi = random_psi rng nc in
      let state = Vec.zeros n and next = Vec.zeros n in
      Resp.step_into resp ~dt:(0.01 +. Random.State.float rng 0.2)
        ~state:(Resp.ambient_state resp) ~psi:(random_psi rng nc) ~dst:state;
      let dt = 0.01 +. Random.State.float rng 0.3 in
      Resp.step_into resp ~dt ~state ~psi ~dst:next;
      Vec.dist_inf (to_theta model next)
        (Oracle.Reference.step model ~dt ~theta:(to_theta model state) ~psi)
      <= 1e-9)

(* ------------------------------------------ measured-state correction *)

(* The observers' restart hook on both backends: after [correct_cores],
   every core reads its old temperature plus its delta, and on the
   sparse backend (node coordinates) no off-core entry moves a bit —
   the spreaders and the shared sink of the layered platforms. *)
let prop_correct_cores =
  QCheck.Test.make ~name:"correct_cores moves core readings only" ~count:40
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = random_model rng in
      let nc = Model.n_cores model in
      let core = Array.make (Model.n_nodes model) false in
      Array.iter (fun i -> core.(i) <- true) (Model.core_nodes model);
      let steps = List.init 3 (fun _ -> (0.01 +. Random.State.float rng 0.3, random_psi rng nc)) in
      let deltas = Array.init nc (fun _ -> Random.State.float rng 10. -. 5.) in
      List.for_all
        (fun (b : Thermal.Backend.t) ->
          let state = ref (b.ambient_state ()) in
          List.iter
            (fun (dt, psi) ->
              let dst = b.ambient_state () in
              b.step_into ~dt ~state:!state ~psi ~dst;
              state := dst)
            steps;
          let state = !state in
          let before = b.core_temps state and old = Array.copy state in
          b.correct_cores ~state ~deltas;
          Vec.dist_inf (b.core_temps state) (Vec.add before deltas) <= 1e-12
          && (b.name <> "sparse-response"
             || Array.for_all Fun.id
                  (Array.mapi
                     (fun i x -> core.(i) || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float old.(i)))
                     state)))
        [ Thermal.Backend.of_model model; Thermal.Backend.of_response (engine_of model) ])

(* --------------------------------------------- scratch isolation *)

let model27 =
  Thermal.Hotspot.core_level
    (Thermal.Floorplan.grid ~rows:3 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)

(* The same batch of streamed evaluations must come back bit-identical
   at pool sizes 1 and 4: per-domain scratch means workers never share
   partial sums, and index-ordered results mean the comparison is
   positional.  Each profile is priced three ways: its exact end peak,
   and on the ROM backend (whose stable status folds into the
   reduction's own per-domain scratch) a fused two-mode score and a
   16-sample scan. *)
let test_pool_size_determinism () =
  let rng = Random.State.make [| 42 |] in
  let resp = engine_of model27 in
  let rom = Thermal.Backend.of_reduced (Reduced.of_response resp) in
  let nc = Resp.n_cores resp in
  let pm = Power.Power_model.default in
  let profiles = Array.init 24 (fun _ -> random_profile rng nc) in
  let two_modes =
    Array.init 24 (fun _ ->
        let low = Array.init nc (fun _ -> 0.6 +. Random.State.float rng 0.4) in
        ( 0.02 +. Random.State.float rng 0.3,
          low,
          Array.map (fun v -> v +. Random.State.float rng 0.7) low,
          Array.init nc (fun _ -> Random.State.float rng 1.) ))
  in
  let scores i =
    let period, low, high, high_ratio = two_modes.(i) in
    [
      ("end peak", end_peak resp profiles.(i));
      ( "ROM two-mode score",
        Sched.Peak.of_two_mode rom pm ~period ~low ~high ~high_ratio );
      ( "ROM 16-sample scan",
        Sched.Peak.profile_scan_peak rom ~samples_per_segment:16 profiles.(i) );
    ]
  in
  let run pool_size =
    let pool = Util.Pool.create ~size:pool_size () in
    let out = Util.Pool.init ~pool (Array.length profiles) scores in
    Util.Pool.shutdown pool;
    out
  in
  let seq = run 1 and par = run 4 in
  Array.iteri
    (fun i row ->
      List.iter2
        (fun (what, a) (_, b) ->
          Alcotest.(check int64)
            (Printf.sprintf "%s %d bit-identical at pool sizes 1 and 4" what i)
            (Int64.bits_of_float a) (Int64.bits_of_float b))
        row par.(i))
    seq

(* Two engines evaluated interleaved on one domain: each engine owns its
   per-domain scratch, so feeds never leak across. *)
let test_scratch_cross_engine_isolation () =
  let rng = Random.State.make [| 7 |] in
  let model_b =
    Thermal.Hotspot.core_level ~ambient:45.
      (Thermal.Floorplan.grid ~rows:2 ~cols:2 ~core_width:3e-3 ~core_height:3e-3)
  in
  let ra = engine_of model27 and rb = engine_of model_b in
  let pa = random_profile rng (Resp.n_cores ra) in
  let pb = random_profile rng (Resp.n_cores rb) in
  let expect_a = end_peak ra pa in
  let expect_b = end_peak rb pb in
  (* Interleave by hand: engine B's complete stable status runs inside
     engine A's span iterator, after every feed. *)
  let zb = ref [||] in
  let za =
    Resp.stable ra ~t_p:(Matex.period pa) (fun feed ->
        List.iter
          (fun (s : Matex.segment) ->
            feed ~duration:s.duration ~psi:s.psi;
            zb := stable_state rb pb)
          pa)
  in
  let zb = !zb in
  Alcotest.(check bool) "engine A undisturbed by interleaved B feeds" true
    (Float.equal (Resp.max_core_temp ra za) expect_a);
  Alcotest.(check bool) "engine B undisturbed by interleaved A feeds" true
    (Float.equal (Resp.max_core_temp rb zb) expect_b)

(* A sparse context builds one response engine, shared by its backend
   and its screening model; its dense questions (AO's safety re-check)
   go to the dense twin and build no response. *)
let test_one_response_build_per_context () =
  let p = Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:65. in
  let builds ev =
    match Core.Eval.sparse_response_stats ev with
    | Some s -> s.Resp.builds
    | None -> Alcotest.fail "response engine not built"
  in
  let warm = Core.Eval.create ~backend:Core.Eval.Sparse p in
  ignore (Core.Eval.backend warm : Thermal.Backend.t);
  let before = builds warm in
  let ev = Core.Eval.create ~backend:Core.Eval.Sparse ~screen_margin:0.5 p in
  ignore (Core.Eval.screening ev : float option);
  ignore (Core.Ao.solve ~eval:ev ~par:false p : Core.Ao.result);
  Alcotest.(check int) "one response build" 1 (builds ev - before)

(* ------------------------------------------------- reduced backend *)

(* Retaining every mode leaves the static correction nothing to patch,
   so the reduced backend answers every evaluator the walk and the
   stable status reach exactly as the sparse one does, up to
   rounding. *)
let test_reduced_full_basis_exact () =
  let pm = Power.Power_model.default in
  List.iter
    (fun (rows, cols) ->
      let spec = Thermal.Grid_model.sheet_spec ~rows ~cols () in
      let eng = Resp.of_spec spec in
      let n = Thermal.Spec.n_nodes spec and nc = Thermal.Spec.n_cores spec in
      let exact = Thermal.Backend.of_response eng
      and rom = Thermal.Backend.of_reduced (Reduced.of_response ~modes:n eng) in
      let ramp v0 dv =
        Array.init nc (fun i -> Power.Power_model.psi pm (v0 +. (dv *. float_of_int i)))
      in
      let profile =
        [
          { Matex.duration = 0.03; psi = ramp 0.4 0.1 };
          { Matex.duration = 0.02; psi = ramp 1.3 (-0.1) };
        ]
      in
      let close what a b =
        if Float.abs (a -. b) > 1e-9 then
          Alcotest.failf "%dx%d sheet, all %d modes, %s: %.17g vs %.17g" rows cols n
            what a b
      in
      let both what f = close what (f exact) (f rom) in
      both "end peak" (fun b -> Sched.Peak.profile_end_peak b profile);
      both "scan peak" (fun b -> Sched.Peak.profile_scan_peak b profile);
      both "refined peak" (fun b -> Sched.Peak.profile_refined_peak b profile);
      both "steady constant" (fun b ->
          Sched.Peak.steady_constant b pm
            (Array.init nc (fun i -> 0.6 +. (0.1 *. float_of_int i))));
      (* One step from a warm state, read at every core. *)
      let step (b : Thermal.Backend.t) =
        let warm = b.ambient_state () and dst = b.ambient_state () in
        b.step_into ~dt:0.04 ~state:(b.ambient_state ()) ~psi:(ramp 1.3 (-0.1))
          ~dst:warm;
        b.step_into ~dt:0.015 ~state:warm ~psi:(ramp 0.4 0.1) ~dst;
        b.core_temps dst
      in
      let on_rom = step rom in
      Array.iteri
        (fun c a -> close (Printf.sprintf "step, core %d" c) a on_rom.(c))
        (step exact))
    [ (2, 2); (3, 3) ]

let test_reduced_validation () =
  let eng = Resp.of_spec (Thermal.Grid_model.sheet_spec ~rows:2 ~cols:2 ()) in
  let rejected modes =
    match Reduced.of_response ~modes eng with
    | exception Invalid_argument msg ->
        Alcotest.(check string) "message names the entry point"
          "Reduced.of_response: modes outside [1, n_nodes]" msg;
        true
    | _ -> false
  in
  Alcotest.(check bool) "zero modes rejected" true (rejected 0);
  Alcotest.(check bool) "too many modes rejected" true (rejected 99)

(* ------------------------------------------------------- allocation *)

(* Minor-heap words per call of [f] over [n] calls, after one warm-up
   call has built whatever a first use builds (per-domain scratch,
   decay tables). *)
let minor_words_per_call ?(n = 1000) f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* An [int * float] result: a two-field block plus a boxed float. *)
let pair_words = 3. +. 1. +. (8. /. float_of_int (Sys.word_size / 8))

(* The epoch loop's step and the walk's segment allocate nothing per
   call on the dense and reduced backends beyond the documented result
   pair.  Only native code unboxes floats, so bytecode skips. *)
let test_hot_path_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let check what expected got =
    Alcotest.(check (float 0.)) (what ^ ": minor words per call") expected got
  in
  let step_words (b : Thermal.Backend.t) =
    let psi = Array.init b.n_cores (fun i -> 2. +. float_of_int i) in
    let state = b.ambient_state () and dst = b.ambient_state () in
    b.step_into ~dt:0.01 ~state:(b.ambient_state ()) ~psi ~dst:state;
    let dt = 0.003 in
    minor_words_per_call (fun () -> b.step_into ~dt ~state ~psi ~dst)
  in
  let dense = Thermal.Backend.of_model model27 in
  let rom = Thermal.Backend.of_reduced (Reduced.of_response (engine_of model27)) in
  check "dense step_into" 0. (step_words dense);
  check "reduced step_into" 0. (step_words rom);
  let psi = Array.init rom.n_cores (fun i -> 3. +. float_of_int i) in
  let eq = rom.ambient_state () and walker = rom.ambient_state () in
  rom.equilibrium_into ~psi ~dst:eq;
  let dt = 0.002 in
  check "reduced sample_segment" pair_words
    (minor_words_per_call (fun () ->
         ignore (rom.sample_segment ~dt ~samples:16 ~eq ~walker : int * float)))

(* ------------------------------------------- ROM screening soundness *)

(* Screened selection must equal the exhaustive exact search when the
   margin covers twice the worst ROM error over the batch (DESIGN.md
   §12) — asserted on randomized sheet platforms up to 8x8 = 64 cells
   with randomized candidate batches.  Also asserts the unconditional
   guarantee: the selected value is an exact evaluation (bit-equal to
   the stable-status solve), never a ROM score. *)
let prop_screened_search_equals_exhaustive =
  QCheck.Test.make ~name:"screened argmin = exhaustive exact argmin"
    ~count:15 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rows = 2 + Random.State.int rng 7 in
      let cols = 2 + Random.State.int rng (Stdlib.min 7 ((64 / rows) - 1)) in
      let spec = Thermal.Grid_model.sheet_spec ~rows ~cols () in
      let resp = Resp.of_spec spec in
      let rom = Thermal.Backend.of_reduced (Reduced.of_response resp) in
      let nc = Resp.n_cores resp in
      let n_cand = 8 + Random.State.int rng 9 in
      let candidates =
        Array.init n_cand (fun _ -> random_profile rng nc)
      in
      let exact_all =
        Array.map (fun p -> end_peak resp p) candidates
      in
      let rom_all =
        Array.map (fun p -> Sched.Peak.profile_end_peak rom p) candidates
      in
      (* Sound margin: twice the realized worst-case ROM error, plus
         slack — the premise of the equality theorem, computed from the
         batch itself so the property tests the theorem and not a
         hand-tuned constant. *)
      let eps =
        Array.fold_left Float.max 0.
          (Array.mapi (fun i r -> Float.abs (r -. exact_all.(i))) rom_all)
      in
      let margin = (2. *. eps) +. 1e-9 in
      let screened =
        Core.Screen.select ~par:false ~margin ~n:n_cand
          ~rom:(fun i -> rom_all.(i))
          ~exact:(fun i -> exact_all.(i))
          ()
      in
      (* The searches' shared reduction: strict improvement by more than
         1e-12 keeps the smallest index. *)
      let argmin a =
        let best = ref 0 in
        for i = 1 to Array.length a - 1 do
          if a.(i) < a.(!best) -. 1e-12 then best := i
        done;
        !best
      in
      let i_screen = argmin screened and i_exact = argmin exact_all in
      i_screen = i_exact
      && Int64.equal
           (Int64.bits_of_float screened.(i_screen))
           (Int64.bits_of_float exact_all.(i_screen)))

(* Pruned slots are +inf and survivors carry bit-exact values, at any
   margin (including one too small for the equality guarantee). *)
let prop_screened_values_are_exact_or_inf =
  QCheck.Test.make ~name:"screened slots are exact floats or +inf" ~count:30
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 5 + Random.State.int rng 20 in
      let exact = Array.init n (fun _ -> 40. +. Random.State.float rng 40.) in
      let rom =
        Array.map (fun v -> v +. (Random.State.float rng 2. -. 1.)) exact
      in
      let margin = Random.State.float rng 1.5 in
      let screened =
        Core.Screen.select ~par:false ~margin ~n
          ~rom:(fun i -> rom.(i))
          ~exact:(fun i -> exact.(i))
          ()
      in
      let rom_min = Array.fold_left Float.min infinity rom in
      Array.for_all
        (fun ok -> ok)
        (Array.mapi
           (fun i v ->
             if rom.(i) <= rom_min +. margin then Float.equal v exact.(i)
             else Float.equal v infinity)
           screened))

(* [always] indices survive regardless of their ROM score. *)
let test_screen_always_survives () =
  let exact = [| 50.; 51.; 52.; 49. |] in
  let rom = [| 100.; 51.; 52.; 49. |] in
  let screened =
    Core.Screen.select ~par:false ~always:[ 0 ] ~margin:0.5 ~n:4
      ~rom:(fun i -> rom.(i))
      ~exact:(fun i -> exact.(i))
      ()
  in
  Alcotest.(check bool) "slot 0 evaluated exactly despite worst ROM score" true
    (Float.equal screened.(0) 50.);
  Alcotest.(check bool) "far slot pruned" true (Float.equal screened.(1) infinity)

(* A NaN ROM score neither poisons the batch minimum nor gets pruned:
   it survives to the exact tier while the rest of the batch screens
   normally. *)
let test_screen_nan_score_survives () =
  let exact = [| 50.; 51.; 52.; 49. |] in
  let rom = [| Float.nan; 51.; 52.; 49. |] in
  let screened =
    Core.Screen.select ~par:false ~margin:0.5 ~n:4
      ~rom:(fun i -> rom.(i))
      ~exact:(fun i -> exact.(i))
      ()
  in
  Alcotest.(check bool) "NaN slot priced exactly" true
    (Float.equal screened.(0) 50.);
  Alcotest.(check bool) "batch minimum ignores the NaN" true
    (Float.equal screened.(3) 49.);
  Alcotest.(check bool) "far slot still pruned" true
    (Float.equal screened.(1) infinity)

(* Screened policy runs agree with unscreened ones end to end: the AO
   m-sweep under a sparse screening context returns the same schedule
   and peak as with screening disabled. *)
let test_screened_ao_matches_unscreened () =
  let p = Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:65. in
  let run margin =
    let ev =
      Core.Eval.create ~backend:Core.Eval.Sparse ~screen_margin:margin p
    in
    Core.Ao.solve ~eval:ev ~par:false p
  in
  let screened = run 0.5 and exhaustive = run 0. in
  Alcotest.(check int) "same m" exhaustive.Core.Ao.m screened.Core.Ao.m;
  Alcotest.(check bool) "same peak" true
    (Float.equal exhaustive.Core.Ao.peak screened.Core.Ao.peak);
  Alcotest.(check bool) "same throughput" true
    (Float.equal exhaustive.Core.Ao.throughput screened.Core.Ao.throughput)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "sparse_response"
    [
      qsuite "superposition"
        [
          prop_steady_superposition_matches_dense;
          prop_y_inf_matches_dense_steady_state;
          prop_streaming_stable_matches_dense;
          prop_step_matches_reference;
        ];
      qsuite "state hooks" [ prop_correct_cores ];
      ( "scratch",
        [
          Alcotest.test_case "pool-size determinism" `Quick
            test_pool_size_determinism;
          Alcotest.test_case "cross-engine isolation" `Quick
            test_scratch_cross_engine_isolation;
          Alcotest.test_case "one response build per context" `Quick
            test_one_response_build_per_context;
        ] );
      ( "reduced",
        [
          Alcotest.test_case "full basis exact" `Quick test_reduced_full_basis_exact;
          Alcotest.test_case "validation" `Quick test_reduced_validation;
          Alcotest.test_case "hot-path allocation" `Quick test_hot_path_allocation;
        ] );
      qsuite "screening"
        [
          prop_screened_search_equals_exhaustive;
          prop_screened_values_are_exact_or_inf;
        ];
      ( "screening-units",
        [
          Alcotest.test_case "always-indices survive" `Quick
            test_screen_always_survives;
          Alcotest.test_case "NaN ROM score survives to exact tier" `Quick
            test_screen_nan_score_survives;
          Alcotest.test_case "screened AO = unscreened AO" `Quick
            test_screened_ao_matches_unscreened;
        ] );
    ]
