(* Differential tests for the prepared-base delta evaluators
   (DESIGN.md §14) and the TPT loops' delta tier: a single-core delta
   off a prepared base must agree with the full fused evaluation of the
   modified candidate to <= 1e-9 on both backends, the per-domain base
   state must survive interleaved exact evaluations and be overwritten
   by a re-prepare, the rebuilt loops at [delta_margin:0.] must walk
   bit-identical step sequences to the pre-delta loops at pool sizes 1
   and 4, and a positive margin must never compromise the constraint. *)

module Vec = Linalg.Vec
module Model = Thermal.Model
module Resp = Thermal.Sparse_response
module Peak = Sched.Peak
module Pm = Power.Power_model
module P = Core.Platform
module Tpt = Core.Tpt
module Eval = Core.Eval

let pm = Pm.default
let seed_gen = QCheck.(make Gen.(int_range 0 1_000_000))

let check_bits what a b =
  Alcotest.(check int64) what (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Random small layered platform (die and spreader nodes per core plus
   a shared sink: at most 13 nodes on 2x3 cores), varied ambient and
   leakage, as in the other differential suites. *)
let random_model rng =
  let rows = 1 + Random.State.int rng 2 in
  let cols = 1 + Random.State.int rng 3 in
  let ambient = -10. +. Random.State.float rng 70. in
  let leak_beta = Random.State.float rng 0.1 in
  Thermal.Hotspot.layered ~ambient ~leak_beta
    (Thermal.Floorplan.grid ~rows ~cols ~core_width:4e-3 ~core_height:4e-3)

(* Random aligned two-mode base, deliberately hitting the snapped
   all-low / all-high boundaries the decomposition clamps at. *)
let random_ratio rng =
  let u = Random.State.float rng 1. in
  if u < 0.15 then 0.
  else if u < 0.3 then 1.
  else Random.State.float rng 1.

let random_two_mode rng n =
  let period = 0.02 +. Random.State.float rng 0.3 in
  let low = Array.init n (fun _ -> 0.6 +. Random.State.float rng 0.4) in
  let high = Array.init n (fun i -> low.(i) +. Random.State.float rng 0.7) in
  let high_ratio = Array.init n (fun _ -> random_ratio rng) in
  (period, low, high, high_ratio)

(* A candidate change for one core: usually just the duty cycle (the
   cancellation-free same-voltage path), sometimes new voltages too
   (the general two-drive path). *)
let perturb rng ~low ~high core =
  let r' = random_ratio rng in
  if Random.State.float rng 1. < 0.3 then begin
    let l' = 0.6 +. Random.State.float rng 0.4 in
    (l', l' +. Random.State.float rng 0.7, r')
  end
  else (low.(core), high.(core), r')

(* -------------------------------------- delta vs full, both backends *)

(* Every property and isolation test below is written once against
   {!Thermal.Backend} and run on both implementations: the dense modal
   engine and a freshly built sparse superposition engine (on [pool]
   when one is given). *)
let dense ?pool:_ model = Thermal.Backend.of_model model
let sparse ?pool model =
  Thermal.Backend.of_response (Resp.of_spec ?pool (Thermal.Spec.of_model model))
let backends = [ ("dense", dense); ("sparse", sparse) ]

let parity_prop ~name ~count ~pool_size backend_of =
  QCheck.Test.make ~name ~count seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = random_model rng in
      let pool = Util.Pool.create ~size:pool_size () in
      let b = backend_of ?pool:(Some pool) model in
      let n = Model.n_cores model in
      let period, low, high, high_ratio = random_two_mode rng n in
      Peak.two_mode_delta_base b pm ~period ~low ~high ~high_ratio;
      let ok = ref true in
      for core = 0 to n - 1 do
        let l', h', r' = perturb rng ~low ~high core in
        let low2 = Array.copy low
        and high2 = Array.copy high
        and hr2 = Array.copy high_ratio in
        low2.(core) <- l';
        high2.(core) <- h';
        hr2.(core) <- r';
        let dpk =
          Peak.two_mode_delta_peak b pm ~core ~low:l' ~high:h' ~high_ratio:r'
        in
        (* The full evaluation runs through the SAME engine's
           stable-status scratch between delta calls — also exercising base-state
           isolation on the hot path. *)
        let full =
          Peak.of_two_mode b pm ~period ~low:low2 ~high:high2 ~high_ratio:hr2
        in
        if Float.abs (dpk -. full) > 1e-9 then ok := false;
        let at = Random.State.int rng n in
        let dt =
          Peak.two_mode_delta_temp_at b pm ~at ~core ~low:l' ~high:h'
            ~high_ratio:r'
        in
        let temps =
          Peak.two_mode_end_core_temps b pm ~period ~low:low2 ~high:high2
            ~high_ratio:hr2
        in
        if Float.abs (dt -. temps.(at)) > 1e-9 then ok := false
      done;
      Util.Pool.shutdown pool;
      !ok)

(* ------------------------------------- base-state isolation (DLS) *)

let model_a =
  Thermal.Hotspot.core_level
    (Thermal.Floorplan.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)

let test_base_survives_exact_evals backend_of () =
  let b = backend_of ?pool:None model_a in
  let n = Model.n_cores model_a in
  let period = 0.1 in
  let low = Array.make n 0.7 and high = Array.make n 1.2 in
  let high_ratio = [| 0.3; 0.6; 0.9 |] in
  Peak.two_mode_delta_base b pm ~period ~low ~high ~high_ratio;
  let d1 = Peak.two_mode_delta_peak b pm ~core:1 ~low:0.7 ~high:1.2 ~high_ratio:0.45 in
  (* Unrelated full evaluations run through the same engine's
     stable-status scratch; the prepared base must be untouched. *)
  for k = 1 to 5 do
    let r = 0.1 *. float_of_int k in
    ignore
      (Peak.of_two_mode b pm ~period:0.07 ~low ~high ~high_ratio:[| r; 1. -. r; 0.5 |]
        : float)
  done;
  let d2 = Peak.two_mode_delta_peak b pm ~core:1 ~low:0.7 ~high:1.2 ~high_ratio:0.45 in
  check_bits "delta unchanged by interleaved exact evals" d1 d2;
  (* Re-preparing a different base overwrites deterministically. *)
  let other = [| 0.2; 0.2; 0.2 |] in
  Peak.two_mode_delta_base b pm ~period:0.07 ~low ~high ~high_ratio:other;
  let e1 = Peak.two_mode_delta_peak b pm ~core:0 ~low:0.7 ~high:1.2 ~high_ratio:0.8 in
  Peak.two_mode_delta_base b pm ~period ~low ~high ~high_ratio;
  Peak.two_mode_delta_base b pm ~period:0.07 ~low ~high ~high_ratio:other;
  let e2 = Peak.two_mode_delta_peak b pm ~core:0 ~low:0.7 ~high:1.2 ~high_ratio:0.8 in
  check_bits "re-prepared base replaces the old one" e1 e2

(* A NaN duty ratio lies outside [0, 1]: the prepared-base hooks reject
   it, as the exact decomposition ([Schedule.two_mode]) does. *)
let test_nan_ratio_rejected backend_of () =
  let b = backend_of ?pool:None model_a in
  let n = Model.n_cores model_a in
  let low = Array.make n 0.7 and high = Array.make n 1.2 in
  let raises what f =
    Alcotest.(check bool) (what ^ " raises Invalid_argument on NaN") true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  raises "base_feed" (fun () ->
      Peak.two_mode_delta_base b pm ~period:0.1 ~low ~high
        ~high_ratio:[| 0.3; nan; 0.9 |]);
  Peak.two_mode_delta_base b pm ~period:0.1 ~low ~high ~high_ratio:[| 0.3; 0.6; 0.9 |];
  raises "delta_peak" (fun () ->
      Peak.two_mode_delta_peak b pm ~core:1 ~low:0.7 ~high:1.2 ~high_ratio:nan);
  raises "delta_core_temp" (fun () ->
      Peak.two_mode_delta_temp_at b pm ~at:0 ~core:1 ~low:0.7 ~high:1.2
        ~high_ratio:nan)

(* --------------------- margin-0 trajectory = pre-delta loop, bitwise *)

(* The pre-delta-tier loops, reimplemented verbatim from the old source
   (per-iteration metric + peak recomputation, scalar candidate scan),
   as the trajectory oracle. *)
let two_mode_ratio (c : Tpt.config) =
  Array.init
    (Array.length c.Tpt.v_low)
    (fun i -> Float.max 0. (Float.min 1. (c.Tpt.high_time.(i) /. c.Tpt.period)))

let hot_metric (_p : P.t) ~eval (c : Tpt.config) =
  Eval.two_mode_end_core_temps eval ~period:c.Tpt.period ~low:c.Tpt.v_low
    ~high:c.Tpt.v_high ~high_ratio:(two_mode_ratio c)

let adjustable (c : Tpt.config) i =
  c.Tpt.high_time.(i) > 1e-12 && c.Tpt.v_high.(i) -. c.Tpt.v_low.(i) > 1e-12

let raisable (c : Tpt.config) i t_unit =
  c.Tpt.period -. c.Tpt.high_time.(i) >= t_unit -. 1e-12
  && c.Tpt.v_high.(i) -. c.Tpt.v_low.(i) > 1e-12

let with_high_time (c : Tpt.config) i dt =
  let high_time = Array.copy c.Tpt.high_time in
  high_time.(i) <-
    Float.max 0. (Float.min c.Tpt.period (high_time.(i) +. dt));
  { c with Tpt.high_time }

let old_adjust (p : P.t) ~eval ~t_unit c =
  let n = Array.length c.Tpt.v_low in
  let rec loop c steps =
    let temps = hot_metric p ~eval c in
    let current_peak = Tpt.peak p ~eval c in
    if current_peak <= p.P.t_max +. 1e-9 then (c, steps)
    else begin
      let hottest = Vec.argmax temps in
      let candidate_temps =
        Array.init n (fun j ->
            if adjustable c j then
              Some (hot_metric p ~eval (with_high_time c j (-.t_unit))).(hottest)
            else None)
      in
      let best = ref None in
      for j = 0 to n - 1 do
        match candidate_temps.(j) with
        | None -> ()
        | Some candidate_temp ->
            let dt = temps.(hottest) -. candidate_temp in
            let tpt =
              dt /. ((c.Tpt.v_high.(j) -. c.Tpt.v_low.(j)) *. t_unit)
            in
            (match !best with
            | Some (_, best_tpt) when best_tpt >= tpt -> ()
            | _ -> best := Some (j, tpt))
      done;
      match !best with
      | None -> (c, steps)
      | Some (j, _) -> loop (with_high_time c j (-.t_unit)) (steps + 1)
    end
  in
  loop c 0

let old_fill (p : P.t) ~eval ~t_unit c =
  let n = Array.length c.Tpt.v_low in
  let rec loop c base_peak steps =
    if base_peak > p.P.t_max -. 1e-9 then (c, steps)
    else begin
      let candidate_peaks =
        Array.init n (fun j ->
            if raisable c j t_unit then
              Some (Tpt.peak p ~eval (with_high_time c j t_unit))
            else None)
      in
      let best = ref None in
      for j = 0 to n - 1 do
        match candidate_peaks.(j) with
        | Some candidate_peak when candidate_peak <= p.P.t_max +. 1e-9 ->
            let gain = (c.Tpt.v_high.(j) -. c.Tpt.v_low.(j)) *. t_unit in
            let cost = Float.max 1e-12 (candidate_peak -. base_peak) in
            let index = gain /. cost in
            (match !best with
            | Some (_, _, best_index) when best_index >= index -> ()
            | _ -> best := Some (j, candidate_peak, index))
        | _ -> ()
      done;
      match !best with
      | None -> (c, steps)
      | Some (j, candidate_peak, _) ->
          loop (with_high_time c j t_unit) candidate_peak (steps + 1)
    end
  in
  loop c (Tpt.peak p ~eval c) 0

let platform3 () = Workload.Configs.platform ~cores:3 ~levels:2 ~t_max:65.

(* The motivation experiment's violating seed config: known to drive
   the adjustment loop through a multi-step trajectory. *)
let seed_config (p : P.t) period =
  let n = P.n_cores p in
  let ideal = Core.Ideal.solve p in
  let ratios =
    Array.map (fun v -> (v -. 0.6) /. (1.3 -. 0.6)) ideal.Core.Ideal.voltages
  in
  {
    Tpt.period;
    v_low = Array.make n 0.6;
    v_high = Array.make n 1.3;
    high_time = Array.map (fun r -> r *. period) ratios;
    offset = Array.make n 0.;
  }

let check_config what (a : Tpt.config) (b : Tpt.config) =
  Array.iteri
    (fun i h ->
      check_bits (Printf.sprintf "%s high_time.(%d)" what i) h
        b.Tpt.high_time.(i))
    a.Tpt.high_time

let test_margin0_trajectory_matches_old () =
  List.iter
    (fun (pname, size) ->
      let pool = Util.Pool.create ~size () in
      let p = platform3 () in
      let period = 0.02 in
      let t_unit = period /. 200. in
      let c0 = seed_config p period in
      let ev_old = Eval.create ~pool p in
      let adj_old, steps_old = old_adjust p ~eval:ev_old ~t_unit c0 in
      let ev_new = Eval.create ~pool p in
      let adj_new, steps_new =
        Tpt.adjust_to_constraint p ~eval:ev_new ~t_unit c0
      in
      Alcotest.(check int)
        (pname ^ " adjust step count") steps_old steps_new;
      check_config (pname ^ " adjust") adj_old adj_new;
      (* Fill back up from a drained config: same oracle treatment. *)
      let drained =
        { c0 with Tpt.high_time = Array.map (fun h -> 0.25 *. h) c0.Tpt.high_time }
      in
      let fill_old, fsteps_old = old_fill p ~eval:ev_old ~t_unit drained in
      let fill_new, fsteps_new =
        Tpt.fill_headroom p ~eval:ev_new ~t_unit drained
      in
      Alcotest.(check int) (pname ^ " fill step count") fsteps_old fsteps_new;
      check_config (pname ^ " fill") fill_old fill_new;
      Util.Pool.shutdown pool)
    [ ("pool1", 1); ("pool4", 4) ]

(* -------------------------- positive margin: constraint soundness *)

let test_margin_soundness_dense () =
  List.iter
    (fun (pname, size) ->
      let pool = Util.Pool.create ~size () in
      let p = platform3 () in
      let period = 0.02 in
      let t_unit = period /. 200. in
      let c0 = seed_config p period in
      let ev = Eval.create ~pool p in
      List.iter
        (fun delta_margin ->
          let adj, _ =
            Tpt.adjust_to_constraint p ~eval:ev ~t_unit ~delta_margin c0
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s adjust margin %.1f meets constraint" pname
               delta_margin)
            true
            (Tpt.peak p ~eval:ev adj <= p.P.t_max +. 1e-9);
          let drained =
            {
              c0 with
              Tpt.high_time = Array.map (fun h -> 0.25 *. h) c0.Tpt.high_time;
            }
          in
          let filled, _ =
            Tpt.fill_headroom p ~eval:ev ~t_unit ~delta_margin drained
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s fill margin %.1f stays feasible" pname
               delta_margin)
            true
            (Tpt.peak p ~eval:ev filled <= p.P.t_max +. 1e-9))
        [ 0.1; 0.5; 2.0 ];
      Util.Pool.shutdown pool)
    [ ("pool1", 1); ("pool4", 4) ]

let test_margin_soundness_sparse () =
  let p =
    P.sheet ~rows:2 ~cols:2 ~levels:(Power.Vf.table_iv 3) ~t_max:65. ()
  in
  let ev = Eval.create ~backend:Eval.Sparse p in
  let r_exact = Core.Ao.solve ~eval:ev ~par:false p in
  let r_delta = Core.Ao.solve ~eval:ev ~par:false ~delta_margin:0.5 p in
  Alcotest.(check bool)
    "sparse AO with delta tier meets constraint" true
    (Tpt.peak p ~eval:ev r_delta.Core.Ao.config <= p.P.t_max +. 1e-9);
  (* The exact and delta searches may legitimately pick different
     trajectories, but both must land feasible. *)
  Alcotest.(check bool)
    "sparse AO exact baseline feasible" true
    (Tpt.peak p ~eval:ev r_exact.Core.Ao.config <= p.P.t_max +. 1e-9)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "delta"
    [
      qsuite "parity"
        [
          parity_prop ~name:"dense delta peak/temp = full fused evaluation"
            ~count:40 ~pool_size:1 dense;
          parity_prop
            ~name:"sparse delta peak/temp = full fused evaluation (pool 1)"
            ~count:25 ~pool_size:1 sparse;
          parity_prop
            ~name:"sparse delta peak/temp = full fused evaluation (pool 4)"
            ~count:25 ~pool_size:4 sparse;
        ];
      ( "base-state",
        List.map
          (fun (kind, backend_of) ->
            Alcotest.test_case (kind ^ " base survives exact evals") `Quick
              (test_base_survives_exact_evals backend_of))
          backends
        @ List.map
            (fun (kind, backend_of) ->
              Alcotest.test_case (kind ^ " NaN ratio rejected") `Quick
                (test_nan_ratio_rejected backend_of))
            backends );
      ( "trajectory",
        [
          Alcotest.test_case "margin 0 = pre-delta loops, bitwise" `Quick
            test_margin0_trajectory_matches_old;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "dense margins meet the constraint" `Quick
            test_margin_soundness_dense;
          Alcotest.test_case "sparse AO delta tier feasible" `Quick
            test_margin_soundness_sparse;
        ] );
    ]
