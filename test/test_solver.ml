(* Tests for the unified solver layer: the Eval context and its peak
   memo tables, the Solver/Registry adapters, and the parity guarantee —
   running a policy through its registry adapter (caches on, any pool
   size) returns bit-identical voltages and peaks to the direct typed
   solve. *)

module P = Core.Platform
module Solver = Core.Solver
module Eval = Core.Eval
module Cache = Sched.Peak.Cache

let platform3 () = Workload.Configs.platform ~cores:3 ~levels:2 ~t_max:65.

let check_bits what a b =
  (* Exact IEEE-754 equality: memoization must never perturb a result. *)
  Alcotest.(check int64) what (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits_array what a b =
  Alcotest.(check int) (what ^ " length") (Array.length a) (Array.length b);
  Array.iteri (fun i x -> check_bits (Printf.sprintf "%s.(%d)" what i) x b.(i)) a

let seq = { Solver.default_params with Solver.par = false }

(* ----------------------------------------------------- cache unit tests *)

let test_cache_hit_counters () =
  let cache = Cache.create () in
  let calls = ref 0 in
  let compute () = incr calls; 42. in
  let k = Cache.key_of_voltages [| 1.1; 0.9 |] in
  check_bits "first lookup computes" 42. (Cache.find_or_add cache k compute);
  check_bits "second lookup replays" 42. (Cache.find_or_add cache k compute);
  Alcotest.(check int) "computed once" 1 !calls;
  let s = Cache.stats cache in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  Alcotest.(check int) "one entry" 1 s.Cache.entries;
  Alcotest.(check int) "no evictions" 0 s.Cache.evictions

let test_cache_eviction_fifo () =
  let cache = Cache.create ~max_entries:2 () in
  let key i = Cache.key_of_voltages [| float_of_int i |] in
  let probe i = Cache.find_or_add cache (key i) (fun () -> float_of_int i) in
  ignore (probe 0);
  ignore (probe 1);
  ignore (probe 2);
  (* Capacity 2 + three distinct keys: the oldest (0) was evicted. *)
  let s = Cache.stats cache in
  Alcotest.(check int) "bounded at capacity" 2 s.Cache.entries;
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  let calls = ref 0 in
  ignore (Cache.find_or_add cache (key 0) (fun () -> incr calls; 0.));
  Alcotest.(check int) "evicted key recomputes" 1 !calls;
  ignore (Cache.find_or_add cache (key 2) (fun () -> incr calls; 2.));
  Alcotest.(check int) "resident key still replays" 1 !calls

let test_cache_disabled_stores_nothing () =
  let cache = Cache.create ~max_entries:0 () in
  let k = Cache.key_of_voltages [| 1.3 |] in
  let calls = ref 0 in
  let compute () = incr calls; 7. in
  ignore (Cache.find_or_add cache k compute);
  ignore (Cache.find_or_add cache k compute);
  Alcotest.(check int) "every lookup recomputes" 2 !calls;
  let s = Cache.stats cache in
  Alcotest.(check int) "no entries" 0 s.Cache.entries;
  Alcotest.(check int) "all misses" 2 s.Cache.misses;
  Alcotest.(check int) "no hits" 0 s.Cache.hits

let test_cache_key_distinguishes_neg_zero () =
  (* -0. and +0. are distinct bit patterns but equal floats; the key
     must canonicalize so they share an entry. *)
  Alcotest.(check string)
    "-0. and +0. share a key"
    (Cache.key_of_voltages [| 0. |])
    (Cache.key_of_voltages [| -0. |]);
  Alcotest.(check bool)
    "nearby voltages do not collide" true
    (Cache.key_of_voltages [| 1.1 |]
    <> Cache.key_of_voltages [| Float.succ 1.1 |])

let test_eval_cached_peaks_match_direct () =
  let p = platform3 () in
  let ev = Eval.create p in
  let v = [| 1.1; 0.9; 1.2 |] in
  let direct = Sched.Peak.steady_constant (Thermal.Backend.of_model p.P.model) p.P.power v in
  check_bits "steady peak, cold" direct (Eval.steady_peak ev v);
  check_bits "steady peak, warm" direct (Eval.steady_peak ev v);
  let s =
    Sched.Schedule.two_mode ~period:0.1 ~low:[| 0.6; 0.6; 0.6 |]
      ~high:[| 1.3; 1.3; 1.3 |] ~high_ratio:[| 0.3; 0.5; 0.7 |]
  in
  let direct_s = Sched.Peak.of_step_up (Thermal.Backend.of_model p.P.model) p.P.power s in
  check_bits "step-up peak, cold" direct_s (Eval.step_up_peak ev s);
  check_bits "step-up peak, warm" direct_s (Eval.step_up_peak ev s);
  let st = Eval.stats ev in
  Alcotest.(check int) "steady hits" 1 st.Eval.steady.Cache.hits;
  Alcotest.(check int) "step-up hits" 1 st.Eval.stepup.Cache.hits

(* -------------------------------------------------------- registry shape *)

let test_registry_names_and_lookup () =
  Alcotest.(check (list string))
    "registry order"
    [ "lns"; "exs"; "ao"; "pco"; "ideal"; "tsp"; "demand"; "sprint" ]
    (Core.Registry.names ());
  Alcotest.(check (list string))
    "comparison subset" [ "lns"; "exs"; "ao"; "pco" ]
    (List.map
       (fun (p : Solver.t) -> p.Solver.name)
       (Core.Registry.comparison ()));
  Alcotest.(check bool) "find hit" true
    (Option.is_some (Core.Registry.find "ao"));
  Alcotest.(check bool) "find miss" true
    (Option.is_none (Core.Registry.find "nope"));
  Alcotest.(check bool) "find_exn miss raises" true
    (match Core.Registry.find_exn "nope" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_outcomes_populated () =
  let ev = Eval.create (platform3 ()) in
  List.iter
    (fun (pol : Solver.t) ->
      let o = Solver.run ~params:seq pol ev in
      Alcotest.(check bool)
        (pol.Solver.name ^ " voltages nonempty")
        true
        (Array.length o.Solver.voltages = 3);
      Alcotest.(check bool)
        (pol.Solver.name ^ " finite peak")
        true
        (Float.is_finite o.Solver.peak);
      Alcotest.(check bool)
        (pol.Solver.name ^ " wall time sane")
        true
        (o.Solver.wall_time >= 0.);
      Alcotest.(check bool)
        (pol.Solver.name ^ " details attached")
        true
        (o.Solver.details <> Solver.No_details))
    Core.Registry.all

(* ------------------------------------------------------ adapter parity *)

(* Each adapter must report exactly what the direct typed solve returns —
   same floats to the last bit — with caches on and at any pool size. *)

let parity_pools () = [ ("pool1", Util.Pool.create ~size:1 ()); ("pool4", Util.Pool.create ~size:4 ()) ]

let with_pools f =
  List.iter
    (fun (tag, pool) ->
      Fun.protect ~finally:(fun () -> Util.Pool.shutdown pool) (fun () -> f tag pool))
    (parity_pools ())

let test_parity_lns () =
  let p = platform3 () in
  let direct = Core.Lns.solve p in
  with_pools (fun tag pool ->
      let o = Solver.run (Core.Registry.find_exn "lns") (Eval.create ~pool p) in
      check_bits_array (tag ^ " voltages") direct.Core.Lns.voltages o.Solver.voltages;
      check_bits (tag ^ " peak") direct.Core.Lns.peak o.Solver.peak;
      check_bits (tag ^ " throughput") direct.Core.Lns.throughput o.Solver.throughput)

let test_parity_exs () =
  let p = platform3 () in
  let direct = Core.Exs.solve p in
  with_pools (fun tag pool ->
      let seq_o = Solver.run ~params:seq (Core.Registry.find_exn "exs") (Eval.create ~pool p) in
      check_bits_array (tag ^ " seq voltages") direct.Core.Exs.voltages
        seq_o.Solver.voltages;
      check_bits (tag ^ " seq peak") direct.Core.Exs.peak seq_o.Solver.peak;
      Alcotest.(check int)
        (tag ^ " seq evaluations") direct.Core.Exs.evaluated seq_o.Solver.evaluations;
      let par_o = Solver.run (Core.Registry.find_exn "exs") (Eval.create ~pool p) in
      check_bits_array (tag ^ " par voltages")
        (Core.Exs.solve_par ~pool p).Core.Exs.voltages par_o.Solver.voltages;
      check_bits (tag ^ " par peak") direct.Core.Exs.peak par_o.Solver.peak)

let test_parity_ao () =
  let p = platform3 () in
  (* AO's parallel path always uses the shared global pool; the pool
     determinism guarantee (bit-identical at any size) lets us compare
     against adapters driven through explicitly sized pools anyway. *)
  let direct = Core.Ao.solve p in
  with_pools (fun tag pool ->
      let o = Solver.run (Core.Registry.find_exn "ao") (Eval.create ~pool p) in
      check_bits (tag ^ " throughput") direct.Core.Ao.throughput o.Solver.throughput;
      check_bits (tag ^ " peak") direct.Core.Ao.peak o.Solver.peak;
      check_bits_array (tag ^ " delivered speeds")
        (Solver.delivered_speeds p direct.Core.Ao.schedule)
        o.Solver.voltages;
      match (o.Solver.schedule, o.Solver.details) with
      | Some s, Core.Ao.Details r ->
          Alcotest.(check int) (tag ^ " m") direct.Core.Ao.m r.Core.Ao.m;
          check_bits (tag ^ " schedule period") (Sched.Schedule.period direct.Core.Ao.schedule)
            (Sched.Schedule.period s)
      | _ -> Alcotest.fail (tag ^ ": AO adapter lost schedule or details"))

let test_parity_pco () =
  let p = platform3 () in
  let direct = Core.Pco.solve p in
  with_pools (fun tag pool ->
      let o = Solver.run (Core.Registry.find_exn "pco") (Eval.create ~pool p) in
      check_bits (tag ^ " throughput") direct.Core.Pco.throughput o.Solver.throughput;
      check_bits (tag ^ " peak") direct.Core.Pco.peak o.Solver.peak)

let test_parity_ideal () =
  let p = platform3 () in
  let direct = Core.Ideal.solve p in
  let o = Solver.run (Core.Registry.find_exn "ideal") (Eval.create p) in
  check_bits_array "voltages" direct.Core.Ideal.voltages o.Solver.voltages;
  check_bits "throughput" direct.Core.Ideal.throughput o.Solver.throughput;
  check_bits "peak"
    (Sched.Peak.steady_constant (Thermal.Backend.of_model p.P.model) p.P.power direct.Core.Ideal.voltages)
    o.Solver.peak

let test_parity_tsp () =
  let p = platform3 () in
  let direct = Core.Tsp.solve p in
  let o = Solver.run (Core.Registry.find_exn "tsp") (Eval.create p) in
  check_bits_array "voltages" direct.Core.Tsp.voltages o.Solver.voltages;
  check_bits "peak" direct.Core.Tsp.peak o.Solver.peak

let test_parity_demand () =
  let p = Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:60. in
  let demands = [| 1.0; 0.9; 0.8 |] in
  let direct = Core.Demand.solve p ~demands in
  with_pools (fun tag pool ->
      let o =
        Solver.run
          ~params:{ Solver.default_params with Solver.par = true; demands = Some demands }
          (Core.Registry.find_exn "demand") (Eval.create ~pool p)
      in
      check_bits (tag ^ " peak") direct.Core.Demand.peak o.Solver.peak;
      check_bits_array (tag ^ " delivered") direct.Core.Demand.delivered
        o.Solver.voltages)

let test_parity_sprint () =
  let p = platform3 () in
  let direct = Core.Sprint.plan p in
  with_pools (fun tag pool ->
      let o = Solver.run (Core.Registry.find_exn "sprint") (Eval.create ~pool p) in
      check_bits (tag ^ " sustained throughput")
        direct.Core.Sprint.steady.Core.Ao.throughput o.Solver.throughput;
      check_bits (tag ^ " sustained peak") direct.Core.Sprint.steady.Core.Ao.peak
        o.Solver.peak)

(* ------------------------------------------- cache transparency (QCheck) *)

(* On random platform shapes, every registry policy must return the same
   peak and voltages with memoization on (default) and off
   (cache_size 0): the cache may only change speed, never answers. *)
let prop_cache_transparent =
  let gen =
    QCheck.make
      ~print:(fun (cores, levels, t_max) ->
        Printf.sprintf "cores=%d levels=%d t_max=%.1f" cores levels t_max)
      QCheck.Gen.(
        triple (oneofl [ 2; 3 ]) (int_range 2 4)
          (map (fun i -> 55. +. (5. *. float_of_int i)) (int_range 0 3)))
  in
  QCheck.Test.make ~count:6 ~name:"cache on/off: identical peaks and voltages" gen
    (fun (cores, levels, t_max) ->
      let p = Workload.Configs.platform ~cores ~levels ~t_max in
      List.for_all
        (fun (pol : Solver.t) ->
          let cached = Solver.run ~params:seq pol (Eval.create p) in
          let uncached = Solver.run ~params:seq pol (Eval.create ~cache_size:0 p) in
          Int64.bits_of_float cached.Solver.peak
          = Int64.bits_of_float uncached.Solver.peak
          && Array.for_all2
               (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
               cached.Solver.voltages uncached.Solver.voltages)
        Core.Registry.all)

(* ------------------------------------------------- shared-context payoff *)

let test_warm_context_hits () =
  (* The acceptance scenario: run the comparison sweep twice through one
     context.  The second (warm) pass must replay from the memo tables. *)
  let ev = Eval.create (Workload.Configs.platform ~cores:3 ~levels:3 ~t_max:65.) in
  let cold = Experiments.Exp_common.run_policies ~eval:ev ~cores:3 ~levels:3 ~t_max:65. () in
  let cold_hit_rate = Eval.hit_rate ev in
  let warm = Experiments.Exp_common.run_policies ~eval:ev ~cores:3 ~levels:3 ~t_max:65. () in
  let st = Eval.stats ev in
  Alcotest.(check bool) "warm pass produced hits" true (Eval.hit_rate ev > cold_hit_rate);
  Alcotest.(check bool)
    "memo tables populated" true
    (st.Eval.steady.Cache.entries + st.Eval.stepup.Cache.entries > 0);
  (* And warming must not change any answer. *)
  check_bits "lns stable" cold.Experiments.Exp_common.lns warm.Experiments.Exp_common.lns;
  check_bits "exs stable" cold.Experiments.Exp_common.exs warm.Experiments.Exp_common.exs;
  check_bits "ao stable" cold.Experiments.Exp_common.ao warm.Experiments.Exp_common.ao;
  check_bits "pco stable" cold.Experiments.Exp_common.pco warm.Experiments.Exp_common.pco

let () =
  Alcotest.run "solver"
    [
      ( "cache",
        [
          Alcotest.test_case "hit counters" `Quick test_cache_hit_counters;
          Alcotest.test_case "FIFO eviction at capacity" `Quick test_cache_eviction_fifo;
          Alcotest.test_case "size 0 disables storage" `Quick
            test_cache_disabled_stores_nothing;
          Alcotest.test_case "key canonicalization" `Quick
            test_cache_key_distinguishes_neg_zero;
          Alcotest.test_case "Eval peaks match direct" `Quick
            test_eval_cached_peaks_match_direct;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names and lookup" `Quick test_registry_names_and_lookup;
          Alcotest.test_case "outcomes populated" `Slow test_outcomes_populated;
        ] );
      ( "parity",
        [
          Alcotest.test_case "lns" `Quick test_parity_lns;
          Alcotest.test_case "exs" `Slow test_parity_exs;
          Alcotest.test_case "ao" `Slow test_parity_ao;
          Alcotest.test_case "pco" `Slow test_parity_pco;
          Alcotest.test_case "ideal" `Quick test_parity_ideal;
          Alcotest.test_case "tsp" `Quick test_parity_tsp;
          Alcotest.test_case "demand" `Slow test_parity_demand;
          Alcotest.test_case "sprint" `Slow test_parity_sprint;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:false prop_cache_transparent ] );
      ( "payoff",
        [ Alcotest.test_case "warm context replays" `Slow test_warm_context_hits ] );
    ]
