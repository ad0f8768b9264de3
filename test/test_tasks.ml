(* Tests for the real-time task layer (Task / Partition / Feasibility)
   and the dual-problem solver Core.Demand. *)

let check_close tol = Alcotest.(check (float tol))

let task name wcet period = Tasks.Task.make ~name ~wcet ~period
let platform () = Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:60.

(* ----------------------------------------------------------------- task *)

let test_task_basics () =
  let t = task "a" 2. 10. in
  check_close 1e-12 "utilization" 0.2 (Tasks.Task.utilization t);
  let scaled = Tasks.Task.scale 3. t in
  check_close 1e-12 "scaled utilization" 0.6 (Tasks.Task.utilization scaled);
  Alcotest.(check bool) "bad wcet rejected" true
    (match Tasks.Task.make ~name:"x" ~wcet:0. ~period:1. with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad scale rejected" true
    (match Tasks.Task.scale 0. t with exception Invalid_argument _ -> true | _ -> false)

(* ------------------------------------------------------------ partition *)

let test_ffd_packs () =
  let tasks = [ task "a" 5. 10.; task "b" 5. 10.; task "c" 5. 10. ] in
  match Tasks.Partition.first_fit_decreasing ~n_cores:2 ~capacity:1. tasks with
  | None -> Alcotest.fail "expected a packing"
  | Some a ->
      let u = Tasks.Partition.utilizations a in
      Alcotest.(check bool) "no bin over capacity" true
        (Array.for_all (fun x -> x <= 1. +. 1e-12) u);
      check_close 1e-12 "all work placed" 1.5 (Array.fold_left ( +. ) 0. u)

let test_ffd_rejects_oversized () =
  Alcotest.(check bool) "oversized task fails" true
    (Option.is_none
       (Tasks.Partition.first_fit_decreasing ~n_cores:4 ~capacity:1.
          [ task "huge" 3. 2. ]))

let test_ffd_capacity_exhausted () =
  (* Three 0.6 tasks cannot fit on two unit-capacity cores in FFD. *)
  let tasks = [ task "a" 6. 10.; task "b" 6. 10.; task "c" 6. 10. ] in
  Alcotest.(check bool) "packing fails" true
    (Option.is_none
       (Tasks.Partition.first_fit_decreasing ~n_cores:2 ~capacity:1. tasks))

let test_wfd_balances () =
  let tasks =
    [ task "a" 4. 10.; task "b" 3. 10.; task "c" 2. 10.; task "d" 1. 10. ]
  in
  let ffd =
    Option.get (Tasks.Partition.first_fit_decreasing ~n_cores:2 ~capacity:1. tasks)
  in
  let wfd =
    Option.get (Tasks.Partition.worst_fit_decreasing ~n_cores:2 ~capacity:1. tasks)
  in
  Alcotest.(check bool) "worst-fit at least as balanced" true
    (Tasks.Partition.balance wfd <= Tasks.Partition.balance ffd +. 1e-12);
  check_close 1e-12 "wfd perfectly balances this set" 0. (Tasks.Partition.balance wfd)

let test_partition_validation () =
  Alcotest.(check bool) "zero cores rejected" true
    (match Tasks.Partition.first_fit_decreasing ~n_cores:0 ~capacity:1. [] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --------------------------------------------------------------- demand *)

let test_demand_low_is_feasible () =
  let p = platform () in
  let r = Core.Demand.solve p ~demands:[| 0.7; 0.7; 0.7 |] in
  Alcotest.(check bool) "feasible" true r.Core.Demand.feasible;
  Alcotest.(check bool) "margin positive" true (r.Core.Demand.margin > 0.);
  Array.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "core %d delivers its demand" i)
        true
        (d +. 1e-6 >= 0.7))
    r.Core.Demand.delivered

let test_demand_max_is_infeasible () =
  let p = platform () in
  let r = Core.Demand.solve p ~demands:[| 1.3; 1.3; 1.3 |] in
  Alcotest.(check bool) "all-max infeasible at 60C" false r.Core.Demand.feasible;
  Alcotest.(check bool) "margin negative" true (r.Core.Demand.margin < 0.)

let test_demand_monotone_in_demand () =
  let p = platform () in
  let peak d = (Core.Demand.solve p ~demands:(Array.make 3 d)).Core.Demand.peak in
  Alcotest.(check bool) "higher demand, hotter" true (peak 1.1 > peak 0.8)

let test_demand_under_vmin_overprovisions () =
  let p = platform () in
  let r = Core.Demand.solve p ~demands:[| 0.1; 0.; 0.3 |] in
  Alcotest.(check bool) "feasible" true r.Core.Demand.feasible;
  Array.iter
    (fun d -> check_close 1e-9 "served at v_min" 0.6 d)
    r.Core.Demand.delivered

let test_demand_validation () =
  let p = platform () in
  Alcotest.(check bool) "arity checked" true
    (match Core.Demand.solve p ~demands:[| 1. |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "range checked" true
    (match Core.Demand.solve p ~demands:[| 1.4; 1.; 1. |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "NaN rejected" true
    (match Core.Demand.solve p ~demands:[| 0.8; nan; 0.9 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_demand_schedule_verified () =
  let p = platform () in
  let r = Core.Demand.solve p ~demands:[| 1.0; 0.9; 0.8 |] in
  let scan =
    Sched.Peak.of_any_refined (Thermal.Backend.of_model p.Core.Platform.model) p.Core.Platform.power
      ~samples_per_segment:32 r.Core.Demand.schedule
  in
  check_close 0.05 "reported peak matches refined scan" r.Core.Demand.peak scan

(* ---------------------------------------------------------- feasibility *)

let taskset =
  [
    task "a" 6.0e-3 16.7e-3;
    task "b" 1.2e-3 5.0e-3;
    task "c" 2.5e-3 10.0e-3;
    task "d" 1.5e-3 2.5e-3;
    task "e" 8.0e-3 33.3e-3;
  ]

let test_feasibility_pipeline () =
  match Tasks.Feasibility.schedule_tasks (platform ()) taskset with
  | None -> Alcotest.fail "packing should succeed"
  | Some v ->
      Alcotest.(check bool) "modest set schedulable" true v.Tasks.Feasibility.schedulable;
      let total_demand = Array.fold_left ( +. ) 0. v.Tasks.Feasibility.demands in
      let total_u =
        List.fold_left (fun u t -> u +. Tasks.Task.utilization t) 0. taskset
      in
      check_close 1e-9 "demands = utilizations" total_u total_demand

let test_capacity_factor_brackets () =
  let p = platform () in
  let f = Tasks.Feasibility.capacity_factor ~tol:1e-2 p taskset in
  Alcotest.(check bool) "capacity factor positive" true (f > 0.5);
  (* Below the factor: schedulable; well above: not. *)
  let at g =
    match Tasks.Feasibility.schedule_tasks p (List.map (Tasks.Task.scale g) taskset) with
    | Some v -> v.Tasks.Feasibility.schedulable
    | None -> false
  in
  Alcotest.(check bool) "below capacity ok" true (at (f *. 0.9));
  Alcotest.(check bool) "above capacity fails" false (at (f *. 1.1))

let test_worst_fit_capacity_at_least_first_fit () =
  let p = platform () in
  let wfd = Tasks.Feasibility.capacity_factor ~tol:1e-2 p taskset in
  let ffd = Tasks.Feasibility.capacity_factor ~strategy:`First_fit ~tol:1e-2 p taskset in
  Alcotest.(check bool) "balanced packing never loses capacity" true (wfd >= ffd -. 1e-2)

let () =
  Alcotest.run "tasks"
    [
      ("task", [ Alcotest.test_case "basics" `Quick test_task_basics ]);
      ( "partition",
        [
          Alcotest.test_case "ffd packs" `Quick test_ffd_packs;
          Alcotest.test_case "ffd rejects oversized" `Quick test_ffd_rejects_oversized;
          Alcotest.test_case "ffd capacity exhausted" `Quick test_ffd_capacity_exhausted;
          Alcotest.test_case "wfd balances" `Quick test_wfd_balances;
          Alcotest.test_case "validation" `Quick test_partition_validation;
        ] );
      ( "demand",
        [
          Alcotest.test_case "low demand feasible" `Quick test_demand_low_is_feasible;
          Alcotest.test_case "max demand infeasible" `Quick test_demand_max_is_infeasible;
          Alcotest.test_case "monotone" `Quick test_demand_monotone_in_demand;
          Alcotest.test_case "over-provisioning" `Quick test_demand_under_vmin_overprovisions;
          Alcotest.test_case "validation" `Quick test_demand_validation;
          Alcotest.test_case "schedule verified" `Quick test_demand_schedule_verified;
        ] );
      ( "feasibility",
        [
          Alcotest.test_case "pipeline" `Quick test_feasibility_pipeline;
          Alcotest.test_case "capacity brackets" `Slow test_capacity_factor_brackets;
          Alcotest.test_case "wfd >= ffd capacity" `Slow
            test_worst_fit_capacity_at_least_first_fit;
        ] );
    ]
