(* End-to-end integration tests: the full policy pipeline on the paper's
   platforms, cross-model validation, and the util helpers the benches
   rely on. *)

let check_close tol = Alcotest.(check (float tol))

(* ------------------------------------------------- policy pipeline, 2..3 *)

let run_all ~cores ~levels ~t_max =
  let p = Workload.Configs.platform ~cores ~levels ~t_max in
  let lns = Core.Lns.solve p in
  let exs = Core.Exs.solve p in
  let ao = Core.Ao.solve p in
  let pco = Core.Pco.solve p in
  (p, lns, exs, ao, pco)

let test_policy_ordering_2core () =
  let p, lns, exs, ao, pco = run_all ~cores:2 ~levels:2 ~t_max:65. in
  Alcotest.(check bool) "LNS <= EXS" true
    (lns.Core.Lns.throughput <= exs.Core.Exs.throughput +. 1e-9);
  Alcotest.(check bool) "LNS <= AO" true
    (lns.Core.Lns.throughput <= ao.Core.Ao.throughput +. 1e-9);
  Alcotest.(check bool) "AO <= PCO + eps" true
    (ao.Core.Ao.throughput <= pco.Core.Pco.throughput +. 1e-6);
  Alcotest.(check bool) "all peaks below T_max" true
    (lns.Core.Lns.peak <= p.Core.Platform.t_max +. 1e-6
    && exs.Core.Exs.peak <= p.Core.Platform.t_max +. 1e-6
    && ao.Core.Ao.peak <= p.Core.Platform.t_max +. 1e-6
    && pco.Core.Pco.peak <= p.Core.Platform.t_max +. 0.05)

let test_policy_ordering_3core_all_levels () =
  List.iter
    (fun levels ->
      let _, lns, exs, ao, _ = run_all ~cores:3 ~levels ~t_max:65. in
      Alcotest.(check bool)
        (Printf.sprintf "EXS >= LNS (%d levels)" levels)
        true
        (exs.Core.Exs.throughput >= lns.Core.Lns.throughput -. 1e-9);
      Alcotest.(check bool)
        (Printf.sprintf "AO >= LNS (%d levels)" levels)
        true
        (ao.Core.Ao.throughput >= lns.Core.Lns.throughput -. 1e-9))
    [ 2; 3; 4; 5 ]

let test_gap_shrinks_with_levels () =
  (* Fig. 6's headline: AO's edge over EXS shrinks as levels grow. *)
  let gap levels =
    let _, _, exs, ao, _ = run_all ~cores:3 ~levels ~t_max:65. in
    ao.Core.Ao.throughput -. exs.Core.Exs.throughput
  in
  Alcotest.(check bool) "gap(2 levels) > gap(5 levels)" true (gap 2 > gap 5)

let test_throughput_monotone_in_tmax () =
  (* Fig. 7's shape: higher T_max, higher throughput, for every policy. *)
  let at t_max =
    let _, lns, exs, ao, _ = run_all ~cores:3 ~levels:2 ~t_max in
    (lns.Core.Lns.throughput, exs.Core.Exs.throughput, ao.Core.Ao.throughput)
  in
  let l50, e50, a50 = at 50. in
  let l65, e65, a65 = at 65. in
  Alcotest.(check bool) "LNS monotone" true (l65 >= l50 -. 1e-9);
  Alcotest.(check bool) "EXS monotone" true (e65 >= e50 -. 1e-9);
  Alcotest.(check bool) "AO monotone" true (a65 >= a50 -. 1e-9)

let test_ao_schedule_verified_by_dense_scan () =
  (* The AO pipeline trusts Theorem 1; double-check its final schedule
     against the dense scanner on the full thermal model. *)
  let p = Workload.Configs.platform ~cores:3 ~levels:2 ~t_max:65. in
  let ao = Core.Ao.solve p in
  let scan =
    Sched.Peak.of_any (Thermal.Backend.of_model p.Core.Platform.model) p.Core.Platform.power
      ~samples_per_segment:64 ao.Core.Ao.schedule
  in
  Alcotest.(check bool) "dense scan confirms T_max" true
    (scan <= p.Core.Platform.t_max +. 0.05)

let test_six_core_pipeline () =
  (* One bigger platform exercised end to end (6 cores, 3 levels). *)
  let p, lns, exs, ao, _pco = run_all ~cores:6 ~levels:3 ~t_max:60. in
  Alcotest.(check int) "6 cores" 6 (Core.Platform.n_cores p);
  Alcotest.(check bool) "EXS >= LNS" true
    (exs.Core.Exs.throughput >= lns.Core.Lns.throughput -. 1e-9);
  Alcotest.(check bool) "AO feasible" true (ao.Core.Ao.peak <= 60. +. 1e-6);
  Alcotest.(check bool) "AO >= LNS" true
    (ao.Core.Ao.throughput >= lns.Core.Lns.throughput -. 1e-9)

let test_3d_platform_pipeline () =
  (* The 3D stack runs the same pipeline; upper-layer cores are hotter so
     the ideal solve must assign them lower voltages. *)
  let p = Workload.Configs.platform_3d ~layers:2 ~rows:1 ~cols:2 ~levels:2 ~t_max:65. in
  let ideal = Core.Ideal.solve p in
  let v = ideal.Core.Ideal.voltages in
  (* Cores 0,1 are on the package-attached layer; 2,3 stacked above. *)
  Alcotest.(check bool) "stacked cores run slower" true (v.(2) < v.(0) && v.(3) < v.(1));
  let ao = Core.Ao.solve p in
  Alcotest.(check bool) "AO meets constraint on 3D" true (ao.Core.Ao.peak <= 65. +. 1e-6)

let test_sixteen_core_stress () =
  (* Beyond the paper's largest (9-core) platform: a 4x4 mesh end to end.
     Checks scaling sanity, not paper numbers. *)
  let p =
    Core.Platform.grid ~rows:4 ~cols:4 ~levels:(Power.Vf.table_iv 3) ~t_max:55. ()
  in
  Alcotest.(check int) "16 cores" 16 (Core.Platform.n_cores p);
  let ao, elapsed = Util.Timer.time_it (fun () -> Core.Ao.solve p) in
  Alcotest.(check bool) "feasible" true (ao.Core.Ao.peak <= 55. +. 1e-6);
  Alcotest.(check bool) "beats LNS" true
    (ao.Core.Ao.throughput >= (Core.Lns.solve p).Core.Lns.throughput -. 1e-9);
  Alcotest.(check bool) "solves in reasonable time" true (elapsed < 30.);
  (* Interior cores are hotter, so the ideal solve must slow them down. *)
  let ideal = Core.Ideal.solve p in
  let v = ideal.Core.Ideal.voltages in
  (* Corner core (0,0) = index 0; interior core (1,1) = index 5. *)
  Alcotest.(check bool) "corner faster than interior" true (v.(0) > v.(5))

(* ----------------------------------------------- cross-model validation *)

let test_ao_schedule_on_layered_model () =
  (* Run AO against the core-level model, then re-evaluate its schedule on
     the finer layered network: the peak should agree within a couple of
     degrees, showing that the core-level lumping is sound. *)
  let fp = Thermal.Floorplan.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3 in
  let p = Workload.Configs.platform ~cores:3 ~levels:2 ~t_max:65. in
  let ao = Core.Ao.solve p in
  let layered = Thermal.Hotspot.layered fp in
  let layered_peak =
    Sched.Peak.of_any (Thermal.Backend.of_model layered) p.Core.Platform.power ~samples_per_segment:32
      ao.Core.Ao.schedule
  in
  Alcotest.(check bool) "layered model within 8C of core-level" true
    (Float.abs (layered_peak -. ao.Core.Ao.peak) < 8.)

let test_stable_status_vs_transient_sim () =
  (* The whole pipeline rests on Eq. (4); verify it against a brute-force
     multi-period transient of the AO schedule. *)
  let p = Workload.Configs.platform ~cores:2 ~levels:2 ~t_max:60. in
  let ao = Core.Ao.solve p in
  let profile =
    Sched.Peak.profile (Thermal.Backend.of_model p.Core.Platform.model) p.Core.Platform.power ao.Core.Ao.schedule
  in
  let periods =
    Thermal.Trace.periods_to_stable p.Core.Platform.model ~tol:1e-9 profile
  in
  let trace =
    Thermal.Trace.from_ambient p.Core.Platform.model ~periods:(periods + 5)
      ~samples_per_segment:8 profile
  in
  let last_period_peak =
    (* Only inspect the tail (stable) period of the warm-up trace. *)
    let t_end = trace.(Array.length trace - 1).Thermal.Trace.time in
    let period = Thermal.Matex.period profile in
    Array.fold_left
      (fun acc s ->
        if s.Thermal.Trace.time >= t_end -. period then
          Float.max acc (Linalg.Vec.max s.Thermal.Trace.core_temps)
        else acc)
      neg_infinity trace
  in
  check_close 0.05 "warm-up converges to the analytic stable peak" ao.Core.Ao.peak
    last_period_peak

(* ------------------------------------------------------------------ util *)

let test_stats () =
  let s = Util.Stats.summarize [| 1.; 2.; 3.; 4. |] in
  check_close 1e-12 "mean" 2.5 s.Util.Stats.mean;
  check_close 1e-9 "stddev" (sqrt (5. /. 3.)) s.Util.Stats.stddev;
  check_close 1e-12 "min" 1. s.Util.Stats.min;
  check_close 1e-12 "max" 4. s.Util.Stats.max;
  check_close 1e-12 "median" 2.5 (Util.Stats.percentile [| 1.; 2.; 3.; 4. |] 50.);
  check_close 1e-9 "geomean" (Float.exp (Float.log 8. /. 3.))
    (Util.Stats.geometric_mean [| 1.; 2.; 4. |])

let test_timer () =
  let x, elapsed = Util.Timer.time_it (fun () -> 42) in
  Alcotest.(check int) "result passed through" 42 x;
  Alcotest.(check bool) "non-negative time" true (elapsed >= 0.)

let test_csv_roundtrip () =
  let path = Filename.temp_file "fosc_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Util.Csv.write path ~header:[ "a"; "b" ] [ [ 1.; 2. ]; [ 3.; 4. ] ];
      let ic = open_in path in
      let lines = List.init 3 (fun _ -> input_line ic) in
      close_in ic;
      Alcotest.(check (list string)) "csv contents" [ "a,b"; "1,2"; "3,4" ] lines)

let test_csv_labelled () =
  let path = Filename.temp_file "fosc_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Util.Csv.write_labelled path ~header:[ "name"; "x" ] [ ("a", [ 1. ]); ("b", [ 2. ]) ];
      let ic = open_in path in
      let lines = List.init 3 (fun _ -> input_line ic) in
      close_in ic;
      Alcotest.(check (list string)) "labelled csv" [ "name,x"; "a,1"; "b,2" ] lines;
      Alcotest.(check bool) "arity enforced" true
        (match Util.Csv.write_labelled path ~header:[ "name"; "x" ] [ ("a", [ 1.; 2. ]) ] with
        | exception Invalid_argument _ -> true
        | _ -> false))

let test_stats_edges () =
  Alcotest.(check bool) "percentile out of range" true
    (match Util.Stats.percentile [| 1. |] 120. with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_close 1e-12 "single-element percentile" 1. (Util.Stats.percentile [| 1. |] 50.);
  check_close 1e-12 "single-element stddev" 0.
    (Util.Stats.summarize [| 3. |]).Util.Stats.stddev;
  Alcotest.(check bool) "geomean rejects non-positive" true
    (match Util.Stats.geometric_mean [| 1.; 0. |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_parallel_map_matches_sequential () =
  let xs = List.init 57 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "same results, same order" (List.map f xs)
    (Util.Pool.map f xs);
  let single = Util.Pool.create ~size:1 () in
  Alcotest.(check (list int)) "degenerate single domain" (List.map f xs)
    (Util.Pool.map ~pool:single f xs);
  Util.Pool.shutdown single;
  Alcotest.(check (list int)) "empty input" [] (Util.Pool.map f [])

let test_parallel_map_propagates_exceptions () =
  Alcotest.(check bool) "exception propagates" true
    (match
       Util.Pool.map
         (fun x -> if x = 5 then failwith "boom" else x)
         (List.init 10 (fun i -> i))
     with
    | exception Failure msg -> msg = "boom"
    | _ -> false)

let test_parallel_real_workload () =
  (* Policies built inside domains: exercises that the pipeline is safe
     to run concurrently. *)
  let results =
    Util.Pool.map
      (fun cores ->
        let p = Workload.Configs.platform ~cores ~levels:2 ~t_max:60. in
        (Core.Lns.solve p).Core.Lns.throughput)
      [ 2; 3; 2; 3 ]
  in
  Alcotest.(check int) "all results back" 4 (List.length results);
  Alcotest.(check bool) "repeat configs agree" true
    (List.nth results 0 = List.nth results 2 && List.nth results 1 = List.nth results 3)

let test_table_renders () =
  let t = Util.Table.create [ "name"; "value" ] in
  Util.Table.add_row t [ "x"; "1" ];
  Util.Table.add_float_row t ~label:"y" [ 2.5 ];
  Alcotest.(check bool) "arity enforced" true
    (match Util.Table.add_row t [ "only-one" ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_svg_line_chart () =
  let svg =
    Util.Svg_plot.line_chart ~title:"t" ~x_label:"x" ~y_label:"y"
      [
        { Util.Svg_plot.label = "a"; points = [ (0., 1.); (1., 2.); (2., 1.5) ] };
        { Util.Svg_plot.label = "b"; points = [ (0., 0.); (2., 3.) ] };
      ]
  in
  let has s = String.length svg > 0 && String.length s > 0 &&
    (let found = ref false in
     let n = String.length svg and m = String.length s in
     for i = 0 to n - m do
       if String.sub svg i m = s then found := true
     done;
     !found)
  in
  Alcotest.(check bool) "svg root" true (has "<svg");
  Alcotest.(check bool) "two polylines" true (has "<polyline");
  Alcotest.(check bool) "legend labels" true (has ">a</text>" && has ">b</text>");
  Alcotest.(check bool) "closed document" true (has "</svg>")

let test_svg_line_chart_rejects_empty () =
  Alcotest.(check bool) "no data rejected" true
    (match
       Util.Svg_plot.line_chart ~title:"t" ~x_label:"x" ~y_label:"y"
         [ { Util.Svg_plot.label = "a"; points = [] } ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "non-finite rejected" true
    (match
       Util.Svg_plot.line_chart ~title:"t" ~x_label:"x" ~y_label:"y"
         [ { Util.Svg_plot.label = "a"; points = [ (0., Float.nan) ] } ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_svg_heatmap () =
  let cells =
    List.concat_map
      (fun i -> List.map (fun j -> (float_of_int i, float_of_int j, float_of_int (i + j)))
          [ 0; 1; 2 ])
      [ 0; 1; 2 ]
  in
  let svg = Util.Svg_plot.heatmap ~title:"h" ~x_label:"x" ~y_label:"y" cells in
  let count_rects =
    let n = ref 0 in
    let m = String.length svg in
    for i = 0 to m - 5 do
      if String.sub svg i 5 = "<rect" then incr n
    done;
    !n
  in
  (* 9 cells + background + frame + 2 legend swatches. *)
  Alcotest.(check int) "rect count" 13 count_rects;
  Alcotest.(check bool) "escaped title tooltips" true
    (String.length svg > 0)

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "2-core ordering" `Quick test_policy_ordering_2core;
          Alcotest.test_case "3-core all levels" `Quick test_policy_ordering_3core_all_levels;
          Alcotest.test_case "gap shrinks with levels" `Quick test_gap_shrinks_with_levels;
          Alcotest.test_case "monotone in T_max" `Quick test_throughput_monotone_in_tmax;
          Alcotest.test_case "AO verified by scan" `Quick test_ao_schedule_verified_by_dense_scan;
          Alcotest.test_case "6-core pipeline" `Slow test_six_core_pipeline;
          Alcotest.test_case "16-core stress" `Slow test_sixteen_core_stress;
          Alcotest.test_case "3D platform" `Quick test_3d_platform_pipeline;
        ] );
      ( "cross-model",
        [
          Alcotest.test_case "layered re-evaluation" `Quick test_ao_schedule_on_layered_model;
          Alcotest.test_case "stable status vs transient" `Quick test_stable_status_vs_transient_sim;
        ] );
      ( "util",
        [
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "timer" `Quick test_timer;
          Alcotest.test_case "csv" `Quick test_csv_roundtrip;
          Alcotest.test_case "csv labelled" `Quick test_csv_labelled;
          Alcotest.test_case "stats edges" `Quick test_stats_edges;
          Alcotest.test_case "table" `Quick test_table_renders;
          Alcotest.test_case "parallel map" `Quick test_parallel_map_matches_sequential;
          Alcotest.test_case "parallel exceptions" `Quick test_parallel_map_propagates_exceptions;
          Alcotest.test_case "parallel policies" `Quick test_parallel_real_workload;
          Alcotest.test_case "svg line chart" `Quick test_svg_line_chart;
          Alcotest.test_case "svg rejects bad input" `Quick test_svg_line_chart_rejects_empty;
          Alcotest.test_case "svg heatmap" `Quick test_svg_heatmap;
        ] );
    ]
