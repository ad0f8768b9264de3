(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Section III motivation + Tables II/III, Figs. 2-7, Table V) plus the
   ablations DESIGN.md calls out, printing paper-shaped rows with the
   paper's reported numbers alongside for comparison.

   Part 2 runs Bechamel micro-benchmarks — one Test.make per reproduced
   table/figure kernel — and prints the OLS time estimates. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------- part 1 *)

let reproduce_all () =
  Experiments.Exp_common.section "PART 1: table/figure reproduction";
  Experiments.Exp_motivation.print (Experiments.Exp_motivation.run ());
  Experiments.Exp_fig2.print (Experiments.Exp_fig2.run ());
  Experiments.Exp_fig3.print (Experiments.Exp_fig3.run ());
  Experiments.Exp_fig4.print (Experiments.Exp_fig4.run ());
  Experiments.Exp_fig5.print (Experiments.Exp_fig5.run ());
  Experiments.Exp_fig6.print (Experiments.Exp_fig6.run ());
  Experiments.Exp_fig7.print (Experiments.Exp_fig7.run ());
  Experiments.Exp_table5.print (Experiments.Exp_table5.run ());
  Experiments.Exp_ablations.print (Experiments.Exp_ablations.run ());
  Experiments.Exp_sensitivity.print (Experiments.Exp_sensitivity.run ());
  Experiments.Exp_tasks.print (Experiments.Exp_tasks.run ());
  Experiments.Exp_pareto.print (Experiments.Exp_pareto.run ());
  Experiments.Exp_3d.print (Experiments.Exp_3d.run ())

(* ------------------------------------------------------------- part 2 *)

(* One Bechamel test per reproduced table/figure, exercising the kernel
   that experiment leans on. *)
let tests () =
  let pm = Power.Power_model.default in
  let seq_params = { Core.Solver.default_params with Core.Solver.par = false } in
  let model3 =
    Thermal.Hotspot.core_level
      (Thermal.Floorplan.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)
  in
  let model9 =
    Thermal.Hotspot.core_level
      (Thermal.Floorplan.grid ~rows:3 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)
  in
  let p3 = Workload.Configs.platform ~cores:3 ~levels:2 ~t_max:65. in
  let p6_4 = Workload.Configs.platform ~cores:6 ~levels:4 ~t_max:65. in
  let p9 = Workload.Configs.platform ~cores:9 ~levels:2 ~t_max:55. in
  let rng = Random.State.make [| 11 |] in
  let sched9 =
    Workload.Random_sched.step_up rng ~n_cores:9 ~period:9.836 ~max_intervals:5
      ~levels:(Power.Vf.table_iv 5)
  in
  let b9 = Thermal.Backend.of_model model9 in
  let profile9 = Sched.Peak.profile b9 pm sched9 in
  let sched2 =
    Sched.Schedule.two_mode ~period:0.1 ~low:[| 0.6; 0.6 |] ~high:[| 1.3; 1.3 |]
      ~high_ratio:[| 0.5; 0.5 |]
  in
  let model2 =
    Thermal.Hotspot.core_level
      (Thermal.Floorplan.grid ~rows:1 ~cols:2 ~core_width:4e-3 ~core_height:4e-3)
  in
  let a9 = Thermal.Model.a_matrix model9 in
  let b2 = Thermal.Backend.of_model model2 and b3 = Thermal.Backend.of_model model3 in
  [
    (* Tables II/III: the ideal solve on the 3x1 platform. *)
    Test.make ~name:"table2-3/motivation-ideal"
      (Staged.stage (fun () -> ignore (Core.Ideal.solve p3)));
    (* Fig. 2: dense peak scan of an arbitrary 2-core schedule. *)
    Test.make ~name:"fig2/peak-scan-2core"
      (Staged.stage (fun () ->
           ignore (Sched.Peak.of_any b2 pm ~samples_per_segment:32 sched2)));
    (* Fig. 3: one phase-grid peak evaluation (the sweep's inner loop). *)
    Test.make ~name:"fig3/phase-grid-point"
      (Staged.stage (fun () ->
           let s =
             Workload.Random_sched.phase_grid ~n_cores:3 ~period:6. ~v_low:0.6
               ~v_high:1.3 ~offsets:[| 3.; 1.2; 4.2 |]
           in
           ignore (Sched.Peak.of_any b3 pm ~samples_per_segment:24 s)));
    (* Fig. 4: the (I-K)^{-1} stable-status solve on 9 cores. *)
    Test.make ~name:"fig4-5/matex-stable-9core"
      (Staged.stage (fun () -> ignore (Thermal.Matex.stable_start model9 profile9)));
    (* Fig. 5: one m-oscillation peak evaluation. *)
    Test.make ~name:"fig5/oscillate-peak"
      (Staged.stage (fun () ->
           ignore
             (Sched.Peak.of_step_up b9 pm (Sched.Oscillate.oscillate 10 sched9))));
    (* Figs. 6/7 + Table V: the policies themselves, pulled from the
       registry exactly as the experiments run them.  Each kernel gets a
       cache-disabled context (cache_size 0) so it measures the real
       search, not memo-table replay.  The unsuffixed kernels force the
       sequential path (comparable across revisions); the -par twins run
       the same search on the shared domain pool. *)
    (let lns = Core.Registry.find_exn "lns"
     and ev9 = Core.Eval.create ~cache_size:0 p9 in
     Test.make ~name:"fig6-7/lns-9core"
       (Staged.stage (fun () -> ignore (Core.Solver.run ~params:seq_params lns ev9))));
    (let exs = Core.Registry.find_exn "exs"
     and ev6 = Core.Eval.create ~cache_size:0 p6_4 in
     Test.make ~name:"fig6-7/exs-6core-4lv"
       (Staged.stage (fun () -> ignore (Core.Solver.run ~params:seq_params exs ev6))));
    (let exs = Core.Registry.find_exn "exs"
     and ev6 = Core.Eval.create ~cache_size:0 p6_4 in
     Test.make ~name:"fig6-7/exs-6core-4lv-par"
       (Staged.stage (fun () -> ignore (Core.Solver.run exs ev6))));
    (let ao = Core.Registry.find_exn "ao"
     and ev3 = Core.Eval.create ~cache_size:0 p3 in
     Test.make ~name:"fig6-7/ao-3core"
       (Staged.stage (fun () -> ignore (Core.Solver.run ~params:seq_params ao ev3))));
    (let ao = Core.Registry.find_exn "ao"
     and ev3 = Core.Eval.create ~cache_size:0 p3 in
     Test.make ~name:"fig6-7/ao-3core-par"
       (Staged.stage (fun () -> ignore (Core.Solver.run ao ev3))));
    (* Response-engine payoff on the policy search itself: AO through a
       shared context whose lazily built engine (and the per-model
       engine cache behind it) stays warm across runs, with the memo
       tables disabled so the kernel measures evaluation, not replay. *)
    (let ao = Core.Registry.find_exn "ao"
     and ev3 = Core.Eval.create ~cache_size:0 p3 in
     ignore (Core.Eval.backend ev3 : Thermal.Backend.t);
     Test.make ~name:"ext/ao-3core-response"
       (Staged.stage (fun () -> ignore (Core.Solver.run ~params:seq_params ao ev3))));
    (* Superposed streaming stable-status peak vs the dense (I - K) LU
       reference (test oracle, propagators rebuilt per call) on the same
       9-core profile — the per-candidate cost the response engine
       removes. *)
    Test.make ~name:"ext/peak-superpose-vs-lu/superpose"
      (Staged.stage (fun () ->
           ignore (Sched.Peak.profile_end_peak b9 profile9)));
    Test.make ~name:"ext/peak-superpose-vs-lu/lu"
      (Staged.stage (fun () ->
           ignore
             (Thermal.Model.max_core_temp model9
                (Oracle.Reference.stable_start model9 profile9))));
    (* Eval-cache payoff: the full comparison sweep with a fresh context
       every run (cold) vs one shared context whose memo tables persist
       across runs (warm).  The gap is the memoization win. *)
    Test.make ~name:"ext/eval-cache-cold-3core"
      (Staged.stage (fun () ->
           ignore (Experiments.Exp_common.run_policies ~cores:3 ~levels:3 ~t_max:65. ())));
    (let warm = Core.Eval.create (Workload.Configs.platform ~cores:3 ~levels:3 ~t_max:65.) in
     Test.make ~name:"ext/eval-cache-warm-3core"
       (Staged.stage (fun () ->
            ignore
              (Experiments.Exp_common.run_policies ~eval:warm ~cores:3 ~levels:3
                 ~t_max:65. ()))));
    (* Numeric kernels under everything above. *)
    Test.make ~name:"kernel/expm-9x9"
      (Staged.stage (fun () -> ignore (Oracle.Expm.expm_scaled a9 0.01)));
    Test.make ~name:"kernel/sym-eig-9x9"
      (Staged.stage (fun () ->
           let sym =
             Linalg.Mat.init 9 9 (fun i j ->
                 Linalg.Mat.get a9 i j +. Linalg.Mat.get a9 j i)
           in
           ignore (Linalg.Sym_eig.decompose sym)));
    Test.make ~name:"kernel/steady-state-9core"
      (Staged.stage (fun () ->
           ignore (Thermal.Model.steady_core_temps model9 (Array.make 9 15.))));
    (* Extension kernels. *)
    (let grid = Thermal.Grid_model.build ~subdivisions:3 (Thermal.Floorplan.grid ~rows:1 ~cols:3 ~core_width:4e-3 ~core_height:4e-3) in
     let psi = Thermal.Grid_model.expand_powers grid (Array.make 3 15.) in
     let profile = [ { Thermal.Matex.duration = 0.05; psi } ] in
     Test.make ~name:"ext/grid-27cell-stable"
       (Staged.stage (fun () ->
            ignore (Thermal.Matex.stable_start grid.Thermal.Grid_model.model profile))));
    (* Two-tier candidate evaluation at 64+ cells: the same AO-style
       m sweep (fixed per-core duty ratios, period shrinking with m)
       priced two ways.  The screened arm scores every candidate on the
       Lanczos-reduced backend and re-verifies only the near-minimum
       survivors through the sparse engine (cache disabled, so each
       survivor pays its real stable-status solve); the ROM tier arm
       below scores the batch alone. *)
    (let eng64 =
       Thermal.Sparse_response.of_spec
         (Thermal.Grid_model.sheet_spec ~rows:8 ~cols:8 ())
     in
     let b64 = Thermal.Backend.of_response eng64 in
     let rom64 = Thermal.Backend.of_reduced (Thermal.Reduced.of_response eng64) in
     let low = Array.make 64 0.8 and high = Array.make 64 1.3 in
     let high_ratio =
       Array.init 64 (fun i -> 0.2 +. (0.6 *. float_of_int (i mod 8) /. 7.))
     in
     let period m = 0.1 /. float_of_int (m + 1) in
     let cache = Sched.Peak.Cache.create ~max_entries:0 () in
     Test.make ~name:"kernel/ao-64cell-sparse/screened"
       (Staged.stage (fun () ->
            ignore
              (Core.Screen.select ~par:false ~margin:0.5 ~n:24
                 ~rom:(fun i ->
                   Sched.Peak.of_two_mode rom64 pm ~period:(period i) ~low ~high
                     ~high_ratio)
                 ~exact:(fun i ->
                   Sched.Peak.of_two_mode_cached cache b64 pm
                     ~period:(period i) ~low ~high ~high_ratio)
                 ()))));
    (* The screening tier alone: ROM-score the full 24-candidate batch
       with no exact re-verification — the per-candidate evaluation
       throughput the reduced model buys, which the two-tier search
       approaches as the survivor fraction shrinks. *)
    (let rom64 =
       Thermal.Backend.of_reduced
         (Thermal.Reduced.of_response
            (Thermal.Sparse_response.of_spec
               (Thermal.Grid_model.sheet_spec ~rows:8 ~cols:8 ())))
     in
     let low = Array.make 64 0.8 and high = Array.make 64 1.3 in
     let high_ratio =
       Array.init 64 (fun i -> 0.2 +. (0.6 *. float_of_int (i mod 8) /. 7.))
     in
     let period m = 0.1 /. float_of_int (m + 1) in
     Test.make ~name:"kernel/ao-64cell-sparse/rom-screen-tier"
       (Staged.stage (fun () ->
            for i = 0 to 23 do
              ignore
                (Sched.Peak.of_two_mode rom64 pm ~period:(period i) ~low ~high
                   ~high_ratio)
            done)));
    (* The same two-tier sweep at 256 cells — the TPT/Demand m-sweep
       shape the 16x16 scaling study runs. *)
    (let resp256 =
       Thermal.Sparse_response.of_spec
         (Thermal.Grid_model.sheet_spec ~rows:16 ~cols:16 ())
     in
     let b256 = Thermal.Backend.of_response resp256 in
     let rom256 = Thermal.Backend.of_reduced (Thermal.Reduced.of_response resp256) in
     let low = Array.make 256 0.8 and high = Array.make 256 1.3 in
     let high_ratio =
       Array.init 256 (fun i -> 0.2 +. (0.6 *. float_of_int (i mod 16) /. 15.))
     in
     let period m = 0.1 /. float_of_int (m + 1) in
     let cache = Sched.Peak.Cache.create ~max_entries:0 () in
     Test.make ~name:"kernel/tpt-256cell-screened"
       (Staged.stage (fun () ->
            ignore
              (Core.Screen.select ~par:false ~margin:0.5 ~n:12
                 ~rom:(fun i ->
                   Sched.Peak.of_two_mode rom256 pm ~period:(period i) ~low ~high
                     ~high_ratio)
                 ~exact:(fun i ->
                   Sched.Peak.of_two_mode_cached cache b256 pm
                     ~period:(period i) ~low ~high ~high_ratio)
                 ()))));
    (* One-time sparse-engine build at 256 cells: the O(nnz) CSR
       assembly plus the n_cores + 1 pool-parallel unit CG solves a
       platform pays before its first candidate. *)
    (let spec256 = Thermal.Grid_model.sheet_spec ~rows:16 ~cols:16 () in
     Test.make ~name:"kernel/sparse-response-build-256"
       (Staged.stage (fun () ->
            ignore (Thermal.Sparse_response.of_spec spec256))));
    (* Prepared-base delta scan at 64 cells (DESIGN.md §14): one TPT
       adjust-style inner iteration priced the delta way — prepare the
       base once, score all 64 single-core duty-cycle candidates off
       it, exact-verify the winner (cache disabled).  Against the
       kernel/ao-64cell-sparse arms above, this is the per-step cost
       the delta tier leaves in the policy search. *)
    (let b64 =
       Thermal.Backend.of_response
         (Thermal.Sparse_response.of_spec (Thermal.Grid_model.sheet_spec ~rows:8 ~cols:8 ()))
     in
     let low = Array.make 64 0.8 and high = Array.make 64 1.3 in
     let high_ratio =
       Array.init 64 (fun i -> 0.2 +. (0.6 *. float_of_int (i mod 8) /. 7.))
     in
     let cache = Sched.Peak.Cache.create ~max_entries:0 () in
     Test.make ~name:"kernel/ao-64cell-delta"
       (Staged.stage (fun () ->
            Sched.Peak.two_mode_delta_base b64 pm ~period:0.05 ~low ~high
              ~high_ratio;
            let best = ref 0 and best_pk = ref infinity in
            for j = 0 to 63 do
              let pk =
                Sched.Peak.two_mode_delta_peak b64 pm ~core:j
                  ~low:low.(j) ~high:high.(j)
                  ~high_ratio:(Float.max 0. (high_ratio.(j) -. 0.05))
              in
              if pk < !best_pk then begin
                best := j;
                best_pk := pk
              end
            done;
            let hr = Array.copy high_ratio in
            hr.(!best) <- Float.max 0. (hr.(!best) -. 0.05);
            ignore
              (Sched.Peak.of_two_mode_cached cache b64 pm ~period:0.05 ~low
                 ~high ~high_ratio:hr))));
    (* One candidate priced both ways off the same 64-cell response
       engine: the delta arm scores a single-core duty change against a
       base prepared at setup; the full arm re-superposes the whole
       candidate with the cache disabled.  Their ratio is the
       per-candidate win the prepared base buys. *)
    (let b64 =
       Thermal.Backend.of_response
         (Thermal.Sparse_response.of_spec (Thermal.Grid_model.sheet_spec ~rows:8 ~cols:8 ()))
     in
     let low = Array.make 64 0.8 and high = Array.make 64 1.3 in
     let high_ratio =
       Array.init 64 (fun i -> 0.2 +. (0.6 *. float_of_int (i mod 8) /. 7.))
     in
     Sched.Peak.two_mode_delta_base b64 pm ~period:0.05 ~low ~high ~high_ratio;
     Test.make ~name:"kernel/delta-vs-full-candidate/delta"
       (Staged.stage (fun () ->
            ignore
              (Sched.Peak.two_mode_delta_peak b64 pm ~core:17
                 ~low:low.(17) ~high:high.(17)
                 ~high_ratio:(high_ratio.(17) -. 0.05)))));
    (let b64 =
       Thermal.Backend.of_response
         (Thermal.Sparse_response.of_spec (Thermal.Grid_model.sheet_spec ~rows:8 ~cols:8 ()))
     in
     let low = Array.make 64 0.8 and high = Array.make 64 1.3 in
     let high_ratio =
       Array.init 64 (fun i -> 0.2 +. (0.6 *. float_of_int (i mod 8) /. 7.))
     in
     let hr2 = Array.copy high_ratio in
     hr2.(17) <- high_ratio.(17) -. 0.05;
     let cache = Sched.Peak.Cache.create ~max_entries:0 () in
     Test.make ~name:"kernel/delta-vs-full-candidate/full"
       (Staged.stage (fun () ->
            ignore
              (Sched.Peak.of_two_mode_cached cache b64 pm ~period:0.05 ~low
                 ~high ~high_ratio:hr2))));
    (* The headroom fill at 256 cells through the full Eval/Tpt stack
       with the delta tier on: candidate scores come off the prepared
       base, exact solves only for re-verified winners.  [t_max] sits
       0.3 K above the seed config's peak so every run walks the same
       short fill trajectory. *)
    (let n = 256 in
     let period = 0.05 in
     let c0 =
       {
         Core.Tpt.period;
         v_low = Array.make n 0.8;
         v_high = Array.make n 1.3;
         high_time =
           Array.init n (fun i ->
               0.2 *. period *. float_of_int (i mod 4) /. 3.);
         offset = Array.make n 0.;
       }
     in
     let probe =
       Core.Platform.sheet ~rows:16 ~cols:16 ~levels:(Power.Vf.table_iv 5)
         ~t_max:200. ()
     in
     let ev_probe =
       Core.Eval.create ~backend:Core.Eval.Sparse ~cache_size:0 probe
     in
     let peak0 = Core.Tpt.peak probe ~eval:ev_probe c0 in
     let p =
       Core.Platform.sheet ~rows:16 ~cols:16 ~levels:(Power.Vf.table_iv 5)
         ~t_max:(peak0 +. 0.3) ()
     in
     let ev = Core.Eval.create ~backend:Core.Eval.Sparse ~cache_size:0 p in
     Test.make ~name:"kernel/fill-headroom-256-delta"
       (Staged.stage (fun () ->
            ignore
              (Core.Tpt.fill_headroom p ~eval:ev ~par:false
                 ~t_unit:(period /. 4.) ~delta_margin:1.0 c0))));
    (let profile3 = Sched.Peak.profile b3 pm (Sched.Schedule.two_mode ~period:0.1 ~low:[| 0.6; 0.6; 0.6 |] ~high:[| 1.3; 1.3; 1.3 |] ~high_ratio:[| 0.4; 0.5; 0.6 |]) in
     Test.make ~name:"ext/peak-refined-3core"
       (Staged.stage (fun () ->
            ignore (Sched.Peak.profile_refined_peak b3 ~samples_per_segment:16 profile3))));
    (let demand = Core.Registry.find_exn "demand"
     and ev =
       Core.Eval.create ~cache_size:0
         (Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:60.)
     and demands = Some [| 1.0; 0.9; 0.8 |] in
     Test.make ~name:"ext/demand-3core"
       (Staged.stage (fun () ->
            ignore
              (Core.Solver.run
                 ~params:{ Core.Solver.default_params with Core.Solver.par = false; demands }
                 demand ev))));
    (let demand = Core.Registry.find_exn "demand"
     and ev =
       Core.Eval.create ~cache_size:0
         (Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:60.)
     and demands = Some [| 1.0; 0.9; 0.8 |] in
     Test.make ~name:"ext/demand-3core-par"
       (Staged.stage (fun () ->
            ignore
              (Core.Solver.run ~params:{ Core.Solver.default_params with Core.Solver.par = true; demands } demand ev))));
    (* Fixed cost of one pool round-trip over trivial work: the
       cross-over point below which a sweep should stay sequential. *)
    (let xs = Array.init 64 (fun i -> i) in
     Test.make ~name:"kernel/pool-map-overhead"
       (Staged.stage (fun () ->
            ignore (Util.Pool.map_array (fun x -> x + 1) xs))));
    (* One simulated second of the threshold governor on a fresh dense
       context: 20 ms epochs, eight plant substeps each. *)
    (let p3g = Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:65.
     and cfg =
       {
         Runtime.Loop.default with
         Runtime.Loop.control_interval = 20e-3;
         duration = 1.;
         substeps = 8;
       }
     in
     Test.make ~name:"ext/governor-1s"
       (Staged.stage (fun () ->
            ignore
              (Runtime.Loop.run ~config:cfg (Core.Eval.create p3g)
                 (Runtime.Controllers.threshold ~guard:2. ())))));
    (* Epoch-loop throughput on the dense modal plant: 50 epochs of the
       hysteresis controller, sensing and stepping included. *)
    (let ev3 =
       Core.Eval.create ~cache_size:0
         (Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:65.)
     and cfg = { Runtime.Loop.default with Runtime.Loop.duration = 1. } in
     Test.make ~name:"ext/epoch-loop-3x3"
       (Staged.stage (fun () ->
            ignore (Runtime.Loop.run ~config:cfg ev3 (Runtime.Controllers.threshold ())))));
    (* Same loop on the 8x8 sparse-Krylov plant: what one control epoch
       costs when the plant is a 64-core sheet. *)
    (let ev64 =
       Core.Eval.create ~cache_size:0 ~backend:Core.Eval.Sparse
         (Core.Platform.sheet ~rows:8 ~cols:8 ~levels:(Power.Vf.table_iv 5)
            ~t_max:80. ())
     and cfg = { Runtime.Loop.default with Runtime.Loop.duration = 0.2 } in
     Test.make ~name:"ext/epoch-loop-8x8"
       (Staged.stage (fun () ->
            ignore (Runtime.Loop.run ~config:cfg ev64 (Runtime.Controllers.threshold ())))));
  ]

let run_bechamel ?(only = []) () =
  Experiments.Exp_common.section "PART 2: Bechamel micro-benchmarks (time per run, OLS)";
  let selected =
    match only with
    | [] -> tests ()
    | subs ->
        List.filter
          (fun t ->
            let name = Test.name t in
            List.exists
              (fun sub ->
                (* Substring match, so --only fig6-7 picks a family. *)
                let nl = String.length name and sl = String.length sub in
                let rec at i = i + sl <= nl && (String.sub name i sl = sub || at (i + 1)) in
                sl > 0 && at 0)
              subs)
          (tests ())
  in
  if selected = [] then begin
    prerr_endline "bench: --only matched no benchmarks";
    exit 2
  end;
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) () in
  (* One grouped run per test, with a compaction in between: the
     allocation-heavy kernels (the eval-cache sweeps promote hundreds of
     kilobytes per run) otherwise leave a swollen major heap that taxes
     whichever kernel happens to run after them. *)
  let raw = Hashtbl.create 64 in
  List.iter
    (fun t ->
      Gc.compact ();
      Hashtbl.iter (Hashtbl.replace raw)
        (Benchmark.all cfg instances (Test.make_grouped ~name:"fosc" [ t ])))
    selected;
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> est
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let t = Util.Table.create [ "benchmark"; "time/run" ] in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Util.Table.add_row t [ name; pretty ])
    rows;
  Util.Table.print t;
  rows

(* Machine-readable perf trajectory: benchmark name -> ns/run.  JSON
   strings need only backslash/quote escaping here because Bechamel test
   names are plain ASCII. *)
let write_json path rows =
  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  let oc = open_out path in
  output_string oc "{\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "  \"%s\": %s%s\n" (escape name)
        (if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "wrote OLS estimates to %s\n" path

(* Parse the flat { "name": ns, ... } JSON that {!write_json} emits —
   string keys, float or null values, no nesting.  A dependency-free
   hand parser is all that format needs. *)
let parse_baseline path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "%s:%d: %s" path !pos msg) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 32 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          if !pos + 1 >= len then fail "dangling escape";
          Buffer.add_char b s.[!pos + 1];
          pos := !pos + 2;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_value () =
    skip_ws ();
    let start = !pos in
    while
      !pos < len
      && match s.[!pos] with ',' | '}' | ' ' | '\t' | '\n' | '\r' -> false | _ -> true
    do
      incr pos
    done;
    match String.sub s start (!pos - start) with
    | "null" -> None
    | tok -> (
        match float_of_string_opt tok with
        | Some v -> Some v
        | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  expect '{';
  let entries = ref [] in
  skip_ws ();
  if peek () = Some '}' then incr pos
  else begin
    let rec members () =
      let key = parse_string () in
      expect ':';
      (match parse_value () with
      | Some v -> entries := (key, v) :: !entries
      | None -> ());
      skip_ws ();
      match peek () with
      | Some ',' ->
          incr pos;
          members ()
      | Some '}' -> incr pos
      | _ -> fail "expected ',' or '}'"
    in
    members ()
  end;
  List.rev !entries

(* Compare current rows against a baseline file; kernels present on only
   one side are reported but never gate.  Returns the names that
   regressed by more than [max_regression] percent. *)
let check_regressions ~baseline ~max_regression rows =
  Experiments.Exp_common.section
    (Printf.sprintf "regression gate vs %s (max +%.1f%%)" baseline max_regression);
  let base = parse_baseline baseline in
  let t = Util.Table.create [ "benchmark"; "baseline"; "current"; "delta"; "status" ] in
  let pretty ns =
    if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  let regressed = ref [] in
  List.iter
    (fun (name, ns) ->
      if not (Float.is_nan ns) then
        match List.assoc_opt name base with
        | None -> Util.Table.add_row t [ name; "-"; pretty ns; "-"; "new" ]
        | Some old ->
            let delta = 100. *. ((ns /. old) -. 1.) in
            let status =
              if delta > max_regression then begin
                regressed := name :: !regressed;
                "REGRESSED"
              end
              else "ok"
            in
            Util.Table.add_row t
              [ name; pretty old; pretty ns; Printf.sprintf "%+.1f%%" delta; status ])
    rows;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name rows) then
        Util.Table.add_row t [ name; "(not run)"; "-"; "-"; "skipped" ])
    base;
  Util.Table.print t;
  List.rev !regressed

let usage () =
  prerr_endline
    "usage: main.exe [--json <path>] [--baseline <path>] [--max-regression <pct>]\n\
    \                [--only <substr>[,<substr>...]]";
  exit 2

let () =
  let json_path = ref None in
  let baseline = ref None in
  let max_regression = ref 25. in
  let only = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | "--baseline" :: path :: rest ->
        baseline := Some path;
        parse rest
    | "--max-regression" :: pct :: rest ->
        (match float_of_string_opt pct with
        | Some v when v >= 0. -> max_regression := v
        | _ -> usage ());
        parse rest
    | "--only" :: subs :: rest ->
        only := String.split_on_char ',' subs;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* --only runs a quick targeted subset: skip the Part 1 reproduction. *)
  if !only = [] then reproduce_all ();
  let rows = run_bechamel ~only:!only () in
  (match !json_path with Some path -> write_json path rows | None -> ());
  (match !baseline with
  | None -> print_newline ()
  | Some baseline ->
      let regressed =
        check_regressions ~baseline ~max_regression:!max_regression rows
      in
      print_newline ();
      if regressed <> [] then begin
        Printf.eprintf "bench: %d benchmark(s) regressed more than %.1f%%:\n"
          (List.length regressed) !max_regression;
        List.iter (Printf.eprintf "  %s\n") regressed;
        exit 1
      end)
