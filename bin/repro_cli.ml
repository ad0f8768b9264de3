(* fosc-experiments: regenerate any table or figure of the paper from the
   command line, optionally dumping CSV series / SVG figures next to the
   printed rows.

     fosc-experiments motivation
     fosc-experiments fig3 --step 0.3 --csv-dir out/
     fosc-experiments policies --list
     fosc-experiments policies --run ao --cores 3 --levels 5
     fosc-experiments all

   Every experiment registers one { name; doc; run } record below; the
   Cmdliner plumbing (shared flags, CSV/SVG directory handling, the
   [all] aggregate) is generated from that list, so adding an experiment
   is one entry here rather than a hand-rolled subcommand. *)

open Cmdliner

(* ------------------------------------------------- shared context/flags *)

(* Every experiment receives the full flag set and reads what it needs;
   unused flags are simply ignored, which keeps the driver uniform. *)
type ctx = {
  step : float;  (** Fig. 3 phase-grid resolution, seconds. *)
  seed : int;  (** Random seed for generated schedules (figs. 4/5). *)
  m_max : int;  (** Largest oscillation count for the Fig. 5 sweep. *)
  t_max : float;  (** Temperature threshold for the Fig. 6 sweep. *)
  duration : float;  (** Simulated seconds per cell of the race. *)
  csv_dir : string option;
  svg_dir : string option;
}

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

(* [csv ctx file write] / [svg ctx file render]: run the dump only when
   the matching --csv-dir/--svg-dir flag was given, creating the
   directory on first use — the boilerplate every experiment shared. *)
let csv ctx file write =
  match ctx.csv_dir with
  | Some dir -> write (Filename.concat (ensure_dir dir) file)
  | None -> ()

let svg ctx file render =
  match ctx.svg_dir with
  | Some dir -> Util.Svg_plot.write (Filename.concat (ensure_dir dir) file) (render ())
  | None -> ()

let policy_series rows ~x_of =
  let series name project =
    {
      Util.Svg_plot.label = name;
      points = List.map (fun r -> (x_of r, project r)) rows;
    }
  in
  [
    series "LNS" (fun (r : Experiments.Exp_common.policy_row) -> r.lns);
    series "EXS" (fun (r : Experiments.Exp_common.policy_row) -> r.exs);
    series "AO" (fun (r : Experiments.Exp_common.policy_row) -> r.ao);
    series "PCO" (fun (r : Experiments.Exp_common.policy_row) -> r.pco);
  ]

(* Fig. 6/7 share the one-SVG-panel-per-core-count rendering. *)
let per_core_panels ctx ~file_prefix ~title ~x_label ~x_of rows =
  List.iter
    (fun cores ->
      let panel =
        List.filter
          (fun (row : Experiments.Exp_common.policy_row) -> row.cores = cores)
          rows
      in
      svg ctx
        (Printf.sprintf "%s_%dcores.svg" file_prefix cores)
        (fun () ->
          Util.Svg_plot.line_chart ~title:(title cores) ~x_label
            ~y_label:"throughput" (policy_series panel ~x_of)))
    Workload.Configs.core_counts

(* --------------------------------------------------- experiment registry *)

type experiment = { name : string; doc : string; run : ctx -> unit }

let experiments =
  [
    {
      name = "motivation";
      doc = "Section III example, Tables II/III";
      run = (fun _ -> Experiments.Exp_motivation.print (Experiments.Exp_motivation.run ()));
    };
    {
      name = "fig2";
      doc = "Fig. 2: single-core oscillation counterexample";
      run = (fun _ -> Experiments.Exp_fig2.print (Experiments.Exp_fig2.run ()));
    };
    {
      name = "fig3";
      doc = "Fig. 3: step-up bound over phase-shifted schedules";
      run =
        (fun ctx ->
          let r = Experiments.Exp_fig3.run ~step:ctx.step () in
          Experiments.Exp_fig3.print r;
          csv ctx "fig3_peak_surface.csv" (fun path -> Experiments.Exp_fig3.to_csv path r);
          svg ctx "fig3.svg" (fun () ->
              Util.Svg_plot.heatmap ~title:"Fig. 3: peak temperature vs phase offsets"
                ~x_label:"x2 (s)" ~y_label:"x3 (s)" r.Experiments.Exp_fig3.peaks));
    };
    {
      name = "fig4";
      doc = "Fig. 4: 6-core step-up temperature trace";
      run =
        (fun ctx ->
          let r = Experiments.Exp_fig4.run ~seed:ctx.seed () in
          Experiments.Exp_fig4.print r;
          match ctx.csv_dir with
          | Some dir ->
              let dir = ensure_dir dir in
              Experiments.Exp_fig4.to_csv
                ~warmup_path:(Filename.concat dir "fig4_warmup.csv")
                ~stable_path:(Filename.concat dir "fig4_stable.csv")
                r
          | None -> ());
    };
    {
      name = "fig5";
      doc = "Fig. 5: 9-core peak vs oscillation count";
      run =
        (fun ctx ->
          let r = Experiments.Exp_fig5.run ~seed:ctx.seed ~m_max:ctx.m_max () in
          Experiments.Exp_fig5.print r;
          csv ctx "fig5_peak_vs_m.csv" (fun path -> Experiments.Exp_fig5.to_csv path r);
          svg ctx "fig5.svg" (fun () ->
              Util.Svg_plot.line_chart
                ~title:"Fig. 5: peak temperature vs m (9 cores)" ~x_label:"m"
                ~y_label:"peak temperature (C)"
                [
                  {
                    Util.Svg_plot.label = "peak";
                    points =
                      List.map
                        (fun (m, p) -> (float_of_int m, p))
                        r.Experiments.Exp_fig5.series;
                  };
                ]));
    };
    {
      name = "fig6";
      doc = "Fig. 6: throughput across cores x levels";
      run =
        (fun ctx ->
          let r = Experiments.Exp_fig6.run ~t_max:ctx.t_max () in
          Experiments.Exp_fig6.print r;
          csv ctx "fig6_throughput.csv" (fun path -> Experiments.Exp_fig6.to_csv path r);
          per_core_panels ctx ~file_prefix:"fig6"
            ~title:(Printf.sprintf "Fig. 6: throughput vs levels (%d cores)")
            ~x_label:"voltage levels"
            ~x_of:(fun row -> float_of_int row.levels)
            r.Experiments.Exp_fig6.rows);
    };
    {
      name = "fig7";
      doc = "Fig. 7: throughput vs temperature threshold";
      run =
        (fun ctx ->
          let r = Experiments.Exp_fig7.run () in
          Experiments.Exp_fig7.print r;
          csv ctx "fig7_throughput_vs_tmax.csv" (fun path ->
              Experiments.Exp_fig7.to_csv path r);
          per_core_panels ctx ~file_prefix:"fig7"
            ~title:(Printf.sprintf "Fig. 7: throughput vs T_max (%d cores)")
            ~x_label:"T_max (C)"
            ~x_of:(fun row -> row.t_max)
            r.Experiments.Exp_fig7.rows);
    };
    {
      name = "table5";
      doc = "Table V: computation-time comparison";
      run =
        (fun ctx ->
          let r = Experiments.Exp_table5.run () in
          Experiments.Exp_table5.print r;
          csv ctx "table5_times.csv" (fun path -> Experiments.Exp_table5.to_csv path r));
    };
    {
      name = "ablations";
      doc = "Design-choice ablations (DESIGN.md)";
      run = (fun _ -> Experiments.Exp_ablations.print (Experiments.Exp_ablations.run ()));
    };
    {
      name = "sensitivity";
      doc = "Theorem-1 exceedance vs coupling strength";
      run =
        (fun ctx ->
          let r = Experiments.Exp_sensitivity.run () in
          Experiments.Exp_sensitivity.print r;
          csv ctx "sensitivity_theorem1.csv" (fun path ->
              Experiments.Exp_sensitivity.to_csv path r));
    };
    {
      name = "tasks";
      doc = "Task-level thermal capacity by partitioning strategy";
      run =
        (fun ctx ->
          let r = Experiments.Exp_tasks.run () in
          Experiments.Exp_tasks.print r;
          csv ctx "tasks_capacity.csv" (fun path -> Experiments.Exp_tasks.to_csv path r));
    };
    {
      name = "pareto";
      doc = "Throughput/energy frontier under AO";
      run =
        (fun ctx ->
          let r = Experiments.Exp_pareto.run () in
          Experiments.Exp_pareto.print r;
          csv ctx "pareto_frontier.csv" (fun path -> Experiments.Exp_pareto.to_csv path r);
          svg ctx "pareto.svg" (fun () -> Experiments.Exp_pareto.to_svg r));
    };
    {
      name = "race";
      doc = "Online controllers vs offline schedules across sensing scenarios";
      run =
        (fun ctx ->
          let r = Experiments.Exp_race.run ~duration:ctx.duration ~seed:ctx.seed () in
          Experiments.Exp_race.print r;
          csv ctx "race.csv" (fun path -> Experiments.Exp_race.to_csv path r);
          svg ctx "race_throughput.svg" (fun () -> Experiments.Exp_race.to_svg r));
    };
    {
      name = "stacking3d";
      doc = "Planar vs 3D-stacked platform comparison";
      run =
        (fun ctx ->
          let r = Experiments.Exp_3d.run () in
          Experiments.Exp_3d.print r;
          csv ctx "stacking3d.csv" (fun path -> Experiments.Exp_3d.to_csv path r));
    };
  ]

(* -------------------------------------------------- policies subcommand *)

let print_policy_list ~markdown =
  if markdown then begin
    print_endline "| policy | set | description |";
    print_endline "|--------|-----|-------------|";
    List.iter
      (fun (p : Core.Solver.t) ->
        Printf.printf "| `%s` | %s | %s |\n" p.Core.Solver.name
          (if p.Core.Solver.comparison then "comparison" else "extension")
          p.Core.Solver.doc)
      Core.Registry.all
  end
  else begin
    let t = Util.Table.create [ "policy"; "set"; "description" ] in
    List.iter
      (fun (p : Core.Solver.t) ->
        Util.Table.add_row t
          [
            p.Core.Solver.name;
            (if p.Core.Solver.comparison then "comparison" else "extension");
            p.Core.Solver.doc;
          ])
      Core.Registry.all;
    Util.Table.print t
  end

let run_one_policy ~name ~cores ~grid ~levels ~t_max ~seq ~backend =
  let policy = Core.Registry.find_exn name in
  let platform, cores =
    match grid with
    | Some (rows, cols) ->
        ( Core.Platform.grid ~rows ~cols ~levels:(Power.Vf.table_iv levels)
            ~t_max (),
          rows * cols )
    | None -> (Workload.Configs.platform ~cores ~levels ~t_max, cores)
  in
  (* Screening is opt-in at the library level; the CLI's sparse runs opt
     in at the 0.5 K margin DESIGN.md §12 calibrates (no-op on Dense). *)
  let ev = Core.Eval.create ~backend ~screen_margin:0.5 platform in
  let params = { Core.Solver.default_params with Core.Solver.par = not seq } in
  let o = Core.Solver.run ~params policy ev in
  Printf.printf "%s — %s\n" policy.Core.Solver.name policy.Core.Solver.doc;
  Printf.printf "platform: %d cores, %d levels, T_max %.1f C (%s backend)\n\n"
    cores levels t_max
    (match backend with Core.Eval.Dense -> "dense" | Core.Eval.Sparse -> "sparse");
  Printf.printf "throughput   %.4f\n" o.Core.Solver.throughput;
  Printf.printf "peak         %.2f C\n" o.Core.Solver.peak;
  Printf.printf "wall time    %.4f s\n" o.Core.Solver.wall_time;
  Printf.printf "evaluations  %d\n" o.Core.Solver.evaluations;
  Printf.printf "speeds       [%s]\n"
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%.4f") o.Core.Solver.voltages)));
  (match o.Core.Solver.schedule with
  | Some s -> Format.printf "schedule:@\n%a@?" Sched.Schedule.pp s
  | None -> ());
  let stats = Core.Eval.stats ev in
  Printf.printf
    "eval cache   %.0f%% hit rate (steady %d/%d, step-up %d/%d hits/lookups)\n"
    (100. *. Core.Eval.hit_rate ev)
    stats.Core.Eval.steady.Sched.Peak.Cache.hits
    (stats.Core.Eval.steady.Sched.Peak.Cache.hits
    + stats.Core.Eval.steady.Sched.Peak.Cache.misses)
    stats.Core.Eval.stepup.Sched.Peak.Cache.hits
    (stats.Core.Eval.stepup.Sched.Peak.Cache.hits
    + stats.Core.Eval.stepup.Sched.Peak.Cache.misses);
  match Core.Eval.kind ev with
  | Core.Eval.Sparse ->
      (* Reading the modal counters would force the dense engine the
         sparse context exists to avoid. *)
      Printf.printf "thermal eng  %s\n" (Core.Eval.backend ev).Thermal.Backend.name
  | Core.Eval.Dense ->
      let r = Core.Eval.response_stats ev in
      Printf.printf
        "response eng %d build%s, %d superposition evals, exp table %d/%d hits/lookups\n"
        r.Thermal.Modal.builds
        (if r.Thermal.Modal.builds = 1 then "" else "s")
        r.Thermal.Modal.superpose_evals r.Thermal.Modal.exp_hits
        (r.Thermal.Modal.exp_hits + r.Thermal.Modal.exp_misses)

(* "RxC" grid geometry, e.g. 8x8. *)
let grid_conv =
  let parse s =
    match String.split_on_char 'x' (String.lowercase_ascii (String.trim s)) with
    | [ r; c ] -> (
        match (int_of_string_opt r, int_of_string_opt c) with
        | Some r, Some c when r >= 1 && c >= 1 -> Ok (r, c)
        | _ -> Error (`Msg (Printf.sprintf "invalid grid %S, expected ROWSxCOLS (e.g. 8x8)" s)))
    | _ -> Error (`Msg (Printf.sprintf "invalid grid %S, expected ROWSxCOLS (e.g. 8x8)" s))
  in
  let print ppf (r, c) = Format.fprintf ppf "%dx%d" r c in
  Arg.conv (parse, print)

let backend_arg =
  Arg.(
    value
    & opt (enum [ ("dense", Core.Eval.Dense); ("sparse", Core.Eval.Sparse) ])
        Core.Eval.Dense
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Thermal engine pricing the candidates: $(b,dense) (modal, exact \
           eigenbasis) or $(b,sparse) (CSR + Krylov, scales past the dense \
           eigensolve).")

let policies_cmd =
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List the registered policies.")
  in
  let markdown_flag =
    Arg.(
      value & flag
      & info [ "markdown" ] ~doc:"With $(b,--list), print a Markdown table.")
  in
  let run_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "run" ] ~docv:"NAME" ~doc:"Run one registered policy by name.")
  in
  let cores_arg =
    Arg.(value & opt int 3 & info [ "cores" ] ~docv:"N" ~doc:"Core count (2, 3, 6 or 9).")
  in
  let grid_arg =
    Arg.(
      value
      & opt (some grid_conv) None
      & info [ "grid" ] ~docv:"RxC"
          ~doc:
            "Run on an $(docv) core mesh instead of $(b,--cores) (e.g. \
             $(b,--grid 8x8); pair larger grids with $(b,--backend sparse)).")
  in
  let levels_arg =
    Arg.(value & opt int 5 & info [ "levels" ] ~docv:"L" ~doc:"Voltage levels (2..5).")
  in
  let t_max_arg =
    Arg.(
      value & opt float 65. & info [ "t-max" ] ~docv:"CELSIUS" ~doc:"Peak threshold.")
  in
  let seq_flag =
    Arg.(
      value & flag
      & info [ "seq" ] ~doc:"Run the policy's search sequentially (par = false).")
  in
  let run list markdown run_name cores grid levels t_max seq backend =
    match run_name with
    | Some name -> run_one_policy ~name ~cores ~grid ~levels ~t_max ~seq ~backend
    | None ->
        ignore list;
        print_policy_list ~markdown
  in
  Cmd.v
    (Cmd.info "policies"
       ~doc:"List the solver registry or run one policy on a standard platform")
    Term.(
      const run $ list_flag $ markdown_flag $ run_arg $ cores_arg $ grid_arg
      $ levels_arg $ t_max_arg $ seq_flag $ backend_arg)

(* ---------------------------------------------------- scale subcommand *)

(* Dense-vs-sparse scaling study on single-layer core sheets.  For each
   R x C size: build the sparse engine from the spec (O(nnz) assembly
   plus the n_cores + 1 unit CG solves), then price one candidate on it
   twice — the superposed steady peak of the checkerboard load and the
   stable status of a two-segment oscillation — timing the build and
   each per-candidate answer separately.  Up to --dense-limit nodes the
   dense effective conductance is assembled and LU-solved for the same
   steady peak, a one-shot cost including factorization, and the peak
   disagreement is reported. *)

let dense_steady_peak spec psi =
  let n = Thermal.Spec.n_nodes spec in
  let g = Linalg.Sparse.to_dense (Linalg.Sparse.of_triplets ~rows:n ~cols:n (Thermal.Spec.g_eff_triplets spec)) in
  let lu = Linalg.Lu.factorize g in
  let h = Linalg.Vec.zeros n in
  Array.iteri
    (fun k node ->
      h.(node) <- psi.(k) +. (spec.Thermal.Spec.leak_beta *. spec.Thermal.Spec.ambient))
    spec.Thermal.Spec.core_nodes;
  let theta = Linalg.Lu.solve_vec lu h in
  Array.fold_left
    (fun acc node -> Float.max acc (theta.(node) +. spec.Thermal.Spec.ambient))
    neg_infinity spec.Thermal.Spec.core_nodes

(* Checkerboard load: hot cells at [power_w], cold at a quarter — enough
   spatial structure that the peak is not a uniform-field triviality. *)
let checkerboard ~rows ~cols power_w =
  Array.init (rows * cols) (fun i ->
      if ((i / cols) + (i mod cols)) mod 2 = 0 then power_w
      else 0.25 *. power_w)

let run_scale ~sizes ~dense_limit ~power_w =
  let t =
    Util.Table.create
      [ "grid"; "nodes"; "build (ms)"; "steady (ms)"; "stable (ms)"; "dense LU (ms)"; "|dpeak| (C)" ]
  in
  let ms s = Printf.sprintf "%.3f" (1e3 *. s) in
  List.iter
    (fun (rows, cols) ->
      let n = rows * cols in
      let psi = checkerboard ~rows ~cols power_w in
      let spec = Thermal.Grid_model.sheet_spec ~rows ~cols () in
      let eng, build_time = Util.Timer.time_it (fun () -> Thermal.Sparse_response.of_spec spec) in
      let s_peak, steady_time =
        Util.Timer.time_it (fun () -> Thermal.Sparse_response.steady_peak eng psi)
      in
      (* Stable status of a two-segment oscillation between the
         checkerboard and its complement — the transient the sparse
         expmv/Lanczos pipeline exists for. *)
      let psi2 = Array.map (fun p -> (1.25 *. power_w) -. p) psi in
      let profile =
        [
          { Thermal.Matex.duration = 0.05; psi };
          { Thermal.Matex.duration = 0.05; psi = psi2 };
        ]
      in
      let _, stable_time =
        Util.Timer.time_it (fun () ->
            Sched.Peak.profile_end_peak (Thermal.Backend.of_response eng) profile)
      in
      let dense_cell, dpeak_cell =
        if n <= dense_limit then begin
          let d_peak, d_time = Util.Timer.time_it (fun () -> dense_steady_peak spec psi) in
          (ms d_time, Printf.sprintf "%.2e" (Float.abs (d_peak -. s_peak)))
        end
        else ("-", "-")
      in
      Util.Table.add_row t
        [
          Printf.sprintf "%dx%d" rows cols;
          string_of_int n;
          ms build_time;
          ms steady_time;
          ms stable_time;
          dense_cell;
          dpeak_cell;
        ])
    sizes;
  Util.Table.print t

(* Policy-search throughput sweep: run one registered policy end to end
   on the sparse backend at each mesh size, reporting how many
   candidates the search priced per second and where they were answered
   (memo tables, ROM screening, superposition engine).  "Candidates"
   counts every priced schedule: exact-tier memo lookups plus
   ROM-screened scores. *)
let run_scale_policy ~name ~sizes ~levels ~t_max ~seq ~delta_margin =
  let policy = Core.Registry.find_exn name in
  Printf.printf "%s on the sparse backend — %s\n\n" policy.Core.Solver.name
    policy.Core.Solver.doc;
  let t =
    Util.Table.create
      [
        "grid"; "cores"; "wall (s)"; "cands"; "cand/s"; "cache hit";
        "screen (scored->exact)"; "delta (cached/scored/exact)";
        "response (builds/superpose/solves)";
      ]
  in
  List.iter
    (fun (rows, cols) ->
      Core.Screen.reset_stats ();
      Core.Tpt.reset_delta_stats ();
      let platform =
        Core.Platform.sheet ~rows ~cols ~levels:(Power.Vf.table_iv levels)
          ~t_max ()
      in
      let ev =
        Core.Eval.create ~backend:Core.Eval.Sparse ~screen_margin:0.5 platform
      in
      let params =
        {
          Core.Solver.default_params with
          Core.Solver.par = not seq;
          delta_margin;
        }
      in
      let o = Core.Solver.run ~params policy ev in
      let stats = Core.Eval.stats ev in
      let lookups =
        stats.Core.Eval.steady.Sched.Peak.Cache.hits
        + stats.Core.Eval.steady.Sched.Peak.Cache.misses
        + stats.Core.Eval.stepup.Sched.Peak.Cache.hits
        + stats.Core.Eval.stepup.Sched.Peak.Cache.misses
      in
      let scr = Core.Screen.stats () in
      let dlt = Core.Tpt.delta_stats () in
      let cands = lookups + scr.Core.Screen.scored + dlt.Core.Tpt.scored in
      let screen_cell =
        if scr.Core.Screen.scored = 0 then "-"
        else
          Printf.sprintf "%d->%d" scr.Core.Screen.scored
            scr.Core.Screen.survivors
      in
      let delta_cell =
        if dlt.Core.Tpt.scored = 0 && dlt.Core.Tpt.cached = 0 then "-"
        else
          Printf.sprintf "%d/%d/%d" dlt.Core.Tpt.cached dlt.Core.Tpt.scored
            dlt.Core.Tpt.exact
      in
      let response_cell =
        match Core.Eval.sparse_response_stats ev with
        | Some r ->
            Printf.sprintf "%d/%d/%d" r.Thermal.Sparse_response.builds
              r.Thermal.Sparse_response.superpose_evals
              r.Thermal.Sparse_response.stable_solves
        | None -> "-"
      in
      Util.Table.add_row t
        [
          Printf.sprintf "%dx%d" rows cols;
          string_of_int (rows * cols);
          Printf.sprintf "%.3f" o.Core.Solver.wall_time;
          string_of_int cands;
          (if o.Core.Solver.wall_time > 0. then
             Printf.sprintf "%.0f"
               (float_of_int cands /. o.Core.Solver.wall_time)
           else "-");
          Printf.sprintf "%.0f%%" (100. *. Core.Eval.hit_rate ev);
          screen_cell;
          delta_cell;
          response_cell;
        ])
    sizes;
  Util.Table.print t

let scale_cmd =
  let sizes_arg =
    Arg.(
      value
      & opt (list grid_conv) [ (3, 3); (8, 8); (16, 16); (32, 32) ]
      & info [ "sizes" ] ~docv:"RxC,..."
          ~doc:"Comma-separated sheet sizes to sweep (default 3x3,8x8,16x16,32x32).")
  in
  let dense_limit_arg =
    Arg.(
      value & opt int 1024
      & info [ "dense-limit" ] ~docv:"N"
          ~doc:"Skip the dense LU reference above $(docv) nodes.")
  in
  let power_arg =
    Arg.(
      value & opt float 8.
      & info [ "power" ] ~docv:"WATTS"
          ~doc:"Hot-cell power of the checkerboard load.")
  in
  let policy_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "policy" ] ~docv:"NAME"
          ~doc:
            "Instead of the kernel study, sweep a full $(docv) policy search \
             on the sparse backend at each size, reporting candidates/sec \
             plus memo-cache, screening and response-engine statistics.")
  in
  let levels_arg =
    Arg.(
      value & opt int 5
      & info [ "levels" ] ~docv:"L"
          ~doc:"Voltage levels for $(b,--policy) platforms (2..5).")
  in
  let t_max_arg =
    Arg.(
      value & opt float 65.
      & info [ "t-max" ] ~docv:"CELSIUS"
          ~doc:"Peak threshold for $(b,--policy) platforms.")
  in
  let seq_flag =
    Arg.(
      value & flag
      & info [ "seq" ]
          ~doc:"With $(b,--policy), run the search sequentially (par = false).")
  in
  let delta_margin_arg =
    Arg.(
      value & opt float 0.
      & info [ "delta-margin" ] ~docv:"KELVIN"
          ~doc:
            "With $(b,--policy), staleness margin for the TPT loops' \
             prepared-base delta tier (0 = exact per-core scans).  Winners \
             are always re-verified exactly; the margin only bounds which \
             stale candidate scores are re-priced after an accepted step.")
  in
  let run sizes dense_limit power_w policy levels t_max seq delta_margin =
    match policy with
    | Some name ->
        run_scale_policy ~name ~sizes ~levels ~t_max ~seq ~delta_margin
    | None -> run_scale ~sizes ~dense_limit ~power_w
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Dense-vs-sparse thermal-backend scaling study on 3x3 through 32x32 \
          core sheets, or (--policy) a policy-search throughput sweep")
    Term.(
      const run $ sizes_arg $ dense_limit_arg $ power_arg $ policy_arg
      $ levels_arg $ t_max_arg $ seq_flag $ delta_margin_arg)

(* ------------------------------------------------------------ Cmdliner *)

let ctx_term =
  let step =
    Arg.(
      value & opt float 0.6
      & info [ "step" ] ~docv:"SECONDS" ~doc:"Sweep resolution for the Fig. 3 phase grid.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed for the generated schedules.")
  in
  let m_max =
    Arg.(
      value & opt int 50
      & info [ "m-max" ] ~docv:"M" ~doc:"Largest oscillation count for the Fig. 5 sweep.")
  in
  let t_max =
    Arg.(
      value & opt float 55.
      & info [ "t-max" ] ~docv:"CELSIUS"
          ~doc:"Peak-temperature threshold (degrees C) for the Fig. 6 sweep.")
  in
  let duration =
    Arg.(
      value & opt float 6.
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Simulated seconds per cell of the $(b,race) experiment.")
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv-dir" ] ~docv:"DIR"
          ~doc:"Also write the experiment's data series as CSV files into $(docv).")
  in
  let svg_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg-dir" ] ~docv:"DIR"
          ~doc:"Also render the experiment's figure as SVG into $(docv).")
  in
  let make step seed m_max t_max duration csv_dir svg_dir =
    { step; seed; m_max; t_max; duration; csv_dir; svg_dir }
  in
  Term.(const make $ step $ seed $ m_max $ t_max $ duration $ csv_dir $ svg_dir)

let () =
  let cmd_of_experiment e =
    Cmd.v (Cmd.info e.name ~doc:e.doc) Term.(const e.run $ ctx_term)
  in
  let all =
    Cmd.v
      (Cmd.info "all" ~doc:"Every experiment in paper order")
      Term.(const (fun ctx -> List.iter (fun e -> e.run ctx) experiments) $ ctx_term)
  in
  let info =
    Cmd.info "fosc-experiments" ~version:"1.0.0"
      ~doc:
        "Reproduce the tables and figures of 'Performance Maximization via \
         Frequency Oscillation on Temperature Constrained Multi-core Processors' \
         (ICPP 2016)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          (List.map cmd_of_experiment experiments @ [ policies_cmd; scale_cmd; all ])))
