(* fosc-thermsim: a standalone mini-HotSpot.

   Grid mode — build the core-level (or layered) compact model for a
   grid floorplan and trace a two-mode periodic schedule from ambient:

     fosc-thermsim --rows 1 --cols 3 --v-low 0.6 --v-high 1.3 \
                   --high-ratio 0.4 --period 0.1 --periods 8 --csv trace.csv

   HotSpot-compat mode — read a HotSpot .flp floorplan and replay a
   .ptrace power trace through the exact LTI stepper:

     fosc-thermsim --flp chip.flp --ptrace run.ptrace --interval 3.3e-3 *)

open Cmdliner

let print_model_summary ~layered model =
  Printf.printf "model: %s, %d thermal nodes, %d cores\n"
    (if layered then "layered" else "core-level")
    (Thermal.Model.n_nodes model) (Thermal.Model.n_cores model);
  Printf.printf "time constants (s): %s\n"
    (String.concat ", "
       (Array.to_list
          (Array.map (Printf.sprintf "%.3f") (Thermal.Model.time_constants model))))

let write_csv csv model trace =
  match csv with
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Thermal.Trace.to_csv_channel oc model trace);
      Printf.printf "trace written to %s\n" path
  | None ->
      let stride = Stdlib.max 1 (Array.length trace / 40) in
      Array.iteri
        (fun i s ->
          if i mod stride = 0 then
            Printf.printf "  t = %8.4fs  hottest %.2f C\n" s.Thermal.Trace.time
              (Linalg.Vec.max s.Thermal.Trace.core_temps))
        trace

(* The one place a floorplan becomes a compact model: every subcommand
   goes through here, so --export-dir applies uniformly. *)
let model_of ?export_dir ~layered fp =
  let model =
    if layered then Thermal.Hotspot.layered fp else Thermal.Hotspot.core_level fp
  in
  (match export_dir with
  | Some dir ->
      let paths = Thermal.Export.write_model ~dir ~prefix:"model" model in
      Printf.printf "model matrices exported: %s\n" (String.concat ", " paths)
  | None -> ());
  model

let run_replay ?export_dir ~flp ~ptrace ~interval ~layered ~csv () =
  let fp = Thermal.Flp.of_file flp in
  let model = model_of ?export_dir ~layered fp in
  let trace_in = Thermal.Ptrace.of_file ptrace in
  let names = Array.map (fun b -> b.Thermal.Floorplan.name) fp.Thermal.Floorplan.blocks in
  let column_map = Thermal.Ptrace.columns_for_model trace_in names in
  print_model_summary ~layered model;
  Printf.printf "replaying %d power samples at %.4gs intervals\n"
    (Array.length trace_in.Thermal.Ptrace.samples)
    interval;
  let trace = Thermal.Ptrace.replay model trace_in ~interval ~column_map in
  Printf.printf "trace peak: %.2f C\n" (Thermal.Trace.peak trace);
  write_csv csv model trace

let run_two_mode ~model ~layered ~v_low ~v_high ~high_ratio ~period ~periods ~csv
    ~gantt ~banner =
  let n = Thermal.Model.n_cores model in
  let pm = Power.Power_model.default in
  let schedule =
    Sched.Schedule.two_mode ~period ~low:(Array.make n v_low)
      ~high:(Array.make n v_high)
      ~high_ratio:(Array.make n high_ratio)
  in
  let b = Thermal.Backend.of_model model in
  let profile = Sched.Peak.profile b pm schedule in
  let trace = Thermal.Trace.from_ambient model ~periods ~samples_per_segment:16 profile in
  banner ();
  print_model_summary ~layered model;
  Printf.printf "schedule:\n";
  Format.printf "%a" Sched.Schedule.pp schedule;
  Printf.printf "trace peak over %d periods: %.2f C\n" periods (Thermal.Trace.peak trace);
  Printf.printf "stable-status peak (analytic): %.2f C\n"
    (Sched.Peak.of_any_refined b pm ~samples_per_segment:32 schedule);
  Printf.printf "periods to stable status: %d\n"
    (Thermal.Trace.periods_to_stable model profile);
  (match gantt with
  | Some path ->
      Util.Svg_plot.write path (Sched.Render.gantt_svg ~title:"thermsim schedule" schedule);
      Printf.printf "gantt chart written to %s\n" path
  | None -> ());
  write_csv csv model trace

let run_synthetic ?export_dir ~fp ~layered ~duration ~interval ~seed ~csv () =
  let model = model_of ?export_dir ~layered fp in
  let names = Array.map (fun b -> b.Thermal.Floorplan.name) fp.Thermal.Floorplan.blocks in
  let rng = Random.State.make [| seed |] in
  let trace_in =
    Workload.Phases.generate rng ~phases:Workload.Phases.default_phases ~names
      ~duration ~dt:interval ~power:Power.Power_model.default
      ~levels:(Power.Vf.table_iv 5)
  in
  let column_map = Thermal.Ptrace.columns_for_model trace_in names in
  print_model_summary ~layered model;
  Printf.printf "synthetic phased workload: %d samples at %.4gs (mean utilization %.2f)\n"
    (Array.length trace_in.Thermal.Ptrace.samples)
    interval
    (Workload.Phases.mean_utilization Workload.Phases.default_phases);
  let trace = Thermal.Ptrace.replay model trace_in ~interval ~column_map in
  Printf.printf "trace peak: %.2f C\n" (Thermal.Trace.peak trace);
  write_csv csv model trace

let run rows cols layered v_low v_high high_ratio period periods csv flp ptrace
    interval synthetic seed gantt export_dir =
  match (flp, ptrace, synthetic) with
  | _, Some _, Some _ ->
      prerr_endline "fosc-thermsim: --ptrace and --synthetic are exclusive";
      exit 2
  | flp, None, Some duration ->
      let fp =
        match flp with
        | Some path -> Thermal.Flp.of_file path
        | None -> Thermal.Floorplan.grid ~rows ~cols ~core_width:4e-3 ~core_height:4e-3
      in
      run_synthetic ?export_dir ~fp ~layered ~duration ~interval ~seed ~csv ()
  | flp, ptrace, None ->
  match (flp, ptrace) with
  | Some flp, Some ptrace ->
      run_replay ?export_dir ~flp ~ptrace ~interval ~layered ~csv ()
  | Some flp, None ->
      let fp = Thermal.Flp.of_file flp in
      run_two_mode ~model:(model_of ?export_dir ~layered fp) ~layered ~v_low ~v_high
        ~high_ratio ~period ~periods ~csv ~gantt ~banner:(fun () ->
          Printf.printf "floorplan: %s (%d blocks)\n" flp (Thermal.Floorplan.n_blocks fp))
  | None, Some _ ->
      prerr_endline "fosc-thermsim: --ptrace requires --flp";
      exit 2
  | None, None ->
      let fp = Thermal.Floorplan.grid ~rows ~cols ~core_width:4e-3 ~core_height:4e-3 in
      run_two_mode ~model:(model_of ?export_dir ~layered fp) ~layered ~v_low ~v_high
        ~high_ratio ~period ~periods ~csv ~gantt ~banner:(fun () ->
          Printf.printf "platform: %dx%d cores\n" rows cols)

let pos_int name default doc = Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)

let pos_float name default doc =
  Arg.(value & opt float default & info [ name ] ~docv:"X" ~doc)

let () =
  let rows = pos_int "rows" 1 "Grid rows." in
  let cols = pos_int "cols" 3 "Grid columns." in
  let layered =
    Arg.(value & flag & info [ "layered" ] ~doc:"Use the die+spreader+sink model.")
  in
  let v_low = pos_float "v-low" 0.6 "Low-mode supply voltage (V)." in
  let v_high = pos_float "v-high" 1.3 "High-mode supply voltage (V)." in
  let high_ratio = pos_float "high-ratio" 0.5 "Fraction of the period at v-high." in
  let period = pos_float "period" 0.1 "Schedule period (s)." in
  let periods = pos_int "periods" 8 "Number of periods to simulate from ambient." in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write the full per-core trace as CSV.")
  in
  let flp =
    Arg.(
      value
      & opt (some file) None
      & info [ "flp" ] ~docv:"FILE" ~doc:"HotSpot .flp floorplan to load.")
  in
  let ptrace =
    Arg.(
      value
      & opt (some file) None
      & info [ "ptrace" ] ~docv:"FILE"
          ~doc:"HotSpot .ptrace power trace to replay (needs --flp).")
  in
  let interval = pos_float "interval" 3.333e-3 "Seconds per .ptrace sample row." in
  let synthetic =
    Arg.(
      value
      & opt (some float) None
      & info [ "synthetic" ] ~docv:"SECONDS"
          ~doc:
            "Generate a synthetic Markov-phased workload of this duration and              replay it (instead of a schedule or a .ptrace).")
  in
  let seed = pos_int "seed" 1 "Random seed for --synthetic." in
  let gantt =
    Arg.(
      value
      & opt (some string) None
      & info [ "gantt" ] ~docv:"FILE" ~doc:"Render the schedule as an SVG Gantt chart.")
  in
  let export_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "export-dir" ] ~docv:"DIR"
          ~doc:"Dump the compact model's A/eigenvalue/response matrices as CSV.")
  in
  let term =
    Term.(
      const run $ rows $ cols $ layered $ v_low $ v_high $ high_ratio $ period
      $ periods $ csv $ flp $ ptrace $ interval $ synthetic $ seed $ gantt
      $ export_dir)
  in
  let info =
    Cmd.info "fosc-thermsim" ~version:"1.0.0"
      ~doc:
        "Mini-HotSpot: trace periodic two-mode schedules or replay HotSpot \
         .flp/.ptrace inputs"
  in
  exit (Cmd.eval (Cmd.v info term))
