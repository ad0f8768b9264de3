type result = {
  config : Tpt.config;
  schedule : Sched.Schedule.t;
  m : int;
  throughput : float;
  peak : float;
  ao : Ao.result;
  fill_steps : int;
}

let solve ?eval ?base_period ?m_cap ?t_unit ?(offsets_per_core = 8) ?(rounds = 1)
    ?(par = true) ?(delta_margin = 0.) (p : Platform.t) =
  if offsets_per_core < 1 then invalid_arg "Pco.solve: offsets_per_core < 1";
  if rounds < 1 then invalid_arg "Pco.solve: rounds < 1";
  let ev = Eval.for_platform eval p in
  let ao = Ao.solve ~eval:ev ?base_period ?m_cap ?t_unit ~par ~delta_margin p in
  let scan c = Eval.any_peak ev ~samples_per_segment:16 (Tpt.schedule_of_config c) in
  let n = Platform.n_cores p in
  let config = ref ao.Ao.config in
  (* Greedy per-core phase search: core 0 stays put (only relative phase
     matters); each following core tries a grid of shifts and keeps the
     one minimizing the dense-scan peak.  Later rounds revisit every
     core against the others' chosen offsets.  Each core's grid (the
     incumbent at slot 0, then the shifts) is one screened argmin sweep;
     the incumbent's exact peak is what a shift must beat, so it always
     survives screening. *)
  let period = !config.Tpt.period in
  for _round = 1 to rounds do
  for i = 1 to n - 1 do
    let base = !config in
    let offset_for k = period *. float_of_int k /. float_of_int offsets_per_core in
    let candidate k =
      if k = 0 then base
      else begin
        let offset = Array.copy base.Tpt.offset in
        offset.(i) <- offset_for k;
        { base with Tpt.offset }
      end
    in
    let best, _ =
      Screen.argmin ev ~par ~always:[ 0 ] ~n:offsets_per_core
        ~rom:(fun k ->
          Eval.rom_any_peak ev ~samples_per_segment:16
            (Tpt.schedule_of_config (candidate k)))
        ~exact:(fun k -> scan (candidate k))
    in
    config := candidate best
  done
  done;
  (* De-phasing can only have lowered the peak; convert the headroom back
     into throughput. *)
  (* The delta tier only prices aligned configs, so it self-disables
     here whenever the phase search actually staggered a core. *)
  let filled, fill_steps =
    Tpt.fill_headroom p ~eval:ev ?t_unit ~par ~delta_margin !config
  in
  let schedule = Tpt.schedule_of_config filled in
  {
    config = filled;
    schedule;
    m = ao.Ao.m;
    throughput = Tpt.throughput p filled;
    peak = scan filled;
    ao;
    fill_steps;
  }

type Solver.details += Details of result

let policy =
  {
    Solver.name = "pco";
    doc = "Phase-conscious oscillation: AO plus greedy per-core phase staggering";
    comparison = true;
    solve =
      (fun ev (prm : Solver.params) ->
        Solver.timed_outcome ev (fun () ->
            let p = Eval.platform ev in
            let r =
              solve ~eval:ev ~par:prm.Solver.par
                ~delta_margin:prm.Solver.delta_margin p
            in
            {
              Solver.voltages = Solver.delivered_speeds p r.schedule;
              schedule = Some r.schedule;
              throughput = r.throughput;
              peak = r.peak;
              wall_time = 0.;
              evaluations = 0;
              details = Details r;
            }));
  }
