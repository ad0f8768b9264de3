type result = {
  schedule : Sched.Schedule.t;
  series : (int * float) list;
  monotone : bool;
}

let run ?(seed = 7) ?(m_max = 50) () =
  let model =
    Thermal.Hotspot.core_level
      (Thermal.Floorplan.grid ~rows:3 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)
  in
  let pm = Power.Power_model.default in
  let b = Thermal.Backend.of_model model in
  let rng = Random.State.make [| seed |] in
  let schedule =
    Workload.Random_sched.step_up rng ~n_cores:9 ~period:9.836 ~max_intervals:5
      ~levels:(Power.Vf.table_iv 5)
  in
  let series =
    List.init m_max (fun k ->
        let m = k + 1 in
        (m, Sched.Peak.of_step_up b pm (Sched.Oscillate.oscillate m schedule)))
  in
  let monotone =
    let rec check = function
      | (_, a) :: ((_, b) :: _ as rest) -> b <= a +. 0.05 && check rest
      | [ _ ] | [] -> true
    in
    check series
  in
  { schedule; series; monotone }

let print r =
  Exp_common.section "Fig. 5 - m-Oscillating peak vs m (3x3 = 9 cores, 9.836s period)";
  List.iter
    (fun (m, peak) ->
      if m <= 10 || m mod 5 = 0 then Printf.printf "  m = %3d: peak %.2f C\n" m peak)
    r.series;
  let _, first = List.hd r.series in
  let _, last = List.nth r.series (List.length r.series - 1) in
  Printf.printf "peak drop from m=1 to m=%d: %.2f C\n" (List.length r.series)
    (first -. last);
  Printf.printf "monotone non-increasing (Theorem 5): %b\n" r.monotone

let to_csv path r =
  Util.Csv.write path ~header:[ "m"; "peak" ]
    (List.map (fun (m, p) -> [ float_of_int m; p ]) r.series)
