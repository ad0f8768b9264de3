type config = {
  period : float;
  v_low : float array;
  v_high : float array;
  high_time : float array;
  offset : float array;
}

let validate c =
  let n = Array.length c.v_low in
  if not (c.period > 0.) then invalid_arg "Tpt: non-positive period";
  if Array.length c.v_high <> n || Array.length c.high_time <> n
     || Array.length c.offset <> n
  then invalid_arg "Tpt: array arity mismatch";
  Array.iteri
    (fun i vl ->
      if vl > c.v_high.(i) +. 1e-12 then
        invalid_arg (Printf.sprintf "Tpt: core %d has v_low > v_high" i);
      if not (-1e-12 <= c.high_time.(i) && c.high_time.(i) <= c.period +. 1e-12)
      then
        invalid_arg (Printf.sprintf "Tpt: core %d high_time outside [0, period]" i))
    c.v_low

let is_aligned c = Array.for_all (fun o -> Float.abs o < 1e-12) c.offset

let schedule_of_config c =
  validate c;
  let n = Array.length c.v_low in
  let ratio = Array.init n (fun i -> Float.max 0. (Float.min 1. (c.high_time.(i) /. c.period))) in
  let base =
    Sched.Schedule.two_mode ~period:c.period ~low:c.v_low ~high:c.v_high
      ~high_ratio:ratio
  in
  let s = ref base in
  Array.iteri (fun i o -> if Float.abs o > 1e-12 then s := Sched.Schedule.shift !s i o) c.offset;
  !s

(* The clamped high-time ratio [schedule_of_config] hands to
   [Schedule.two_mode] — the fused evaluators take the same value so
   their decomposition is bit-identical to the schedule's. *)
let two_mode_ratio c =
  Array.init (Array.length c.v_low) (fun i ->
      Float.max 0. (Float.min 1. (c.high_time.(i) /. c.period)))

(* Every evaluator prices through an evaluation context, resolved once
   per public entry point by [Eval.for_platform] (a missing or foreign
   context becomes a memo-less dense one).  Aligned candidates take the
   fused two-mode path — no Schedule.t, no state-interval merge, which
   is most of a candidate's cost on small platforms — memoized in the
   context's schedule-keyed table: searches revisit the same candidates
   constantly (the m sweep re-derives configs, PCO re-runs AO,
   fill/adjust walk back over probed exchanges), and a hit returns the
   bit-identical float a fresh solve would have.  Shifted configs (or
   [dense]) need the scan. *)
let exact_peak ev ~dense c =
  if is_aligned c && not dense then begin
    validate c;
    Eval.two_mode_peak ev ~period:c.period ~low:c.v_low ~high:c.v_high
      ~high_ratio:(two_mode_ratio c)
  end
  else Eval.any_peak ev ~samples_per_segment:16 (schedule_of_config c)

(* Stable-status end-of-period core temperatures (the quantity the TPT
   index differentiates). *)
let hot_metric ev c =
  if is_aligned c then begin
    validate c;
    Eval.two_mode_end_core_temps ev ~period:c.period ~low:c.v_low
      ~high:c.v_high ~high_ratio:(two_mode_ratio c)
  end
  else Eval.stable_end_core_temps ev (schedule_of_config c)

let peak (p : Platform.t) ?eval ?(dense = false) c =
  exact_peak (Eval.for_platform eval p) ~dense c

(* A core can give up high time as long as ANY remains — the final
   exchange may be smaller than t_unit (with_high_time clamps at 0), so
   the loop can always drive a violating schedule all the way down to
   all-low rather than stranding a sub-quantum residue above T_max. *)
let adjustable c i _t_unit =
  c.high_time.(i) > 1e-12 && c.v_high.(i) -. c.v_low.(i) > 1e-12

let raisable c i t_unit =
  c.period -. c.high_time.(i) >= t_unit -. 1e-12 && c.v_high.(i) -. c.v_low.(i) > 1e-12

let with_high_time c i dt =
  let high_time = Array.copy c.high_time in
  high_time.(i) <- Float.max 0. (Float.min c.period (high_time.(i) +. dt));
  { c with high_time }

(* ---------------------------------------- delta-tier funnel tallies *)

(* Process-wide counters of the delta-scan candidate funnel (the
   [delta_margin] branches below), mirroring [Screen]'s role in the ROM
   funnel: of every per-core candidate a step considered, how many kept
   a stale score from a previous accepted step, how many were re-priced
   through the prepared-base delta evaluators, and how many full exact
   evaluations verified winners.  [scale --policy] reports the split. *)
let tally_cached = Atomic.make 0
let tally_scored = Atomic.make 0
let tally_exact = Atomic.make 0

type delta_stats = { cached : int; scored : int; exact : int }

let delta_stats () =
  {
    cached = Atomic.get tally_cached;
    scored = Atomic.get tally_scored;
    exact = Atomic.get tally_exact;
  }

let reset_delta_stats () =
  Atomic.set tally_cached 0;
  Atomic.set tally_scored 0;
  Atomic.set tally_exact 0

(* The delta tier's stale-score cache: [score.(j)] is core j's last
   delta-priced candidate score, valid while [have.(j)]. *)
type stale = { score : float array; have : bool array }

let stale n = { score = Array.make n infinity; have = Array.make n false }

(* Bring the cache up to date for one step: re-price every [eligible]
   core through [price], except those whose stale score sits more than
   [margin] above the best stale score — an accepted step moves every
   candidate's score by about the same amount, so one that far from the
   best cannot have become competitive.  Ineligible cores drop out. *)
let refresh s ~margin ~eligible price =
  let n = Array.length s.score in
  let best_stale = ref infinity in
  for j = 0 to n - 1 do
    if s.have.(j) && eligible j && s.score.(j) < !best_stale then
      best_stale := s.score.(j)
  done;
  let cached = ref 0 and scored = ref 0 in
  for j = 0 to n - 1 do
    if eligible j then begin
      if s.have.(j) && s.score.(j) > !best_stale +. margin then incr cached
      else begin
        s.score.(j) <- price j;
        s.have.(j) <- true;
        incr scored
      end
    end
    else s.have.(j) <- false
  done;
  ignore (Atomic.fetch_and_add tally_cached !cached : int);
  ignore (Atomic.fetch_and_add tally_scored !scored : int)

(* Prepare [c]'s drive once on this domain, in one backend call: each
   delta candidate is then a single-core change off it — O(n) dense,
   O(m * cores) sparse — evaluated sequentially here, because the
   prepared base lives in the engine's per-domain scratch and is
   invisible to other pool workers. *)
let prepare_base ev c =
  Eval.two_mode_delta_base ev ~period:c.period ~low:c.v_low ~high:c.v_high
    ~high_ratio:(two_mode_ratio c)

(* Core j's two-mode ratio after moving [dt] of high time, replicating
   [with_high_time]'s clamp then [two_mode_ratio]'s. *)
let moved_ratio c j dt =
  let ht = Float.max 0. (Float.min c.period (c.high_time.(j) +. dt)) in
  Float.max 0. (Float.min 1. (ht /. c.period))

(* The core with the greatest [index j] among those where it is [Some]:
   a later core displaces the best only when strictly greater, so ties
   keep the lower core. *)
let arg_best n index =
  let best = ref None in
  for j = 0 to n - 1 do
    match index j with
    | None -> ()
    | Some x -> (
        match !best with
        | Some (_, b) when b >= x -> ()
        | _ -> best := Some (j, x))
  done;
  Option.map fst !best

let t_unit_of ~what c t_unit =
  let t_unit = match t_unit with Some u -> u | None -> c.period /. 100. in
  if not (t_unit > 0.) then invalid_arg (what ^ ": non-positive t_unit");
  t_unit

let adjust_to_constraint (p : Platform.t) ?eval ?t_unit ?(dense = false)
    ?(par = true) ?(delta_margin = 0.) c =
  validate c;
  if not (delta_margin >= 0.) then
    invalid_arg "Tpt.adjust_to_constraint: negative delta_margin";
  let t_unit = t_unit_of ~what:"Tpt.adjust_to_constraint" c t_unit in
  let ev = Eval.for_platform eval p in
  let n = Array.length c.v_low in
  let par = Screen.fan_out ~par ~work:(n * Thermal.Model.n_nodes p.model) in
  (* Offsets never change below, so the fused-path test is loop-invariant. *)
  let fused = is_aligned c && not dense in
  (* Peak of a config whose end-of-period temps vector is already in
     hand.  On the fused path the peak IS the maximum of those temps:
     the exact evaluator folds the same per-core reads of the same
     stable state, and adding the ambient is monotone, so [Vec.max]
     returns the bit-identical float — threading the winner's vector
     through the loop saves one full evaluation per accepted step. *)
  let peak_of c temps =
    if fused then Linalg.Vec.max temps else exact_peak ev ~dense c
  in
  let eligible c j = adjustable c j t_unit in
  let lowered c j = with_high_time c j (-.t_unit) in
  (* Each step prices the eligible candidates at the hottest core one of
     two ways — the delta tier (aligned fused candidates only) or the
     exact scan — and returns [score j] (candidate j's end-of-period
     temperature there) and [accept j c'] (the exact end temps of the
     winner [c']). *)
  let price =
    if delta_margin > 0. && fused then begin
      let cache = stale n and last_hottest = ref (-1) in
      fun c hottest ->
        if hottest <> !last_hottest then begin
          (* Stale scores are temperatures at the previous hottest core —
             not comparable; drop the cache and re-score everything. *)
          Array.fill cache.have 0 n false;
          last_hottest := hottest
        end;
        prepare_base ev c;
        refresh cache ~margin:delta_margin ~eligible:(eligible c) (fun j ->
            Eval.two_mode_delta_temp_at ev ~at:hottest ~core:j
              ~low:c.v_low.(j) ~high:c.v_high.(j)
              ~high_ratio:(moved_ratio c j (-.t_unit)));
        let accept j c' =
          (* Exact verification of the winner before acting on it:
             delta scores never feed the termination test or the next
             iteration's hottest-core read. *)
          ignore (Atomic.fetch_and_add tally_exact 1 : int);
          cache.have.(j) <- false;
          hot_metric ev c'
        in
        ((fun j -> cache.score.(j)), accept)
    end
    else fun c hottest ->
      (* Every score is exact, and the winner's scan evaluation already
         holds its end temps for the next iteration. *)
      let temps =
        Screen.batch ev ~par n (fun j ->
            if eligible c j then hot_metric ev (lowered c j) else [||])
      in
      ((fun j -> temps.(j).(hottest)), fun j _ -> temps.(j))
  in
  let rec loop c temps current_peak steps =
    if current_peak <= p.t_max +. 1e-9 then (c, steps)
    else begin
      let hottest = Linalg.Vec.argmax temps in
      let score, accept = price c hottest in
      (* TPT index: peak reduction at the hottest core per unit of
         throughput given up on core j. *)
      let tpt j =
        if eligible c j then
          Some
            ((temps.(hottest) -. score j)
            /. ((c.v_high.(j) -. c.v_low.(j)) *. t_unit))
        else None
      in
      match arg_best n tpt with
      | None -> (c, steps) (* nothing left to trade; caller checks peak *)
      | Some j ->
          let c' = lowered c j in
          let temps' = accept j c' in
          loop c' temps' (peak_of c' temps') (steps + 1)
    end
  in
  let temps = hot_metric ev c in
  loop c temps (peak_of c temps) 0

let scale_high_times c s =
  { c with high_time = Array.map (fun h -> h *. s) c.high_time }

let adjust_by_bisection (p : Platform.t) ?eval ?(tol = 1e-3) c =
  validate c;
  let ev = Eval.for_platform eval p in
  if exact_peak ev ~dense:false c <= p.t_max +. 1e-9 then (c, 1)
  else begin
    let evals = ref 1 in
    let feasible s =
      incr evals;
      exact_peak ev ~dense:false (scale_high_times c s) <= p.t_max +. 1e-9
    in
    if not (feasible 0.) then (scale_high_times c 0., !evals)
    else begin
      let lo = ref 0. and hi = ref 1. in
      while !hi -. !lo > tol do
        let mid = (!lo +. !hi) /. 2. in
        if feasible mid then lo := mid else hi := mid
      done;
      (scale_high_times c !lo, !evals)
    end
  end

let fill_headroom (p : Platform.t) ?eval ?t_unit ?(par = true)
    ?(delta_margin = 0.) c =
  validate c;
  if not (delta_margin >= 0.) then
    invalid_arg "Tpt.fill_headroom: negative delta_margin";
  let t_unit = t_unit_of ~what:"Tpt.fill_headroom" c t_unit in
  let ev = Eval.for_platform eval p in
  let n = Array.length c.v_low in
  let par = Screen.fan_out ~par ~work:(n * Thermal.Model.n_nodes p.model) in
  let eligible c j = raisable c j t_unit in
  let raised c j = with_high_time c j t_unit in
  (* Each step prices the eligible candidates' peaks one of two ways and
     returns [score j] and [confirm j]: whether [score j] is exact, in
     which case candidate j is taken.  Otherwise [confirm] re-prices it
     exactly and the arg-best is picked again. *)
  let price =
    if delta_margin > 0. && is_aligned c then begin
      let cache = stale n and exact = Array.make n false in
      fun c ->
        prepare_base ev c;
        refresh cache ~margin:delta_margin ~eligible:(eligible c) (fun j ->
            Eval.two_mode_delta_peak ev ~core:j ~low:c.v_low.(j)
              ~high:c.v_high.(j) ~high_ratio:(moved_ratio c j t_unit));
        Array.fill exact 0 n false;
        (* A delta (or stale) score may flatter a candidate near the
           feasibility boundary, so the winner's feasibility and headroom
           cost are always re-read from a full exact evaluation.  Each
           re-pick verifies one new candidate, so a step confirms within
           n picks. *)
        let confirm j =
          if exact.(j) then begin
            cache.have.(j) <- false;
            true
          end
          else begin
            cache.score.(j) <- exact_peak ev ~dense:false (raised c j);
            exact.(j) <- true;
            ignore (Atomic.fetch_and_add tally_exact 1 : int);
            false
          end
        in
        ((fun j -> cache.score.(j)), confirm)
    end
    else fun c ->
      let peaks =
        Screen.batch ev ~par n (fun j ->
            if eligible c j then exact_peak ev ~dense:false (raised c j)
            else nan)
      in
      ((fun j -> peaks.(j)), fun _ -> true)
  in
  (* [base_peak] is the peak of [c], threaded through the loop: the
     taken candidate's exact peak seeds the next step. *)
  let rec loop c base_peak steps =
    if base_peak > p.t_max -. 1e-9 then (c, steps)
    else begin
      let score, confirm = price c in
      (* Among raisable cores, pick the largest throughput gain per
         degree of headroom consumed, among those that stay feasible. *)
      let index j =
        if eligible c j && score j <= p.t_max +. 1e-9 then
          Some
            ((c.v_high.(j) -. c.v_low.(j)) *. t_unit
            /. Float.max 1e-12 (score j -. base_peak))
        else None
      in
      let rec pick () =
        match arg_best n index with
        | Some j when not (confirm j) -> pick ()
        | best -> best
      in
      match pick () with
      | None -> (c, steps)
      | Some j -> loop (raised c j) (score j) (steps + 1)
    end
  in
  loop c (exact_peak ev ~dense:false c) 0

let throughput (p : Platform.t) c =
  Sched.Throughput.with_overhead ~tau:p.tau (schedule_of_config c)
