type config = {
  period : float;
  v_low : float array;
  v_high : float array;
  high_time : float array;
  offset : float array;
}

let validate c =
  let n = Array.length c.v_low in
  if c.period <= 0. then invalid_arg "Tpt: non-positive period";
  if Array.length c.v_high <> n || Array.length c.high_time <> n
     || Array.length c.offset <> n
  then invalid_arg "Tpt: array arity mismatch";
  Array.iteri
    (fun i vl ->
      if vl > c.v_high.(i) +. 1e-12 then
        invalid_arg (Printf.sprintf "Tpt: core %d has v_low > v_high" i);
      if c.high_time.(i) < -1e-12 || c.high_time.(i) > c.period +. 1e-12 then
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

(* Reduced-model score for aligned configs, reduced scan for shifted
   ones. *)
let rom_peak (p : Platform.t) ?eval c =
  let ev = Eval.for_platform eval p in
  if is_aligned c then begin
    validate c;
    Eval.rom_two_mode_peak ev ~period:c.period ~low:c.v_low ~high:c.v_high
      ~high_ratio:(two_mode_ratio c)
  end
  else Eval.rom_any_peak ev ~samples_per_segment:16 (schedule_of_config c)

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

(* Fan the per-core candidate evaluations (each a full stable-status
   schedule evaluation) across the context's domain pool.  The reduction
   over the returned array stays sequential and ordered, so the choice —
   and the whole adjustment trajectory — is identical at any pool size.
   [par:false] keeps everything on the calling domain, as does a small
   [work] product (cores * nodes — the same floating-point-volume gate
   AO's m sweep uses): on a handful of cores a fused candidate
   evaluation is ~1 us, far below the cost of waking the pool. *)
let eval_candidates ev ~par ~work n f =
  if par && work >= 32768 then begin
    let pool = Eval.pool ev in
    Util.Pool.init ~pool ~chunk:(Util.Pool.chunk_hint ~pool n) n f
  end
  else Array.init n f

let adjust_to_constraint (p : Platform.t) ?eval ?t_unit ?(dense = false)
    ?(par = true) ?(delta_margin = 0.) c =
  validate c;
  if not (delta_margin >= 0.) then
    invalid_arg "Tpt.adjust_to_constraint: negative delta_margin";
  let t_unit = match t_unit with Some u -> u | None -> c.period /. 100. in
  if t_unit <= 0. then invalid_arg "Tpt.adjust_to_constraint: non-positive t_unit";
  let ev = Eval.for_platform eval p in
  let n = Array.length c.v_low in
  let work = n * Thermal.Model.n_nodes p.model in
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
  let exact_loop () =
    let rec loop c temps current_peak steps =
      if current_peak <= p.t_max +. 1e-9 then (c, steps)
      else begin
        let hottest = Linalg.Vec.argmax temps in
        let candidates =
          eval_candidates ev ~par ~work n (fun j ->
              if adjustable c j t_unit then
                Some (hot_metric ev (with_high_time c j (-.t_unit)))
              else None)
        in
        (* TPT index: peak reduction at the hottest core per unit of
           throughput given up on core j. *)
        let best = ref None in
        for j = 0 to n - 1 do
          match candidates.(j) with
          | None -> ()
          | Some candidate_temps ->
              let dt = temps.(hottest) -. candidate_temps.(hottest) in
              let tpt = dt /. ((c.v_high.(j) -. c.v_low.(j)) *. t_unit) in
              (match !best with
              | Some (_, best_tpt) when best_tpt >= tpt -> ()
              | _ -> best := Some (j, tpt))
        done;
        match !best with
        | None -> (c, steps) (* nothing left to trade; caller checks peak *)
        | Some (j, _) ->
            (* The winning candidate's scan evaluation already computed
               its end-of-period temps: reuse them for the next
               iteration instead of re-evaluating the accepted config. *)
            let temps' =
              match candidates.(j) with Some t -> t | None -> assert false
            in
            let c' = with_high_time c j (-.t_unit) in
            loop c' temps' (peak_of c' temps') (steps + 1)
      end
    in
    let temps = hot_metric ev c in
    loop c temps (peak_of c temps) 0
  in
  let delta_loop () =
    let score = Array.make n infinity in
    let have = Array.make n false in
    let last_hottest = ref (-1) in
    (* A candidate's two-mode ratio after giving up one [t_unit],
       replicating [with_high_time]'s clamp then [two_mode_ratio]'s. *)
    let cand_ratio c j =
      let ht = Float.max 0. (Float.min c.period (c.high_time.(j) -. t_unit)) in
      Float.max 0. (Float.min 1. (ht /. c.period))
    in
    let rec loop c temps current_peak steps =
      if current_peak <= p.t_max +. 1e-9 then (c, steps)
      else begin
        let hottest = Linalg.Vec.argmax temps in
        if hottest <> !last_hottest then begin
          (* Stale scores are temperatures at the previous hottest core —
             not comparable; drop the cache and re-score everything. *)
          Array.fill have 0 n false;
          last_hottest := hottest
        end;
        (* Prepare the accepted config's drive once; each candidate is
           then a single-core delta off it — O(n) dense, O(m * cores)
           sparse — evaluated sequentially on this domain (the prepared
           base lives in domain-local scratch). *)
        Eval.two_mode_delta_base ev ~period:c.period ~low:c.v_low
          ~high:c.v_high ~high_ratio:(two_mode_ratio c);
        let best_stale = ref infinity in
        for j = 0 to n - 1 do
          if have.(j) && adjustable c j t_unit && score.(j) < !best_stale then
            best_stale := score.(j)
        done;
        let cached = ref 0 and scored = ref 0 in
        for j = 0 to n - 1 do
          if adjustable c j t_unit then begin
            if have.(j) && score.(j) > !best_stale +. delta_margin then
              (* An accepted step moved every candidate's score by about
                 the same amount, so a stale score this far from the
                 best cannot have become competitive: keep it. *)
              incr cached
            else begin
              score.(j) <-
                Eval.two_mode_delta_temp_at ev ~at:hottest ~core:j
                  ~low:c.v_low.(j) ~high:c.v_high.(j)
                  ~high_ratio:(cand_ratio c j);
              have.(j) <- true;
              incr scored
            end
          end
          else have.(j) <- false
        done;
        ignore (Atomic.fetch_and_add tally_cached !cached : int);
        ignore (Atomic.fetch_and_add tally_scored !scored : int);
        let best = ref None in
        for j = 0 to n - 1 do
          if adjustable c j t_unit then begin
            let dt = temps.(hottest) -. score.(j) in
            let tpt = dt /. ((c.v_high.(j) -. c.v_low.(j)) *. t_unit) in
            match !best with
            | Some (_, best_tpt) when best_tpt >= tpt -> ()
            | _ -> best := Some (j, tpt)
          end
        done;
        match !best with
        | None -> (c, steps)
        | Some (j, _) ->
            (* Exact verification of the winner before acting on it:
               delta scores never feed the termination test or the next
               iteration's hottest-core read. *)
            let c' = with_high_time c j (-.t_unit) in
            let temps' = hot_metric ev c' in
            ignore (Atomic.fetch_and_add tally_exact 1 : int);
            have.(j) <- false;
            loop c' temps' (Linalg.Vec.max temps') (steps + 1)
      end
    in
    let temps = hot_metric ev c in
    loop c temps (Linalg.Vec.max temps) 0
  in
  (* The delta tier only prices aligned fused candidates. *)
  if delta_margin > 0. && fused then delta_loop () else exact_loop ()

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
  let t_unit = match t_unit with Some u -> u | None -> c.period /. 100. in
  if t_unit <= 0. then invalid_arg "Tpt.fill_headroom: non-positive t_unit";
  let ev = Eval.for_platform eval p in
  let n = Array.length c.v_low in
  let work = n * Thermal.Model.n_nodes p.model in
  (* [base_peak] is the peak of [c], threaded through the loop: it is
     loop-invariant across the candidate scan (each candidate evaluation
     is a full schedule evaluation, so recomputing it per core was pure
     waste) and the chosen candidate's peak seeds the next iteration. *)
  let exact_loop () =
    let rec loop c base_peak steps =
      if base_peak > p.t_max -. 1e-9 then (c, steps)
      else begin
        let candidate_peaks =
          eval_candidates ev ~par ~work n (fun j ->
              if raisable c j t_unit then
                Some (exact_peak ev ~dense:false (with_high_time c j t_unit))
              else None)
        in
        (* Among raisable cores, pick the largest throughput gain per
           degree of headroom consumed, among those that stay feasible. *)
        let best = ref None in
        for j = 0 to n - 1 do
          match candidate_peaks.(j) with
          | Some candidate_peak when candidate_peak <= p.t_max +. 1e-9 ->
              let gain = (c.v_high.(j) -. c.v_low.(j)) *. t_unit in
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
    loop c (exact_peak ev ~dense:false c) 0
  in
  let delta_loop () =
    let score = Array.make n infinity in
    let have = Array.make n false in
    let exact_backed = Array.make n false in
    (* A candidate's two-mode ratio after gaining one [t_unit],
       replicating [with_high_time]'s clamp then [two_mode_ratio]'s. *)
    let cand_ratio c j =
      let ht = Float.max 0. (Float.min c.period (c.high_time.(j) +. t_unit)) in
      Float.max 0. (Float.min 1. (ht /. c.period))
    in
    let rec loop c base_peak steps =
      if base_peak > p.t_max -. 1e-9 then (c, steps)
      else begin
        Eval.two_mode_delta_base ev ~period:c.period ~low:c.v_low
          ~high:c.v_high ~high_ratio:(two_mode_ratio c);
        let best_stale = ref infinity in
        for j = 0 to n - 1 do
          if have.(j) && raisable c j t_unit && score.(j) < !best_stale then
            best_stale := score.(j)
        done;
        let cached = ref 0 and scored = ref 0 in
        for j = 0 to n - 1 do
          if raisable c j t_unit then begin
            if have.(j) && score.(j) > !best_stale +. delta_margin then
              incr cached
            else begin
              score.(j) <-
                Eval.two_mode_delta_peak ev ~core:j ~low:c.v_low.(j)
                  ~high:c.v_high.(j) ~high_ratio:(cand_ratio c j);
              have.(j) <- true;
              incr scored
            end
          end
          else have.(j) <- false
        done;
        ignore (Atomic.fetch_and_add tally_cached !cached : int);
        ignore (Atomic.fetch_and_add tally_scored !scored : int);
        Array.fill exact_backed 0 n false;
        (* Re-pick until the arg-best candidate is exact-backed: a delta
           (or stale) score may flatter a candidate near the feasibility
           boundary, so the winner's feasibility and headroom cost are
           always re-read from a full exact evaluation before being
           accepted.  Each pass verifies at most one new candidate, so
           the inner loop runs at most n times. *)
        let rec pick () =
          let best = ref None in
          for j = 0 to n - 1 do
            if raisable c j t_unit && have.(j) && score.(j) <= p.t_max +. 1e-9
            then begin
              let gain = (c.v_high.(j) -. c.v_low.(j)) *. t_unit in
              let cost = Float.max 1e-12 (score.(j) -. base_peak) in
              let index = gain /. cost in
              match !best with
              | Some (_, best_index) when best_index >= index -> ()
              | _ -> best := Some (j, index)
            end
          done;
          match !best with
          | None -> None
          | Some (j, _) when exact_backed.(j) -> Some j
          | Some (j, _) ->
              score.(j) <- exact_peak ev ~dense:false (with_high_time c j t_unit);
              exact_backed.(j) <- true;
              ignore (Atomic.fetch_and_add tally_exact 1 : int);
              pick ()
        in
        match pick () with
        | None -> (c, steps)
        | Some j ->
            (* [score.(j)] is exact-backed here: it seeds the next
               iteration's base peak exactly as the exact loop's does. *)
            let candidate_peak = score.(j) in
            have.(j) <- false;
            loop (with_high_time c j t_unit) candidate_peak (steps + 1)
      end
    in
    loop c (exact_peak ev ~dense:false c) 0
  in
  if delta_margin > 0. && is_aligned c then delta_loop () else exact_loop ()

let throughput (p : Platform.t) c =
  Sched.Throughput.with_overhead ~tau:p.tau (schedule_of_config c)
