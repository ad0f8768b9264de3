(* The four fosc-bench workloads.  Each builds its inputs from the seed,
   times its set-up, runs a closed loop of ops (one client; an op starts
   when the previous one returns), then checks every answer outside the
   timed region.  A traced run additionally snapshots the library's
   counters around each op, times AO's stages, probes per-call unit
   costs on cache-less twin contexts and replays a sample of ops
   sequentially; the reporter turns all of it into per-layer metrics.

   Inputs are stratified: a seed jitters each input inside a fixed
   stratum of its range instead of drawing it from the whole range, so
   two seeds pose different problems of the same difficulty and the
   end-to-end numbers stay comparable across seeds. *)

let now = Span.now

type env = {
  seed : int;
  smoke : bool;
  seconds : float;
  pool : Util.Pool.t;
  tracer : Span.t option;
}

type result = {
  setup_s : float;  (** Median of the set-up repetitions. *)
  op_ms : float array;  (** Every op's latency, in run order. *)
  op_group : int array;
      (** The input stream each op belongs to: one stratum's sweep
          repeated across rounds, the epochs of one race cell, or all
          the solves of a sparse workload. *)
  timed_s : float;  (** Wall time of the whole timed phase. *)
  failed : int;  (** Ops that failed a check. *)
  throughputs : float array;  (** Eq. (5) throughput of each answer. *)
  digest : string;  (** Hex digest of every answer's bits. *)
  violations : int;
  layers : (string, float) Hashtbl.t;  (** Per-layer values; traced only. *)
}

let bump layers key v =
  Hashtbl.replace layers key (v +. Option.value ~default:0. (Hashtbl.find_opt layers key))

let get layers key = Option.value ~default:0. (Hashtbl.find_opt layers key)
let time = Util.Timer.time_it
let rng env tag = Random.State.make [| env.seed; tag |]

(* [strata rng ~lo ~hi n]: one value per equal-width stratum of
   [lo, hi): the stratum's centre, moved by the seed up to a tenth of
   the stratum's width either way. *)
let strata rng ~lo ~hi n =
  let w = (hi -. lo) /. float_of_int n in
  Array.init n (fun i ->
      lo +. (w *. (float_of_int i +. 0.5 +. (0.2 *. (Random.State.float rng 1. -. 0.5)))))

(* An odd op count, so the median op is one op and not the mean of two. *)
let odd_count x =
  let k = Int.max 1 (int_of_float (Float.round x)) in
  if k mod 2 = 0 then k + 1 else k

(* Runs [build] [reps] times and keeps the last state.  [build] returns
   the state and the seconds of each named part; setup_s is the median
   total and each setup.* part its own median.  The minor heap's pages
   are faulted in first: a fresh process pays for them on its first
   allocations, which would land in the first, sub-millisecond set-ups
   of paper-sweep. *)
let repeat_setup env ~reps layers build =
  for _ = 1 to (Gc.get ()).Gc.minor_heap_size do
    ignore (Sys.opaque_identity (ref ()))
  done;
  let runs = List.init reps (fun _ -> Span.run env.tracer "setup" build) in
  let state, _ = List.nth runs (reps - 1) in
  let parts = List.map snd runs in
  let totals = Array.of_list (List.map (List.fold_left (fun a (_, s) -> a +. s) 0.) parts) in
  List.iter
    (fun (name, _) ->
      let xs = Array.of_list (List.map (fun p -> List.assoc name p) parts) in
      Hashtbl.replace layers name (Metric.median xs))
    (List.hd parts);
  (state, Metric.median totals)

(* ----------------------------------------------------------- digests *)

let add_float b x = Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float x))

(* Every bit of an answer that a user could read: throughput, peak,
   per-core speeds and the schedule's canonical digest. *)
let outcome_key (o : Core.Solver.outcome) =
  let b = Buffer.create 256 in
  add_float b o.Core.Solver.throughput;
  add_float b o.Core.Solver.peak;
  Buffer.add_string b (Sched.Peak.Cache.key_of_voltages o.Core.Solver.voltages);
  Option.iter
    (fun s -> Buffer.add_string b (Sched.Peak.Cache.key_of_schedule s))
    o.Core.Solver.schedule;
  Buffer.contents b

let hex keys = Digest.to_hex (Digest.string (String.concat "|" keys))

(* ------------------------------------------------ outside-in counters *)

type counts = {
  lookups : int;
  hits : int;
  evictions : int;
  stepup_misses : int;
  scored : int;
  survivors : int;
  d_cached : int;
  d_scored : int;
  d_exact : int;
  response : Thermal.Sparse_response.stats option;
  modal : Thermal.Modal.stats option;
}

let counts ev =
  let s = Core.Eval.stats ev in
  let st = s.Core.Eval.steady and su = s.Core.Eval.stepup in
  let open Sched.Peak.Cache in
  let scr = Core.Screen.stats () and dl = Core.Tpt.delta_stats () in
  {
    lookups = st.hits + st.misses + su.hits + su.misses;
    hits = st.hits + su.hits;
    evictions = st.evictions + su.evictions;
    stepup_misses = su.misses;
    scored = scr.Core.Screen.scored;
    survivors = scr.Core.Screen.survivors;
    d_cached = dl.Core.Tpt.cached;
    d_scored = dl.Core.Tpt.scored;
    d_exact = dl.Core.Tpt.exact;
    response = Core.Eval.sparse_response_stats ev;
    (* Modal counters live on the engine, which a dense context builds on
       first use anyway; forcing it here (inside the op's timing) only
       moves that build to the op's first instant. *)
    modal =
      (match Core.Eval.kind ev with
      | Core.Eval.Dense -> Some (Core.Eval.response_stats ev)
      | Core.Eval.Sparse -> None);
  }

(* Per-platform tallies the attribution multiplies by unit costs:
   exact solves, memo lookups, ROM scores, prepared bases, delta
   candidates. *)
type tally = {
  mutable n_exact : float;
  mutable n_memo : float;
  mutable n_rom : float;
  mutable n_base : float;
  mutable n_delta : float;
}

let tally_of tallies platform =
  match Hashtbl.find_opt tallies platform with
  | Some t -> t
  | None ->
      let t = { n_exact = 0.; n_memo = 0.; n_rom = 0.; n_base = 0.; n_delta = 0. } in
      Hashtbl.replace tallies platform t;
      t

let record layers tallies ~platform ~policy ~dt (a : counts) (b : counts) =
  let d f = float_of_int (f b - f a) in
  bump layers ("solver." ^ policy ^ ".busy_s") dt;
  bump layers ("solver." ^ policy ^ ".calls") 1.;
  bump layers "eval.lookups" (d (fun c -> c.lookups));
  bump layers "eval.hits" (d (fun c -> c.hits));
  bump layers "eval.evictions" (d (fun c -> c.evictions));
  bump layers "screen.scored" (d (fun c -> c.scored));
  bump layers "screen.survivors" (d (fun c -> c.survivors));
  bump layers "tpt.delta_cached" (d (fun c -> c.d_cached));
  bump layers "tpt.delta_scored" (d (fun c -> c.d_scored));
  bump layers "tpt.delta_exact" (d (fun c -> c.d_exact));
  let t = tally_of tallies platform in
  t.n_memo <- t.n_memo +. d (fun c -> c.lookups);
  t.n_rom <- t.n_rom +. d (fun c -> c.scored);
  (match (a.response, b.response) with
  | Some x, Some y ->
      let open Thermal.Sparse_response in
      let f name g = bump layers ("sparse_response." ^ name) (float_of_int (g y - g x)) in
      f "builds" (fun s -> s.builds);
      f "superpose_evals" (fun s -> s.superpose_evals);
      f "stable_solves" (fun s -> s.stable_solves);
      f "base_solves" (fun s -> s.base_solves);
      f "delta_evals" (fun s -> s.delta_evals);
      (* Every exact sparse evaluation — memo miss, end-of-period temps,
         winner verification — is one streamed stable-status solve. *)
      t.n_exact <- t.n_exact +. float_of_int (y.stable_solves - x.stable_solves);
      t.n_base <- t.n_base +. float_of_int (y.base_solves - x.base_solves);
      t.n_delta <- t.n_delta +. float_of_int (y.delta_evals - x.delta_evals)
  | _ -> ());
  match (a.modal, b.modal) with
  | Some x, Some y ->
      let open Thermal.Modal in
      let f name g = bump layers ("modal." ^ name) (float_of_int (g y - g x)) in
      f "superpose_evals" (fun s -> s.superpose_evals);
      f "exp_hits" (fun s -> s.exp_hits);
      f "exp_misses" (fun s -> s.exp_misses);
      f "delta_evals" (fun s -> s.delta_evals);
      (* The dense engine does not count its stable-status solves; its
         observable exact evaluations are the step-up memo misses.
         Uncached scans and EXS's direct steady peaks stay residual. *)
      t.n_exact <- t.n_exact +. d (fun c -> c.stepup_misses);
      t.n_base <- t.n_base +. float_of_int (y.base_solves - x.base_solves);
      t.n_delta <- t.n_delta +. float_of_int (y.delta_evals - x.delta_evals)
  | _ -> ()

(* AO's stages, from the fosc.ao debug messages logged during an AO op
   that ran from [start] to [stop]. *)
let record_ao_stages layers tracer ~start ~stop =
  let marks = Span.take_ao_marks tracer in
  let at prefix =
    List.find_map
      (fun (t, msg) -> if String.starts_with ~prefix msg then Some t else None)
      marks
  in
  match (at "m sweep done", at "TPT adjustment") with
  | Some swept, Some adjusted ->
      let stage name a b =
        bump layers ("ao." ^ name ^ "_s") (b -. a);
        Span.add tracer ("ao." ^ name) ~start:a ~stop:b
      in
      stage "msweep" start swept;
      stage "adjust" swept adjusted;
      stage "finish" adjusted stop
  | _ -> failwith "fosc-bench: an AO op logged no stage marks"

(* --------------------------------------------------------- solver ops *)

(* One timed [Solver.run].  Traced runs snapshot the counters inside the
   timed window, so the traced op pays exactly the snapshot cost. *)
let solve env layers tallies ~platform ~params (policy : Core.Solver.t) ev =
  let name = policy.Core.Solver.name in
  match env.tracer with
  | None -> time (fun () -> Core.Solver.run ~params policy ev)
  | Some tr ->
      ignore (Span.take_ao_marks tr : (float * string) list);
      let start = now () in
      Span.run env.tracer ("solver." ^ name) (fun () ->
          let a = counts ev in
          let o = Core.Solver.run ~params policy ev in
          let b = counts ev in
          let stop = now () in
          record layers tallies ~platform ~policy:name ~dt:(stop -. start) a b;
          (match o.Core.Solver.details with
          | Core.Ao.Details r ->
              record_ao_stages layers tr ~start ~stop;
              bump layers "ao.adjust_steps" (float_of_int r.Core.Ao.adjustment_steps)
          | _ -> ());
          (o, stop -. start))

(* Re-evaluate an answer's peak on a cache-less twin with the evaluator
   the policy reports: the steady peak of a constant assignment, the
   step-up end-of-period peak of AO's schedule, the 16-sample dense
   scan of PCO's and Demand's. *)
let recheck_peak twin name (o : Core.Solver.outcome) =
  match o.Core.Solver.schedule with
  | None -> Core.Eval.steady_peak twin o.Core.Solver.voltages
  | Some s when String.equal name "ao" -> Core.Eval.step_up_peak twin s
  | Some s -> Core.Eval.any_peak twin ~samples_per_segment:16 s

let peak_ok twin (p : Core.Platform.t) name (o : Core.Solver.outcome) =
  Float.abs (recheck_peak twin name o -. o.Core.Solver.peak) <= 1e-6
  && (String.equal name "demand" || o.Core.Solver.peak <= p.Core.Platform.t_max +. 1e-6)

(* ------------------------------------------------------- unit costs *)

type units = {
  exact : float;
  memo : float;
  rom : float;
  base : float;
  delta : float;
  end_temps : float;
  step : float;
}

(* Median per-call microseconds over 15 blocks, each block long enough
   (about 1 ms) that the clock's resolution does not matter. *)
let per_call_us f =
  f ();
  let _, t1 = time f in
  let batch = Int.max 1 (int_of_float (1e-3 /. Float.max t1 1e-7)) in
  let block () =
    snd (time (fun () -> for _ = 1 to batch do f () done)) /. float_of_int batch
  in
  Metric.median (Array.init 15 (fun _ -> block ())) *. 1e6

(* A two-mode candidate: period, per-core low/high voltages and duty. *)
type candidate = { period : float; low : float array; high : float array; duty : float array }

let candidate_of_config (c : Core.Tpt.config) =
  {
    period = c.Core.Tpt.period;
    low = c.Core.Tpt.v_low;
    high = c.Core.Tpt.v_high;
    duty = Array.map (fun h -> Float.max 0. (Float.min 1. (h /. c.Core.Tpt.period))) c.Core.Tpt.high_time;
  }

(* The neighbouring-level oscillation that delivers [speeds]. *)
let candidate_of_speeds (p : Core.Platform.t) ~period speeds =
  let pairs = Array.map (Power.Vf.neighbours p.Core.Platform.levels) speeds in
  {
    period;
    low = Array.map fst pairs;
    high = Array.map snd pairs;
    duty =
      Array.mapi
        (fun i (lo, hi) -> if hi -. lo < 1e-12 then 1. else (speeds.(i) -. lo) /. (hi -. lo))
        pairs;
  }

let candidate_of_outcome (o : Core.Solver.outcome) =
  match o.Core.Solver.details with
  | Core.Ao.Details r -> Some (candidate_of_config r.Core.Ao.config)
  | Core.Pco.Details r -> Some (candidate_of_config r.Core.Pco.ao.Core.Ao.config)
  | _ -> None

let unit_costs twin (c : candidate) =
  let period = c.period and low = c.low and high = c.high and high_ratio = c.duty in
  let n = Array.length low in
  let exact () = ignore (Core.Eval.two_mode_peak twin ~period ~low ~high ~high_ratio : float) in
  (* The same call on a context with a memo table: after the first call
     every call is a hit, so this is the memo tier's own cost (digest,
     lookup, lock). *)
  let memo_ctx =
    Core.Eval.create ~pool:(Core.Eval.pool twin) ~backend:(Core.Eval.kind twin) (Core.Eval.platform twin)
  in
  let memo () = ignore (Core.Eval.two_mode_peak memo_ctx ~period ~low ~high ~high_ratio : float) in
  let rom () = ignore (Core.Eval.rom_two_mode_peak twin ~period ~low ~high ~high_ratio : float) in
  let base () = Core.Eval.two_mode_delta_base twin ~period ~low ~high ~high_ratio in
  let j = ref 0 in
  let delta () =
    let k = !j mod n in
    incr j;
    ignore
      (Core.Eval.two_mode_delta_temp_at twin ~at:0 ~core:k ~low:low.(k) ~high:high.(k)
         ~high_ratio:(Float.max 0. (high_ratio.(k) -. 0.01))
        : float)
  in
  let end_temps () =
    ignore (Core.Eval.two_mode_end_core_temps twin ~period ~low ~high ~high_ratio : Linalg.Vec.t)
  in
  let b = Core.Eval.backend twin in
  let p = Core.Eval.platform twin in
  let psi = Array.map (Power.Power_model.psi p.Core.Platform.power) high in
  let state = ref (b.Thermal.Backend.ambient_state ()) and dst = ref (b.Thermal.Backend.ambient_state ()) in
  let step () =
    b.Thermal.Backend.step_into ~dt:0.005 ~state:!state ~psi ~dst:!dst;
    let s = !state in
    state := !dst;
    dst := s
  in
  let exact = per_call_us exact and memo = per_call_us memo and rom = per_call_us rom in
  let end_temps = per_call_us end_temps in
  let base = per_call_us base in
  (* The delta probes price candidates off the base prepared last. *)
  let delta = per_call_us delta in
  { exact; memo; rom; base; delta; end_temps; step = per_call_us step }

(* Unit costs of every platform the ops touched, their medians as the
   unit.* metrics, and counts x unit costs as the attr.* metrics. *)
let attribute layers tallies units ~busy =
  let us = Hashtbl.fold (fun pl u acc -> (pl, u) :: acc) units [] in
  let med f = Metric.median (Array.of_list (List.map (fun (_, u) -> f u) us)) in
  List.iter
    (fun (name, f) -> Hashtbl.replace layers ("unit." ^ name ^ "_us") (med f))
    [
      ("exact", fun u -> u.exact);
      ("memo", fun u -> u.memo);
      ("rom", fun u -> u.rom);
      ("delta_base", fun u -> u.base);
      ("delta", fun u -> u.delta);
      ("end_temps", fun u -> u.end_temps);
      ("step", fun u -> u.step);
    ];
  let exact = ref 0. and memo = ref 0. and rom = ref 0. and delta = ref 0. in
  Hashtbl.iter
    (fun pl t ->
      match Hashtbl.find_opt units pl with
      | None -> ()
      | Some u ->
          exact := !exact +. (t.n_exact *. u.exact *. 1e-6);
          memo := !memo +. (t.n_memo *. u.memo *. 1e-6);
          rom := !rom +. (t.n_rom *. u.rom *. 1e-6);
          delta := !delta +. (((t.n_base *. u.base) +. (t.n_delta *. u.delta)) *. 1e-6))
    tallies;
  Hashtbl.replace layers "attr.exact_s" !exact;
  Hashtbl.replace layers "attr.memo_s" !memo;
  Hashtbl.replace layers "attr.rom_s" !rom;
  Hashtbl.replace layers "attr.delta_s" !delta;
  Hashtbl.replace layers "attr.residual_s" (busy -. !exact -. !memo -. !rom -. !delta)

(* ------------------------------------------------------ gc and pool *)

let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

(* Runs the timed phase [f]; when tracing, brackets it with GC counters
   and compacted live-heap sizes. *)
let timed_phase env layers ~platforms f =
  match env.tracer with
  | None -> time f
  | Some _ ->
      let live0 = live_words () in
      let g0 = Gc.quick_stat () in
      let r, dt = time f in
      let g1 = Gc.quick_stat () in
      bump layers "gc.minor_mb" ((g1.Gc.minor_words -. g0.Gc.minor_words) *. 8e-6);
      bump layers "gc.major_collections"
        (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
      let live1 = live_words () in
      bump layers "gc.retained_kb_per_platform"
        (float_of_int (live1 - live0) *. 8. /. 1024. /. float_of_int platforms);
      (r, dt)

(* [par_speedup layers ~original replays] replays ops with [par = false]:
   each replay returns its (sequential) seconds and whether its answer
   is bit-identical to the original's.  Returns the mismatch count. *)
let par_speedup layers ~original replays =
  let seq, mismatches =
    List.fold_left
      (fun (s, m) replay ->
        let dt, same = replay () in
        (s +. dt, if same then m else m + 1))
      (0., 0) replays
  in
  Hashtbl.replace layers "pool.par_speedup" (seq /. original);
  mismatches

let seq_params params = { params with Core.Solver.par = false }

(* ------------------------------------------------------- paper-sweep *)

(* Table V's 16 platforms (cores x levels), each at four seeded T_max
   values, one per stratum of [55, 70) C.  An op is one Table V sweep:
   the 16 platforms of one stratum, each on a fresh dense context shared
   by LNS -> EXS -> AO -> PCO (so PCO replays AO from the memo table).
   Rounds cycle through the four strata, so every stratum's sweeps are
   spread over the whole timed phase and a seconds-long slowdown of the
   machine falls on all strata alike.

   The platforms of one core count share one thermal model, as the
   level sets and thresholds of one chip do.  The modal engine registry
   holds 16 models, and EXS looks its answer's engine up there rather
   than in the context, so 64 distinct models cycling through it would
   rebuild engines in every round.  The four engines are built in
   set-up. *)
let paper_sweep env =
  let layers = Hashtbl.create 64 and tallies = Hashtbl.create 64 in
  let cores, levels, n_strata =
    if env.smoke then ([ 2; 3 ], [ 2; 3 ], 1)
    else (Workload.Configs.core_counts, Workload.Configs.level_counts, 4)
  in
  let shapes = Array.of_list (List.concat_map (fun c -> List.map (fun l -> (c, l)) levels) cores) in
  let n_shapes = Array.length shapes in
  let r = rng env 1 in
  let t_maxes = Array.map (fun _ -> strata r ~lo:55. ~hi:70. n_strata) shapes in
  (* Platform k * n_shapes + s is shape s at its T_max in stratum k. *)
  let n_plat = n_strata * n_shapes in
  let build () =
    let (chips, platforms), model =
      time (fun () ->
          let chips =
            List.map
              (fun c -> (c, (Workload.Configs.platform ~cores:c ~levels:2 ~t_max:60.).Core.Platform.model))
              cores
          in
          ( chips,
            Array.init n_plat (fun pi ->
                let cores, levels = shapes.(pi mod n_shapes) in
                Core.Platform.make ~levels:(Power.Vf.table_iv levels)
                  ~t_max:t_maxes.(pi mod n_shapes).(pi / n_shapes)
                  (List.assoc cores chips)) ))
    in
    let (), engine =
      time (fun () -> List.iter (fun (_, m) -> ignore (Thermal.Modal.make m : Thermal.Modal.t)) chips)
    in
    (platforms, [ ("setup.model_s", model); ("setup.engine_s", engine); ("setup.rom_s", 0.) ])
  in
  (* A set-up takes a fraction of a millisecond.  More than 25
     repetitions would not steady its median, which follows the host's
     speed at process start, and the major GC lags behind repeated
     engine builds: the heap they leave would show in heap_peak_mb. *)
  let platforms, setup_s = repeat_setup env ~reps:(if env.smoke then 1 else 25) layers build in
  let policies = List.map Core.Registry.find_exn [ "lns"; "exs"; "ao"; "pco" ] in
  let n_pol = List.length policies in
  let rounds = if env.smoke then 2 else Int.max 1 (int_of_float (Float.round (env.seconds *. 5.))) in
  let fresh p = Core.Eval.create ~pool:env.pool p in
  (* One sweep of stratum [k]: [run pi pol ev] solves and [answer g o]
     receives solve g = pi * n_pol + j's answer. *)
  let sweep k run answer =
    for s = 0 to n_shapes - 1 do
      let pi = (k * n_shapes) + s in
      let ev = fresh platforms.(pi) in
      List.iteri (fun j pol -> answer ((pi * n_pol) + j) (run pi pol ev)) policies
    done
  in
  let first = Array.make (n_plat * n_pol) None and keys = Array.make (n_plat * n_pol) "" in
  (* Op i = round * n_strata + k is stratum k's sweep in that round;
     bad.(i): it failed a check. *)
  let bad = Array.make (n_strata * rounds) false in
  let op_ms = Array.make (n_strata * rounds) 0. in
  let params = Core.Solver.default_params in
  let traced pi pol ev = fst (solve env layers tallies ~platform:pi ~params pol ev) in
  let (), timed_s =
    timed_phase env layers ~platforms:n_plat (fun () ->
        for round = 0 to rounds - 1 do
          for k = 0 to n_strata - 1 do
            let i = (round * n_strata) + k in
            Option.iter (fun t -> Span.set_op t i) env.tracer;
            let answer g o =
              let key = outcome_key o in
              if round = 0 then begin
                first.(g) <- Some o;
                keys.(g) <- key
              end
              else if not (String.equal key keys.(g)) then bad.(i) <- true
            in
            let (), dt = time (fun () -> Span.run env.tracer "paper.sweep" (fun () -> sweep k traced answer)) in
            op_ms.(i) <- dt *. 1e3
          done
        done)
  in
  Option.iter (fun t -> Span.set_op t (-1)) env.tracer;
  let answers = Array.map Option.get first in
  (* Checks, on round 0's answers; later rounds must have reproduced
     them bit for bit. *)
  let twins = Array.map (fun p -> Core.Eval.create ~pool:env.pool ~cache_size:0 p) platforms in
  Span.run env.tracer "check" (fun () ->
      Array.iteri
        (fun g o ->
          let pi = g / n_pol in
          let name = (List.nth policies (g mod n_pol)).Core.Solver.name in
          let exs_ok =
            (not (String.equal name "exs"))
            || o.Core.Solver.throughput >= answers.(g - 1).Core.Solver.throughput -. 1e-12
          in
          if not (peak_ok twins.(pi) platforms.(pi) name o && exs_ok) then
            for round = 0 to rounds - 1 do
              bad.((round * n_strata) + (pi / n_shapes)) <- true
            done)
        answers);
  (match env.tracer with
  | None -> ()
  | Some _ ->
      (* Unit costs depend on the shape far more than on T_max: probe
         each shape once, on its first stratum's platform and AO answer. *)
      let units = Hashtbl.create 64 in
      Span.run env.tracer "unit" (fun () ->
          for s = 0 to n_shapes - 1 do
            let u = unit_costs twins.(s) (Option.get (candidate_of_outcome answers.((s * n_pol) + 2))) in
            for k = 0 to n_strata - 1 do
              Hashtbl.replace units ((k * n_shapes) + s) u
            done
          done);
      attribute layers tallies units
        ~busy:(List.fold_left (fun a p -> a +. get layers ("solver." ^ p ^ ".busy_s")) 0. Metric.policies);
      (* Each stratum's last sweep again, sequential, with the engines
         built, as they were. *)
      let original = ref 0. and replays = ref [] in
      for k = 0 to n_strata - 1 do
        original := !original +. (op_ms.(((rounds - 1) * n_strata) + k) *. 1e-3);
        let replay () =
          let same = ref true in
          let run _ pol ev = Core.Solver.run ~params:(seq_params params) pol ev in
          let answer g o = if not (String.equal (outcome_key o) keys.(g)) then same := false in
          let (), dt = time (fun () -> sweep k run answer) in
          (dt, !same)
        in
        replays := replay :: !replays
      done;
      let mismatches =
        Span.run env.tracer "replay" (fun () -> par_speedup layers ~original:!original (List.rev !replays))
      in
      if mismatches > 0 then bad.(0) <- true);
  {
    setup_s;
    op_ms;
    op_group = Array.init (n_strata * rounds) (fun i -> i mod n_strata);
    timed_s;
    failed = Array.fold_left (fun a b -> if b then a + 1 else a) 0 bad;
    throughputs = Array.map (fun o -> o.Core.Solver.throughput) answers;
    digest = hex (Array.to_list keys);
    violations = 0;
    layers;
  }

(* --------------------------------------------- sparse solver workloads *)

(* A sparse, ROM-screened context with its engines built: the response
   engine (setup.engine_s) and the reduced model (setup.rom_s). *)
let sparse_context env p =
  let ev = Core.Eval.create ~pool:env.pool ~backend:Core.Eval.Sparse ~screen_margin:0.5 p in
  let (), engine = time (fun () -> ignore (Core.Eval.backend ev : Thermal.Backend.t)) in
  let (), rom = time (fun () -> ignore (Core.Eval.screening ev : float option)) in
  (ev, engine, rom)

let sheet ~size ~t_max =
  Core.Platform.sheet ~rows:size ~cols:size ~levels:(Power.Vf.table_iv 5) ~t_max ()

(* Shared by sparse-ao-8x8 and screened-16x16: run [ops] (platform index,
   context, params, policy) in order, check them, and when tracing
   probe unit costs and replay the first op sequentially.  [candidate]
   gives the unit-cost candidate of an op from its answer. *)
let run_sparse env layers ~setup_s ~platforms ~ops ~candidate =
  let tallies = Hashtbl.create 8 in
  let n = Array.length ops in
  let op_ms = Array.make n 0. in
  let answers, timed_s =
    timed_phase env layers ~platforms:(Array.length platforms) (fun () ->
        Array.mapi
          (fun i (pi, ev, params, pol) ->
            Option.iter (fun t -> Span.set_op t i) env.tracer;
            let o, dt = solve env layers tallies ~platform:pi ~params pol ev in
            op_ms.(i) <- dt *. 1e3;
            o)
          ops)
  in
  Option.iter (fun t -> Span.set_op t (-1)) env.tracer;
  let twins =
    Array.map
      (fun p ->
        lazy (Core.Eval.create ~pool:env.pool ~cache_size:0 ~backend:Core.Eval.Sparse ~screen_margin:0.5 p))
      platforms
  in
  let keys = Array.map outcome_key answers in
  let failed =
    Span.run env.tracer "check" (fun () ->
        Array.mapi
          (fun i (pi, _, (params : Core.Solver.params), (pol : Core.Solver.t)) ->
            let o = answers.(i) in
            let name = pol.Core.Solver.name in
            let delivered_ok =
              match (o.Core.Solver.details, params.Core.Solver.demands) with
              | Core.Demand.Details r, Some d when r.Core.Demand.feasible ->
                  Array.for_all2 (fun got want -> got >= want -. 1e-9) r.Core.Demand.delivered d
              | _ -> true
            in
            peak_ok (Lazy.force twins.(pi)) platforms.(pi) name o && delivered_ok)
          ops)
  in
  let failed = ref (Array.fold_left (fun a ok -> if ok then a else a + 1) 0 failed) in
  (match env.tracer with
  | None -> ()
  | Some _ ->
      let units = Hashtbl.create 8 in
      Span.run env.tracer "unit" (fun () ->
          Array.iteri
            (fun i (pi, _, _, _) ->
              if not (Hashtbl.mem units pi) then
                Hashtbl.replace units pi (unit_costs (Lazy.force twins.(pi)) (candidate i answers.(i))))
            ops);
      attribute layers tallies units ~busy:(Array.fold_left ( +. ) 0. op_ms *. 1e-3);
      let pi, _, params, pol = ops.(0) in
      let replay () =
        let ev, _, _ = sparse_context env platforms.(pi) in
        let o, dt = time (fun () -> Core.Solver.run ~params:(seq_params params) pol ev) in
        (dt, String.equal (outcome_key o) keys.(0))
      in
      failed :=
        !failed
        + Span.run env.tracer "replay" (fun () ->
              par_speedup layers ~original:(op_ms.(0) *. 1e-3) [ replay ]));
  {
    setup_s;
    op_ms;
    (* The solves pose inputs of one difficulty: one stream, whose
       median op is the middle solve. *)
    op_group = Array.make n 0;
    timed_s;
    failed = !failed;
    throughputs = Array.map (fun o -> o.Core.Solver.throughput) answers;
    digest = hex (Array.to_list keys);
    violations = 0;
    layers;
  }

(* AO with the prepared-base delta tier (delta_margin 1 K) and ROM
   screening (0.5 K) on 8x8 sheets: one fresh context per seeded T_max,
   all built during set-up. *)
let sparse_ao env =
  let layers = Hashtbl.create 64 in
  let size = if env.smoke then 4 else 8 in
  let n = if env.smoke then 1 else odd_count (env.seconds /. 4.5) in
  let t_maxes = strata (rng env 2) ~lo:62. ~hi:68. n in
  let build () =
    let platforms, model = time (fun () -> Array.map (fun t_max -> sheet ~size ~t_max) t_maxes) in
    let built = Array.map (sparse_context env) platforms in
    let sum f = Array.fold_left (fun a x -> a +. f x) 0. built in
    ( (platforms, Array.map (fun (ev, _, _) -> ev) built),
      [
        ("setup.model_s", model);
        ("setup.engine_s", sum (fun (_, e, _) -> e));
        ("setup.rom_s", sum (fun (_, _, r) -> r));
      ] )
  in
  let (platforms, contexts), setup_s = repeat_setup env ~reps:(if env.smoke then 1 else 3) layers build in
  let params = { Core.Solver.default_params with Core.Solver.delta_margin = 1.0 } in
  let ao = Core.Registry.find_exn "ao" in
  let ops = Array.mapi (fun i ev -> (i, ev, params, ao)) contexts in
  let candidate _ o = Option.get (candidate_of_outcome o) in
  run_sparse env layers ~setup_s ~platforms ~ops ~candidate

(* A demand vector for screened-16x16: the ideal assignment scaled by
   [s], each core capped at a 0.9 duty between its neighbouring levels,
   and the hottest ideal cores pinned at that cap.  The pin fixes the
   transition-overhead bound, so every query sweeps the same number of
   oscillation counts and the seed varies only how hard it is to meet. *)
let demand_vector (p : Core.Platform.t) ideal s =
  let cap v =
    let lo, hi = Power.Vf.neighbours p.Core.Platform.levels v in
    if hi -. lo < 1e-12 then v else lo +. (0.9 *. (hi -. lo))
  in
  let hottest = Array.fold_left Float.max neg_infinity ideal in
  Array.map
    (fun v ->
      let d = s *. v in
      if Float.equal v hottest then cap d else Float.min d (cap d))
    ideal

(* Demand queries against one shared 16x16 context at 65 C: two-tier ROM
   screening of each m sweep, exact re-verification of the survivors. *)
let screened env =
  let layers = Hashtbl.create 64 in
  let size = if env.smoke then 4 else 16 in
  let build () =
    let platform, model = time (fun () -> sheet ~size ~t_max:65.) in
    let ev, engine, rom = sparse_context env platform in
    ((platform, ev), [ ("setup.model_s", model); ("setup.engine_s", engine); ("setup.rom_s", rom) ])
  in
  let (platform, ev), setup_s = repeat_setup env ~reps:(if env.smoke then 1 else 3) layers build in
  let n = if env.smoke then 1 else odd_count (env.seconds /. 1.3) in
  let ideal = (Core.Ideal.solve platform).Core.Ideal.voltages in
  (* Scales in [0.96, 1.0) straddle the feasibility edge, near 0.986:
     at seed 1, 6 of the 9 verdicts are feasible at --seconds 10 and 9
     of the 13 at --seconds 15. *)
  let demands = Array.map (demand_vector platform ideal) (strata (rng env 3) ~lo:0.96 ~hi:1.0 n) in
  let demand = Core.Registry.find_exn "demand" in
  let ops =
    Array.map (fun d -> (0, ev, { Core.Solver.default_params with Core.Solver.demands = Some d }, demand)) demands
  in
  let candidate i (o : Core.Solver.outcome) =
    let m = match o.Core.Solver.details with Core.Demand.Details r -> r.Core.Demand.m | _ -> 1 in
    candidate_of_speeds platform ~period:(0.1 /. float_of_int m) demands.(i)
  in
  run_sparse env layers ~setup_s ~platforms:[| platform |] ~ops ~candidate

(* ---------------------------------------------------------- race-8x8 *)

(* Per-controller decision timings, filled by [instrument]. *)
type decisions = {
  starts : float array;
  ends : float array;
  mutable calls : int;
  mutable init_s : float;
}

(* Wraps a controller so each [decide] call is timestamped.  Epoch [e]
   runs from the end of decision [e] to the end of decision [e + 1] (the
   last epoch to the loop's return), so its latency covers the plant
   step, sensing and the next decision. *)
let instrument (c : Runtime.Controller.t) d =
  {
    c with
    Runtime.Controller.init =
      (fun envc ->
        let decide, dt = time (fun () -> c.Runtime.Controller.init envc) in
        d.init_s <- d.init_s +. dt;
        fun obs level ->
          d.starts.(d.calls) <- now ();
          decide obs level;
          d.ends.(d.calls) <- now ();
          d.calls <- d.calls + 1);
  }

(* threshold, pid, integral and tsp across the four race scenarios on an
   8x8 sparse sheet: closed-loop epochs over the transient engine
   (Backend.step_into), no policy search at all.  offline-ao and rh-ao
   are left out: each re-solves 8x8 AO with exact scans, about 130 s a
   cell. *)
let race env =
  let layers = Hashtbl.create 64 in
  let size = if env.smoke then 3 else 8 in
  let r = rng env 4 in
  let t_max = (strata r ~lo:79. ~hi:81. 1).(0) in
  (* An epoch takes about 0.8 ms on the reference box.  16 cells of
     [1.2 * seconds] simulated seconds at 50 epochs each are 960 epochs
     per budget second: about the budget. *)
  let duration = if env.smoke then 0.2 else Float.round (1.2 *. env.seconds) in
  let build () =
    let platform, model = time (fun () -> sheet ~size ~t_max) in
    let ev = Core.Eval.create ~pool:env.pool ~backend:Core.Eval.Sparse platform in
    let (), engine = time (fun () -> ignore (Core.Eval.backend ev : Thermal.Backend.t)) in
    ((platform, ev), [ ("setup.model_s", model); ("setup.engine_s", engine); ("setup.rom_s", 0.) ])
  in
  let (platform, ev), setup_s = repeat_setup env ~reps:(if env.smoke then 1 else 9) layers build in
  let scenarios = Experiments.Exp_race.scenarios ~seed:env.seed ~duration in
  let cells =
    List.concat_map (fun c -> List.map (fun (s, cfg) -> (c, s, cfg)) scenarios) Metric.controllers
  in
  let epochs_of (cfg : Runtime.Loop.config) =
    Int.max 1 (int_of_float (Float.round (cfg.Runtime.Loop.duration /. cfg.Runtime.Loop.control_interval)))
  in
  let total = List.fold_left (fun a (_, _, cfg) -> a + epochs_of cfg) 0 cells in
  let op_ms = Array.make total 0. and op_group = Array.make total 0 in
  let plant_us = Array.make total 0. in
  let decide_us = Hashtbl.create 4 in
  let run_cell (i, pos) (c, sname, cfg) =
    let e = epochs_of cfg in
    let d = { starts = Array.make e 0.; ends = Array.make e 0.; calls = 0; init_s = 0. } in
    let ctl = instrument (Runtime.Controllers.find_exn c) d in
    Option.iter (fun t -> Span.set_op t pos) env.tracer;
    let stats =
      Span.run env.tracer ("race." ^ c ^ "/" ^ sname) (fun () ->
          let stats = Runtime.Loop.run ~config:cfg ev ctl in
          let stop = now () in
          for k = 0 to e - 1 do
            let next_start, next_end =
              if k + 1 < e then (d.starts.(k + 1), d.ends.(k + 1)) else (stop, stop)
            in
            op_ms.(pos + k) <- (next_end -. d.ends.(k)) *. 1e3;
            op_group.(pos + k) <- i;
            plant_us.(pos + k) <- (next_start -. d.ends.(k)) *. 1e6;
            Option.iter
              (fun t ->
                Span.add t ~op:(pos + k) "loop.plant" ~start:d.ends.(k) ~stop:next_start;
                if k + 1 < e then
                  Span.add t ~op:(pos + k) ("controller." ^ c ^ ".decide") ~start:next_start
                    ~stop:next_end)
              env.tracer
          done;
          stats)
    in
    let prev = Option.value ~default:[] (Hashtbl.find_opt decide_us c) in
    Hashtbl.replace decide_us c (Array.init (e - 1) (fun k -> (d.ends.(k + 1) -. d.starts.(k + 1)) *. 1e6) :: prev);
    bump layers ("controller." ^ c ^ ".init_s") d.init_s;
    ((i + 1, pos + e), stats)
  in
  let stats, timed_s =
    timed_phase env layers ~platforms:1 (fun () -> snd (List.fold_left_map run_cell (0, 0) cells))
  in
  Option.iter (fun t -> Span.set_op t (-1)) env.tracer;
  let v_max = Power.Vf.highest platform.Core.Platform.levels in
  let b = Buffer.create 1024 in
  let failed =
    List.fold_left2
      (fun acc (_, _, cfg) (s : Runtime.Loop.stats) ->
        let open Runtime.Loop in
        List.iter (add_float b) [ s.throughput; s.peak; s.mean_temp ];
        List.iter (fun k -> Buffer.add_string b (Printf.sprintf "%d;" k)) [ s.violations; s.switches; s.epochs ];
        let ok =
          s.epochs = epochs_of cfg
          && Float.is_finite s.peak
          && s.throughput > 0.
          && s.throughput <= v_max +. 1e-9
          && s.mean_temp <= s.peak +. 1e-9
        in
        if ok then acc else acc + s.epochs)
      0 cells stats
  in
  let violations = List.fold_left (fun a (s : Runtime.Loop.stats) -> a + s.Runtime.Loop.violations) 0 stats in
  (match env.tracer with
  | None -> ()
  | Some _ ->
      List.iter
        (fun c ->
          let xs = Array.concat (Option.value ~default:[] (Hashtbl.find_opt decide_us c)) in
          if Array.length xs > 0 then
            Hashtbl.replace layers ("controller." ^ c ^ ".decide_us_p50") (Metric.median xs))
        Metric.controllers;
      Hashtbl.replace layers "loop.plant_us_p50" (Metric.median plant_us);
      Hashtbl.replace layers "loop.epochs" (float_of_int total);
      Hashtbl.replace layers "loop.switches"
        (float_of_int (List.fold_left (fun a (s : Runtime.Loop.stats) -> a + s.Runtime.Loop.switches) 0 stats));
      Hashtbl.replace layers "loop.violations" (float_of_int violations);
      let twin = Core.Eval.create ~pool:env.pool ~cache_size:0 ~backend:Core.Eval.Sparse platform in
      let cand =
        candidate_of_speeds platform ~period:0.0125 (Core.Ideal.solve platform).Core.Ideal.voltages
      in
      let units = Hashtbl.create 1 in
      Span.run env.tracer "unit" (fun () -> Hashtbl.replace units 0 (unit_costs twin cand));
      attribute layers (Hashtbl.create 1) units ~busy:(Array.fold_left ( +. ) 0. op_ms *. 1e-3));
  {
    setup_s;
    op_ms;
    op_group;
    timed_s;
    failed;
    throughputs = Array.of_list (List.map (fun (s : Runtime.Loop.stats) -> s.Runtime.Loop.throughput) stats);
    digest = Digest.to_hex (Digest.string (Buffer.contents b));
    violations;
    layers;
  }

(* The workloads by name, in the order the smoke test and README use;
   BENCHMARK.json and README.md say why each was chosen. *)
let all =
  [ ("paper-sweep", paper_sweep); ("sparse-ao-8x8", sparse_ao); ("screened-16x16", screened); ("race-8x8", race) ]
