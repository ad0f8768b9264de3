[@@@fosc.digest_sensitive]

type backend_kind = Dense | Sparse

(* The deferred engines are [Util.Once] cells, not [Lazy]: evaluation
   contexts are shared across pool workers, and with ?par policies a
   worker can be the first caller to need an engine.  [Lazy.force]
   racing across domains raises [Lazy.RacyLazy] — the crash class
   fosc-race's R8 flags — while [Once.get] single-flights the build
   under a mutex and is one atomic read thereafter.  Every engine below
   belongs to its context and dies with it. *)
type t = {
  platform : Platform.t;
  pool : Util.Pool.t;
  steady_cache : Sched.Peak.Cache.t;
  stepup_cache : Sched.Peak.Cache.t;
  screen_margin : float;
      (* ROM-screening margin in kelvin; 0 disables screening.  Only a
         [Sparse] context ever screens. *)
  modal : Thermal.Modal.t Util.Once.t;
      (* The platform's dense engine.  A [Dense] context's backend wraps
         it; a [Sparse] one builds it only for its [dense] twin. *)
  backend : Thermal.Backend.t Util.Once.t;  (* every evaluator's engine *)
  sparse : sparse option;  (* [Some] exactly on a [Sparse] context. *)
}

and sparse = {
  response : Thermal.Sparse_response.t Util.Once.t;
      (* The context's sparse engine — what the backend wraps and what
         the reduction's static tier reads. *)
  rom : Thermal.Backend.t Util.Once.t;
      (* The screening backend: the Lanczos-reduced model over [response]. *)
  dense : t;  (* memo-less [Dense] twin on the same platform, pool and [modal] *)
}

type stats = {
  steady : Sched.Peak.Cache.stats;
  stepup : Sched.Peak.Cache.stats;
}

let create ?pool ?(cache_size = 1024) ?(backend = Dense) ?(screen_margin = 0.)
    platform =
  if not (screen_margin >= 0.) then
    invalid_arg "Eval.create: negative screen_margin";
  let pool = match pool with Some p -> p | None -> Util.Pool.get () in
  let model = platform.Platform.model in
  let modal = Util.Once.make (fun () -> Thermal.Modal.make model) in
  let context ~cache_size sparse backend =
    {
      platform;
      pool;
      steady_cache = Sched.Peak.Cache.create ~max_entries:cache_size ();
      stepup_cache = Sched.Peak.Cache.create ~max_entries:cache_size ();
      screen_margin;
      modal;
      backend = Util.Once.make backend;
      sparse;
    }
  in
  let dense ~cache_size =
    context ~cache_size None (fun () -> Thermal.Backend.of_modal (Util.Once.get modal))
  in
  match backend with
  | Dense -> dense ~cache_size
  | Sparse ->
      (* One sparse engine, assembled and unit-solved on the context's
         pool, shared by the backend and the ROM. *)
      let response =
        Util.Once.make (fun () ->
            Thermal.Sparse_response.of_spec ~pool (Thermal.Spec.of_model model))
      in
      let rom =
        Util.Once.make (fun () ->
            Thermal.Backend.of_reduced
              (Thermal.Reduced.of_response (Util.Once.get response)))
      in
      context ~cache_size
        (Some { response; rom; dense = dense ~cache_size:0 })
        (fun () -> Thermal.Backend.of_response (Util.Once.get response))

(* The single point where a policy's optional context is resolved: a
   context for another platform (or none) falls back to a memo-less
   dense context on [p], on the caller's pool when it named one. *)
let for_platform eval (p : Platform.t) =
  match eval with
  | Some ev when ev.platform == p -> ev
  | Some ev -> create ~pool:ev.pool ~cache_size:0 p
  | None -> create ~cache_size:0 p

let platform t = t.platform
let pool t = t.pool
let kind t = if Option.is_none t.sparse then Dense else Sparse
let dense t = match t.sparse with None -> t | Some s -> s.dense
let backend t = Util.Once.get t.backend
let power t = t.platform.Platform.power

let steady_peak t voltages =
  Sched.Peak.steady_constant_cached t.steady_cache (backend t) (power t) voltages

let step_up_peak t s = Sched.Peak.of_step_up_cached t.stepup_cache (backend t) (power t) s

let two_mode_peak t ~period ~low ~high ~high_ratio =
  Sched.Peak.of_two_mode_cached t.stepup_cache (backend t) (power t) ~period ~low
    ~high ~high_ratio

let any_peak t ?(samples_per_segment = 32) s =
  Sched.Peak.of_any (backend t) (power t) ~samples_per_segment s

let stable_end_core_temps t s = Sched.Peak.stable_end_core_temps (backend t) (power t) s

let two_mode_end_core_temps t ~period ~low ~high ~high_ratio =
  Sched.Peak.two_mode_end_core_temps (backend t) (power t) ~period ~low ~high
    ~high_ratio

(* -------------------------------------- prepared-base delta scans *)

(* The delta evaluators are per-domain and uncached by design: the base
   is prepared in one backend call into the engine's per-domain scratch,
   where the delta reads that follow on the same domain find it (so the
   two calls take no base argument).  Delta scores are within
   Krylov/rounding tolerance of the exact paths but not bit-identical,
   so they must never enter the exact memo tables.  Callers (the TPT
   loops) re-verify winners through [two_mode_peak]. *)

let two_mode_delta_base t ~period ~low ~high ~high_ratio =
  Sched.Peak.two_mode_delta_base (backend t) (power t) ~period ~low ~high
    ~high_ratio

let two_mode_delta_peak t ~core ~low ~high ~high_ratio =
  Sched.Peak.two_mode_delta_peak (backend t) (power t) ~core ~low ~high ~high_ratio

let two_mode_delta_temp_at t ~at ~core ~low ~high ~high_ratio =
  Sched.Peak.two_mode_delta_temp_at (backend t) (power t) ~at ~core ~low ~high
    ~high_ratio

(* ---------------------------------------------- two-tier screening *)

let screening t =
  match t.sparse with
  | Some s when t.screen_margin > 0. ->
      (* Build both models here, on the submitting domain, so the first
         ROM scores of a parallel sweep do not serialize behind them. *)
      ignore (backend t : Thermal.Backend.t);
      ignore (Util.Once.get s.rom : Thermal.Backend.t);
      Some t.screen_margin
  | Some _ | None -> None

(* Screening scores are the exact evaluators on the reduced backend,
   uncached: the memo tables hold exact floats only.  A dense context
   has no reduction, so its "approximate" score is the exact
   evaluation, which keeps callers backend-blind. *)
let rom_backend t = match t.sparse with Some s -> Util.Once.get s.rom | None -> backend t

let rom_two_mode_peak t ~period ~low ~high ~high_ratio =
  Sched.Peak.of_two_mode (rom_backend t) (power t) ~period ~low ~high ~high_ratio

let rom_any_peak t ?(samples_per_segment = 32) sched =
  Sched.Peak.of_any (rom_backend t) (power t) ~samples_per_segment sched

let stats t =
  {
    steady = Sched.Peak.Cache.stats t.steady_cache;
    stepup = Sched.Peak.Cache.stats t.stepup_cache;
  }

let sparse_response_stats t =
  match t.sparse with
  | Some s when Util.Once.is_forced s.response ->
      Some (Thermal.Sparse_response.stats (Util.Once.get s.response))
  | Some _ | None -> None

let response_stats t = Thermal.Modal.stats (Util.Once.get t.modal)

let hit_rate t =
  let s = stats t in
  let hits = s.steady.Sched.Peak.Cache.hits + s.stepup.Sched.Peak.Cache.hits in
  let total =
    hits + s.steady.Sched.Peak.Cache.misses + s.stepup.Sched.Peak.Cache.misses
  in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

let clear t =
  Sched.Peak.Cache.clear t.steady_cache;
  Sched.Peak.Cache.clear t.stepup_cache
