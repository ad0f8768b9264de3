(* A bounded, thread-safe memo table for peak evaluations.  Keys are the
   exact IEEE-754 bit patterns of the quantities that determine the
   answer (voltage vectors, schedule state intervals), so a hit returns
   the very float a fresh evaluation would have computed — memoization
   never perturbs a search trajectory.  Insertion order is tracked in a
   queue and the oldest entry is evicted at capacity.  A mutex guards
   every table access: pool workers evaluating candidates concurrently
   may race to compute the same key, in which case both compute the
   (identical) value and one insert wins. *)
[@@@fosc.digest_sensitive]

module Cache = struct
  type stats = { hits : int; misses : int; entries : int; evictions : int }

  type t = {
    max_entries : int;
    table : (string, float) Hashtbl.t; [@fosc.guarded "mutex"]
    order : string Queue.t; [@fosc.guarded "mutex"]
    lock : Mutex.t;
    mutable hits : int; [@fosc.guarded "mutex"]
    mutable misses : int; [@fosc.guarded "mutex"]
    mutable evictions : int; [@fosc.guarded "mutex"]
  }

  let create ?(max_entries = 1024) () =
    if max_entries < 0 then invalid_arg "Peak.Cache.create: negative max_entries";
    {
      max_entries;
      (* Sized for the configured capacity up front: growth rehashes
         re-hash every stored digest, which a cold policy search pays
         right in its candidate loop. *)
      table = Hashtbl.create (Stdlib.max 16 (Stdlib.min max_entries 65536));
      order = Queue.create ();
      lock = Mutex.create ();
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let stats t =
    Mutex.protect t.lock (fun () ->
        {
          hits = t.hits;
          misses = t.misses;
          entries = Hashtbl.length t.table;
          evictions = t.evictions;
        })

  let clear t =
    Mutex.protect t.lock (fun () ->
        Hashtbl.reset t.table;
        Queue.clear t.order;
        t.hits <- 0;
        t.misses <- 0;
        t.evictions <- 0)

  (* [v +. 0.] canonicalizes -0. to +0. so equal voltages share a key. *)
  let add_float b v = Buffer.add_int64_le b (Int64.bits_of_float (v +. 0.))

  let key_of_voltages voltages =
    let b = Buffer.create (8 * Array.length voltages) in
    Array.iter (add_float b) voltages;
    Buffer.contents b

  (* Canonical schedule digest: the period followed by every state
     interval's duration and per-core voltages.  Two schedules with the
     same global state-interval decomposition heat the chip identically,
     so sharing their entry is exact, not approximate. *)
  let key_of_schedule s =
    let intervals = Schedule.state_intervals s in
    let b = Buffer.create (16 + (16 * List.length intervals)) in
    add_float b (Schedule.period s);
    List.iter
      (fun (duration, voltages) ->
        add_float b duration;
        Array.iter (add_float b) voltages)
      intervals;
    Buffer.contents b

  let disabled t = t.max_entries = 0

  (* The hot-path table operations take the lock directly: the critical
     sections cannot raise (Hashtbl/Queue operations on live structures),
     and [Mutex.protect]'s closure + unwind bookkeeping is measurable at
     candidate-evaluation frequency. *)

  let count_miss t =
    Mutex.lock t.lock;
    t.misses <- t.misses + 1;
    Mutex.unlock t.lock

  let find t key =
    Mutex.lock t.lock;
    let cached = Hashtbl.find_opt t.table key in
    (match cached with
    | Some _ -> t.hits <- t.hits + 1
    | None -> t.misses <- t.misses + 1);
    Mutex.unlock t.lock;
    cached

  let add t key v =
    Mutex.lock t.lock;
    if not (Hashtbl.mem t.table key) then begin
      if Hashtbl.length t.table >= t.max_entries then begin
        (* [take_opt], not [pop]: the bare lock/unlock pair is only
           sound because nothing in this section can raise, and [pop]
           raises [Empty] if the order queue ever desyncs. *)
        match Queue.take_opt t.order with
        | Some victim ->
            Hashtbl.remove t.table victim;
            t.evictions <- t.evictions + 1
        | None -> ()
      end;
      Hashtbl.add t.table key v;
      Queue.push key t.order
    end;
    Mutex.unlock t.lock

  let find_or_add t key compute =
    if t.max_entries = 0 then begin
      (* Disabled cache: every lookup is a miss; nothing is stored. *)
      count_miss t;
      compute ()
    end
    else
      match find t key with
      | Some v -> v
      | None ->
          let v = compute () in
          add t key v;
          v
end

module B = Thermal.Backend

(* The one profile builder: a schedule's state intervals as the
   piecewise-constant power profile every engine consumes. *)
let profile (b : B.t) pm s =
  if Schedule.n_cores s <> b.B.n_cores then
    invalid_arg
      (Printf.sprintf "Peak.profile: schedule has %d cores, engine has %d"
         (Schedule.n_cores s) b.B.n_cores);
  List.map
    (fun (duration, voltages) ->
      { Thermal.Matex.duration; psi = Power.Power_model.psi_vector_memo pm voltages })
    (Schedule.state_intervals s)

(* ------------------------------------------ fused two-mode evaluation *)

(* The policy hot path (AO's m sweep, the TPT loops) evaluates ALIGNED
   two-mode candidates: every core low for part of the period, high for
   the rest, no offsets.  Building a Schedule.t and merging its state
   intervals per candidate costs several times the thermal solve, so the
   evaluators below replicate [Schedule.two_mode] + [state_intervals]
   span-for-span — the same ratio clamps, the same 1e-12 boundary
   coalescing, the same midpoint voltage reads — and feed the spans
   straight into the response engine.  The replication is exact, so the
   results (and the cache digests) are bit-interchangeable with the
   schedule-based path. *)

(* The merged state-interval decomposition of one candidate: the sorted,
   coalesced boundary points (the first [kept] of [pts]) and each core's
   leading low-segment length, [infinity] for an all-low core and
   [neg_infinity] for an all-high one, so one comparison reads any
   core's voltage.  Allocated per candidate: a few short float arrays on
   the minor heap. *)
type decomposition = { pts : float array; kept : int; lens : float array }

(* Replicates [Schedule.two_mode]'s ratio validation and clamps and
   [state_intervals]' sorted-point 1e-12 coalescing EXACTLY, so the
   spans — and everything computed from them — are bit-identical to the
   schedule-based path. *)
let two_mode_decompose ~period ~low ~high ~high_ratio =
  let n = Array.length low in
  if Array.length high <> n || Array.length high_ratio <> n then
    invalid_arg "Schedule.two_mode: array length mismatch";
  let pts = Array.make ((2 * n) + 2) 0. and lens = Array.make n 0. in
  pts.(1) <- period;
  let npts = ref 2 in
  for i = 0 to n - 1 do
    let r = high_ratio.(i) in
    if not (-1e-12 <= r && r <= 1. +. 1e-12) then
      invalid_arg
        (Printf.sprintf "Schedule.two_mode: ratio %.6g for core %d not in [0,1]" r i);
    let lh = Float.max 0. (Float.min period (r *. period)) in
    let ll = period -. lh in
    if lh <= 1e-12 || ll <= 1e-12 then begin
      lens.(i) <- (if lh <= 1e-12 then infinity else neg_infinity);
      pts.(!npts) <- period;
      incr npts
    end
    else begin
      lens.(i) <- ll;
      pts.(!npts) <- ll;
      incr npts;
      pts.(!npts) <- ll +. lh;
      incr npts
    end
  done;
  (* [Schedule.validate]'s period test, after the ratios as in
     [Schedule.two_mode]; a NaN period must not price as -inf. *)
  if not (Float.is_finite period && period > 0.) then
    invalid_arg "Schedule: period must be finite and positive";
  (* Insertion sort: at most [2n + 2] points, no comparator closure. *)
  for k = 1 to !npts - 1 do
    let v = pts.(k) in
    let j = ref (k - 1) in
    while !j >= 0 && pts.(!j) > v do
      pts.(!j + 1) <- pts.(!j);
      decr j
    done;
    pts.(!j + 1) <- v
  done;
  (* Coalesce boundaries closer than 1e-12 against the last KEPT point
     (sort_uniq + the fold in [state_intervals] collapse to this). *)
  let kept = ref 1 in
  for k = 1 to !npts - 1 do
    if pts.(k) -. pts.(!kept - 1) >= 1e-12 then begin
      pts.(!kept) <- pts.(k);
      incr kept
    end
  done;
  { pts; kept = !kept; lens }

(* The voltage core [i] runs during the span whose normalized midpoint
   is [t] — the read [Schedule.voltage_at] would perform. *)
let[@inline] two_mode_voltage d ~low ~high t i =
  if t < d.lens.(i) then low.(i) else high.(i)

(* The exact normalization [voltage_at] applies to the span midpoint
   before its walk. *)
let[@inline] two_mode_mid ~period t0 t1 =
  let mid = (t0 +. t1) /. 2. in
  Float.rem (Float.rem mid period +. period) period

(* The one span iterator: feed a decomposed candidate's spans to [feed]
   in period order — the backend's stable status.  Per-span powers are computed straight from
   [Power_model.psi] into one vector: the same floats [psi_vector] would
   produce, without the key digest a memo lookup would build. *)
let feed_spans pm d ~period ~low ~high feed =
  let n = Array.length low in
  let psi = Array.make n 0. in
  for k = 0 to d.kept - 2 do
    let t0 = d.pts.(k) and t1 = d.pts.(k + 1) in
    let t = two_mode_mid ~period t0 t1 in
    for i = 0 to n - 1 do
      psi.(i) <- Power.Power_model.psi pm (two_mode_voltage d ~low ~high t i)
    done;
    feed ~duration:(t1 -. t0) ~psi
  done

(* End-of-period stable state of a decomposed candidate, solved with
   [t_p = period] and left in whatever scratch the backend uses. *)
let two_mode_stable (b : B.t) pm d ~period ~low ~high =
  b.B.stable ~t_p:period (feed_spans pm d ~period ~low ~high)

let of_two_mode (b : B.t) pm ~period ~low ~high ~high_ratio =
  let d = two_mode_decompose ~period ~low ~high ~high_ratio in
  b.B.max_core_temp (two_mode_stable b pm d ~period ~low ~high)

let two_mode_end_core_temps (b : B.t) pm ~period ~low ~high ~high_ratio =
  let d = two_mode_decompose ~period ~low ~high ~high_ratio in
  b.B.core_temps (two_mode_stable b pm d ~period ~low ~high)

(* The same digest [Cache.key_of_schedule] produces for the equivalent
   schedule: period, then every span's duration and voltages (as
   little-endian IEEE-754 bits, -0. canonicalized) — so fused and
   schedule-based lookups share entries exactly.  Written straight into
   an exact-length byte string. *)
let two_mode_key d ~period ~low ~high =
  let n = Array.length low in
  let b = Bytes.create (8 * (1 + ((d.kept - 1) * (1 + n)))) in
  Bytes.set_int64_le b 0 (Int64.bits_of_float (period +. 0.));
  let off = ref 8 in
  for k = 0 to d.kept - 2 do
    let t0 = d.pts.(k) and t1 = d.pts.(k + 1) in
    Bytes.set_int64_le b !off (Int64.bits_of_float (t1 -. t0 +. 0.));
    off := !off + 8;
    let t = two_mode_mid ~period t0 t1 in
    for i = 0 to n - 1 do
      Bytes.set_int64_le b !off
        (Int64.bits_of_float (two_mode_voltage d ~low ~high t i +. 0.));
      off := !off + 8
    done
  done;
  Bytes.unsafe_to_string b

let of_two_mode_cached cache (b : B.t) pm ~period ~low ~high ~high_ratio =
  if Cache.disabled cache then begin
    Cache.count_miss cache;
    of_two_mode b pm ~period ~low ~high ~high_ratio
  end
  else begin
    (* One decomposition serves both the key and (on a miss) the
       evaluation. *)
    let d = two_mode_decompose ~period ~low ~high ~high_ratio in
    let key = two_mode_key d ~period ~low ~high in
    match Cache.find cache key with
    | Some v -> v
    | None ->
        let v = b.B.max_core_temp (two_mode_stable b pm d ~period ~low ~high) in
        Cache.add cache key v;
        v
  end

(* ------------------------------------------------ profile evaluators *)

let steady_constant (b : B.t) pm voltages =
  b.B.steady_peak (Power.Power_model.psi_vector_memo pm voltages)

(* Period-boundary stable status of a whole profile, through the same
   backend call as the two-mode evaluators: validated by
   [Matex.validate], fed in period order, solved with the profile's
   left-folded period length.  The state may be backend scratch: read
   it straight away. *)
let stable_of_profile (b : B.t) profile =
  Thermal.Matex.validate b.B.n_cores profile;
  b.B.stable ~t_p:(Thermal.Matex.period profile) (Thermal.Matex.spans profile)

let profile_end_core_temps (b : B.t) profile =
  b.B.core_temps (stable_of_profile b profile)

let profile_end_peak (b : B.t) profile =
  b.B.max_core_temp (stable_of_profile b profile)

(* ------------------------------------------------- in-period walk *)

(* A schedule that is not step-up may peak strictly inside a segment, so
   the stable-status period is walked (the MatEx method, reference [28]
   of the paper): from the period-boundary stable state, each segment is
   taken in [samples] equal sub-steps toward its equilibrium (one
   [sample_segment] call, tracking the hottest core), and the next
   segment starts from ONE exact full-duration step from this segment's
   start, so boundary states accumulate no sub-step rounding.  With
   [refine], the bracket around each segment's hottest sample (the
   segment start counted) is then golden-section searched to time
   resolution [refine_tol * duration], each probe one exact step from
   the segment start. *)
let refine_tol = 1e-4

let walk_peak (b : B.t) ~samples ~refine profile =
  if samples < 1 then invalid_arg "Peak: non-positive sample count";
  let z = Array.copy (stable_of_profile b profile) in
  let n = Array.length z in
  let eq = Array.make n 0. and walker = Array.make n 0. in
  (* Hottest core at the current segment's start: the boundary step
     that reaches a segment reads it. *)
  let start = ref (b.B.max_core_temp z) in
  let best = ref !start in
  List.iter
    (fun (seg : Thermal.Matex.segment) ->
      let duration = seg.duration in
      let dt = duration /. float_of_int samples in
      b.B.equilibrium_into ~psi:seg.psi ~dst:eq;
      Array.blit z 0 walker 0 n;
      let k, temp = b.B.sample_segment ~dt ~samples ~eq ~walker in
      if not refine then best := Float.max !best temp
      else begin
        let best_k, best_here = if temp > !start then (k, temp) else (0, !start) in
        best := Float.max !best best_here;
        let lo = Float.max 0. ((float_of_int best_k -. 1.) *. dt) in
        let hi = Float.min duration ((float_of_int best_k +. 1.) *. dt) in
        if hi > lo then begin
          let temp_at t =
            b.B.step_into ~dt:t ~state:z ~psi:seg.psi ~dst:walker;
            b.B.max_core_temp walker
          in
          best :=
            Float.max !best
              (Thermal.Matex.golden_max temp_at lo hi (refine_tol *. duration))
        end
      end;
      start := snd (b.B.sample_segment ~dt:duration ~samples:1 ~eq ~walker:z))
    profile;
  !best

let profile_scan_peak b ?(samples_per_segment = 32) profile =
  walk_peak b ~samples:samples_per_segment ~refine:false profile

let profile_refined_peak b ?(samples_per_segment = 32) profile =
  walk_peak b ~samples:samples_per_segment ~refine:true profile

let of_step_up b pm s =
  if not (Stepup.is_step_up s) then invalid_arg "Peak.of_step_up: schedule is not step-up";
  profile_end_peak b (profile b pm s)

let of_any b pm ?(samples_per_segment = 32) s =
  profile_scan_peak b ~samples_per_segment (profile b pm s)

let of_any_refined b pm ?(samples_per_segment = 32) s =
  profile_refined_peak b ~samples_per_segment (profile b pm s)

let stable_end_core_temps b pm s = profile_end_core_temps b (profile b pm s)

(* The cached entry points build their (exact, bit-pattern) key lazily:
   when the caller's memo table is disabled there is no point digesting
   the schedule, only the miss is recorded. *)
let steady_constant_cached cache b pm voltages =
  if Cache.disabled cache then
    Cache.find_or_add cache "" (fun () -> steady_constant b pm voltages)
  else
    Cache.find_or_add cache
      (Cache.key_of_voltages voltages)
      (fun () -> steady_constant b pm voltages)

let of_step_up_cached cache b pm s =
  if Cache.disabled cache then
    Cache.find_or_add cache "" (fun () -> of_step_up b pm s)
  else
    Cache.find_or_add cache (Cache.key_of_schedule s)
      (fun () -> of_step_up b pm s)

(* ------------------------------------ prepared-base delta evaluators *)

(* Voltage-to-psi conversion shared with the exact decomposed path
   ([Power.Power_model.psi] on the span's voltage), handed to the
   backend's prepared-base hooks.  The prepared base is per-domain:
   prepare and evaluate on the same domain. *)

let two_mode_delta_base (b : B.t) pm ~period ~low ~high ~high_ratio =
  let psi = Array.map (Power.Power_model.psi pm) in
  b.B.prepare_base ~t_p:period ~psi_low:(psi low) ~psi_high:(psi high) ~high_ratio

let two_mode_delta_peak (b : B.t) pm ~core ~low ~high ~high_ratio =
  b.B.delta_peak ~core
    ~psi_low:(Power.Power_model.psi pm low)
    ~psi_high:(Power.Power_model.psi pm high)
    ~high_ratio

let two_mode_delta_temp_at (b : B.t) pm ~at ~core ~low ~high ~high_ratio =
  b.B.delta_core_temp ~at ~core
    ~psi_low:(Power.Power_model.psi pm low)
    ~psi_high:(Power.Power_model.psi pm high)
    ~high_ratio
