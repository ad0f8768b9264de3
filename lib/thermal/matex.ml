module Vec = Linalg.Vec

type segment = { duration : float; psi : Vec.t }
type profile = segment list

let period profile = List.fold_left (fun acc s -> acc +. s.duration) 0. profile

let validate n_cores profile =
  if profile = [] then invalid_arg "Matex: empty profile";
  List.iteri
    (fun q s ->
      if s.duration <= 0. then
        invalid_arg (Printf.sprintf "Matex: segment %d has non-positive duration" q);
      if Vec.dim s.psi <> n_cores then
        invalid_arg
          (Printf.sprintf "Matex: segment %d power vector has arity %d, expected %d" q
             (Vec.dim s.psi) n_cores))
    profile

(* ---------------------------------------------------- modal hot path *)

(* Everything below runs in modal coordinates on the per-model cached
   response engine: equilibria by unit-response superposition (zero LU
   solves per candidate), decay factors from the engine's per-duration
   table, and O(n) element-wise work per sample. *)

let segments_of eng profile =
  List.map (fun s -> Modal.segment eng ~duration:s.duration ~psi:s.psi) profile

let stable_start model profile =
  validate (Model.n_cores model) profile;
  let eng = Modal.make model in
  Modal.of_modal eng (Modal.stable_z eng (segments_of eng profile))

(* Visit the [samples] interior/end states of [seg] starting from modal
   state [z]; returns the exact end-of-segment state (advanced in one
   step, so boundary states do not accumulate sub-step rounding). *)
let scan_segment_z seg ~samples z visit =
  let sub = Modal.split seg samples in
  let dt = Modal.duration sub in
  let zc = ref z in
  for k = 1 to samples do
    zc := Modal.advance sub !zc;
    visit (float_of_int k *. dt) !zc
  done;
  Modal.advance seg z

let peak_scan eng ?(samples_per_segment = 32) profile =
  validate (Model.n_cores (Modal.model eng)) profile;
  (* Fully streamed: stable status, then a per-segment sub-step walk, all
     in the engine's per-domain scratch — no segment list, no per-sample
     state allocation.  Bit-identical to scanning freshly built segments
     (same stable start, same sub-step update, same exact boundary
     advance). *)
  Modal.stable_begin eng;
  List.iter (fun s -> Modal.stable_feed eng ~duration:s.duration ~psi:s.psi) profile;
  let z = Modal.stable_solve eng ~t_p:(period profile) in
  let best = ref (Modal.max_core_temp eng z) in
  Modal.scan_begin eng;
  List.iter
    (fun s ->
      best :=
        Float.max !best
          (Modal.scan_feed eng ~samples:samples_per_segment ~duration:s.duration
             ~psi:s.psi))
    profile;
  !best

let stable_core_trace model ~samples_per_segment profile =
  validate (Model.n_cores model) profile;
  let eng = Modal.make model in
  let segs = segments_of eng profile in
  let z = ref (Modal.stable_z eng segs) in
  let samples = ref [ (0., Modal.core_temps eng !z) ] in
  let t_start = ref 0. in
  List.iter
    (fun seg ->
      z :=
        scan_segment_z seg ~samples:samples_per_segment !z (fun dt zc ->
            samples := (!t_start +. dt, Modal.core_temps eng zc) :: !samples);
      t_start := !t_start +. Modal.duration seg)
    segs;
  Array.of_list (List.rev !samples)

let golden = (sqrt 5. -. 1.) /. 2.

(* Maximize f over [a, b] by golden-section search (f unimodal on the
   bracket around a sampled maximum; if it is not, the result is still a
   lower bound no worse than the sampled one). *)
let golden_max f a b tol =
  let rec go a b x1 x2 f1 f2 =
    if b -. a < tol then Float.max f1 f2
    else if f1 >= f2 then
      (* The maximum lies in [a, x2]. *)
      let b = x2 in
      let x2 = x1 and f2 = f1 in
      let x1 = b -. (golden *. (b -. a)) in
      go a b x1 x2 (f x1) f2
    else
      (* The maximum lies in [x1, b]. *)
      let a = x1 in
      let x1 = x2 and f1 = f2 in
      let x2 = a +. (golden *. (b -. a)) in
      go a b x1 x2 f1 (f x2)
  in
  let x1 = b -. (golden *. (b -. a)) in
  let x2 = a +. (golden *. (b -. a)) in
  go a b x1 x2 (f x1) (f x2)

let peak_refined eng ?(samples_per_segment = 32) ?(tol = 1e-4) profile =
  validate (Model.n_cores (Modal.model eng)) profile;
  let segs = segments_of eng profile in
  let z = ref (Modal.stable_z eng segs) in
  let best = ref (Modal.max_core_temp eng !z) in
  List.iter
    (fun seg ->
      let z0 = !z in
      (* Dense scan of this segment, remembering the hottest sample. *)
      let duration = Modal.duration seg in
      let dt = duration /. float_of_int samples_per_segment in
      let best_k = ref 0 and best_here = ref (Modal.max_core_temp eng z0) in
      z :=
        scan_segment_z seg ~samples:samples_per_segment z0 (fun t zc ->
            let temp = Modal.max_core_temp eng zc in
            if temp > !best_here then begin
              best_here := temp;
              best_k := int_of_float (Float.round (t /. dt))
            end);
      best := Float.max !best !best_here;
      (* Refine inside the bracketing interval around the best sample;
         each probe is an O(n) modal evaluation, so golden-section probes
         at fresh times cost no matrix exponential. *)
      let lo = Float.max 0. ((float_of_int !best_k -. 1.) *. dt) in
      let hi = Float.min duration ((float_of_int !best_k +. 1.) *. dt) in
      if hi > lo then begin
        let temp_at t = Modal.max_core_temp eng (Modal.at seg ~t_rel:t z0) in
        best := Float.max !best (golden_max temp_at lo hi (tol *. duration))
      end)
    segs;
  !best

let time_to_threshold model ?theta0 ?(max_periods = 1000) ?(samples_per_segment = 32)
    ~threshold profile =
  validate (Model.n_cores model) profile;
  let eng = Modal.make model in
  let z0 =
    match theta0 with
    | Some t -> Modal.to_modal eng t
    | None -> Modal.ambient_state eng
  in
  let hot z = Modal.max_core_temp eng z in
  if hot z0 >= threshold then Some 0.
  else begin
    let segs = segments_of eng profile in
    (* Bisect the crossing inside [t_lo, t_hi] from the segment-start
       modal state [base]. *)
    let refine seg base t_lo t_hi =
      let rec go t_lo t_hi iters =
        if iters = 0 || t_hi -. t_lo < 1e-9 *. Float.max 1e-3 t_hi then t_hi
        else
          let mid = (t_lo +. t_hi) /. 2. in
          if hot (Modal.at seg ~t_rel:mid base) >= threshold then
            go t_lo mid (iters - 1)
          else go mid t_hi (iters - 1)
      in
      go t_lo t_hi 50
    in
    let exception Crossed of float in
    try
      let z = ref z0 in
      let elapsed = ref 0. in
      for _ = 1 to max_periods do
        List.iter
          (fun seg ->
            let base = !z in
            let crossing = ref None in
            (* Scan this segment for the first sample above threshold. *)
            (try
               let prev_t = ref 0. in
               ignore
                 (scan_segment_z seg ~samples:samples_per_segment base
                    (fun t zc ->
                      if !crossing = None && hot zc >= threshold then begin
                        crossing := Some (refine seg base !prev_t t);
                        raise Exit
                      end;
                      prev_t := t))
             with Exit -> ());
            (match !crossing with
            | Some t -> raise (Crossed (!elapsed +. t))
            | None -> ());
            z := Modal.advance seg base;
            elapsed := !elapsed +. Modal.duration seg)
          segs
      done;
      None
    with Crossed t -> Some t
  end

let mission_peak model ?theta0 ?(samples_per_segment = 32) profile =
  validate (Model.n_cores model) profile;
  let eng = Modal.make model in
  let z0 =
    match theta0 with
    | Some t -> Modal.to_modal eng t
    | None -> Modal.ambient_state eng
  in
  let best = ref (Modal.max_core_temp eng z0) in
  let z = ref z0 in
  List.iter
    (fun seg ->
      z :=
        scan_segment_z seg ~samples:samples_per_segment !z (fun _ zc ->
            best := Float.max !best (Modal.max_core_temp eng zc)))
    (segments_of eng profile);
  (!best, Modal.of_modal eng !z)
