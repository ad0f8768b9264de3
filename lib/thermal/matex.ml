module Vec = Linalg.Vec

type segment = { duration : float; psi : Vec.t }
type profile = segment list

let period profile = List.fold_left (fun acc s -> acc +. s.duration) 0. profile
let spans profile feed = List.iter (fun s -> feed ~duration:s.duration ~psi:s.psi) profile

let validate n_cores profile =
  if profile = [] then invalid_arg "Matex: empty profile";
  List.iteri
    (fun q s ->
      (* Positive range tests, so a NaN duration or power is rejected
         instead of reading as the coolest possible peak. *)
      if not (Float.is_finite s.duration) then
        invalid_arg (Printf.sprintf "Matex: segment %d has non-finite duration" q);
      if not (s.duration > 0.) then
        invalid_arg (Printf.sprintf "Matex: segment %d has non-positive duration" q);
      if Vec.dim s.psi <> n_cores then
        invalid_arg
          (Printf.sprintf "Matex: segment %d power vector has arity %d, expected %d" q
             (Vec.dim s.psi) n_cores);
      if not (Array.for_all Float.is_finite s.psi) then
        invalid_arg (Printf.sprintf "Matex: segment %d has a non-finite power" q))
    profile

(* ---------------------------------------------------- modal walks *)

(* Everything below runs in modal coordinates on a fresh {!Modal}
   engine: equilibria by unit-response superposition, decay factors
   from the engine's per-duration table, O(n) element-wise work per
   sample. *)

let modal_stable eng profile = Modal.stable eng ~t_p:(period profile) (spans profile)

let stable_start model profile =
  validate (Model.n_cores model) profile;
  let eng = Modal.make model in
  Modal.of_modal eng (modal_stable eng profile)

(* Walk segment [s] from modal state [z] in [samples] equal sub-steps,
   calling [visit t zc] on each visited state ([t] into the segment;
   [zc] is a walker buffer, read it during the call); returns the exact
   end-of-segment state, advanced in ONE full step from [z] so boundary
   states accumulate no sub-step rounding. *)
let walk_segment eng ~samples s z visit =
  if samples < 1 then invalid_arg "Matex: non-positive sample count";
  let eq = Modal.z_inf eng s.psi in
  let dt = s.duration /. float_of_int samples in
  let zc = Array.copy z in
  Modal.walk eng ~dt ~samples ~eq ~walker:zc (fun k zc -> visit (float_of_int k *. dt) zc);
  Array.blit z 0 zc 0 (Array.length z);
  ignore (Modal.sample_segment eng ~dt:s.duration ~samples:1 ~eq ~walker:zc : int * float);
  zc

let stable_core_trace model ~samples_per_segment profile =
  validate (Model.n_cores model) profile;
  let eng = Modal.make model in
  let z = ref (Array.copy (modal_stable eng profile)) in
  let samples = ref [ (0., Modal.core_temps eng !z) ] in
  let t_start = ref 0. in
  List.iter
    (fun s ->
      z :=
        walk_segment eng ~samples:samples_per_segment s !z (fun dt zc ->
            samples := (!t_start +. dt, Modal.core_temps eng zc) :: !samples);
      t_start := !t_start +. s.duration)
    profile;
  Array.of_list (List.rev !samples)

let golden = (sqrt 5. -. 1.) /. 2.

(* Maximize f over [a, b] by golden-section search (f unimodal on the
   bracket around a sampled maximum; if it is not, the result is still a
   lower bound no worse than the sampled one). *)
let golden_max f a b tol =
  (* [b -. a < tol] never holds for a zero, negative or NaN [tol], so
     the search would not return. *)
  if not (Float.is_finite tol && tol > 0.) then
    invalid_arg "Matex.golden_max: tolerance must be finite and positive";
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
    (* Bisect the crossing inside [t_lo, t_hi] of segment [s] from its
       start state [base]; each probe is one exact step of [mid]. *)
    let refine s base t_lo t_hi =
      let rec go t_lo t_hi iters =
        if iters = 0 || t_hi -. t_lo < 1e-9 *. Float.max 1e-3 t_hi then t_hi
        else
          let mid = (t_lo +. t_hi) /. 2. in
          if hot (Modal.step eng ~dt:mid ~z:base ~psi:s.psi) >= threshold then
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
          (fun s ->
            let base = !z in
            (* Stop at the first sample above threshold. *)
            let prev_t = ref 0. in
            z :=
              walk_segment eng ~samples:samples_per_segment s base (fun t zc ->
                  if hot zc >= threshold then
                    raise (Crossed (!elapsed +. refine s base !prev_t t));
                  prev_t := t);
            elapsed := !elapsed +. s.duration)
          profile
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
    (fun s ->
      z :=
        walk_segment eng ~samples:samples_per_segment s !z (fun _ zc ->
            best := Float.max !best (Modal.max_core_temp eng zc)))
    profile;
  (!best, Modal.of_modal eng !z)
