type result = {
  voltages : float array;
  throughput : float;
  peak : float;
  evaluated : int;
  feasible : bool;
  exhaustive : bool;
}

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let lex_less a b =
  let n = Array.length a in
  let rec go i = i < n && (a.(i) < b.(i) || (a.(i) = b.(i) && go (i + 1))) in
  go 0

(* Deterministic total order on feasible assignments: higher score wins;
   exact score ties go to the lexicographically smallest digit vector.
   Every solver (flat, naive, pruned, parallel) reduces with this same
   order, so they agree bit-for-bit regardless of enumeration order. *)
let improves ~score ~digits ~best_score ~best_digits =
  score > best_score
  || score = best_score
     && (match best_digits with None -> true | Some b -> lex_less digits b)

(* Shared odometer enumeration: [visit digits] is called for every
   assignment; [on_tick i old_digit new_digit] reports each single-digit
   change so the caller can update state incrementally. *)
let enumerate ~n ~l ~on_tick ~visit =
  let digits = Array.make n 0 in
  let continue = ref true in
  let count = ref 0 in
  while !continue do
    incr count;
    visit digits;
    (* Advance the odometer, reporting every digit change. *)
    let rec carry i =
      if i >= n then continue := false
      else if digits.(i) + 1 < l then begin
        on_tick i digits.(i) (digits.(i) + 1);
        digits.(i) <- digits.(i) + 1
      end
      else begin
        on_tick i digits.(i) 0;
        digits.(i) <- 0;
        carry (i + 1)
      end
    in
    carry 0
  done;
  !count

(* [b] prices the reported peak: the policy passes its context's dense
   engine ([Eval.dense]), the platform-level entry points a new one. *)
let best_result ?(exhaustive = true) b (p : Platform.t) best_digits best_score
    levels evaluated =
  match best_digits with
  | Some digits ->
      let voltages = Array.map (fun d -> levels.(d)) digits in
      {
        voltages;
        throughput = mean voltages;
        peak = Sched.Peak.steady_constant b p.power voltages;
        evaluated;
        feasible = true;
        exhaustive;
      }
  | None ->
      ignore best_score;
      {
        voltages = Array.make (Platform.n_cores p) levels.(0);
        throughput = 0.;
        peak = infinity;
        evaluated;
        feasible = false;
        exhaustive;
      }

(* Steady core temps are affine in the power vector:
   T = offset + sum_j column_j * psi_j.  Factorize once; every solver
   below (except the textbook [solve_naive]) updates temperatures
   incrementally from this shared read-only precomputation. *)
type steady = {
  levels : float array;
  l : int;
  n : int;
  psi_of_level : float array;
  columns : float array array;
  base_temps : float array;  (* offset + every core at the lowest level *)
}

let steady_setup (p : Platform.t) =
  let n = Platform.n_cores p in
  let levels = Power.Vf.levels p.levels in
  let l = Array.length levels in
  let psi_of_level = Array.map (Power.Power_model.psi p.power) levels in
  let offset = Thermal.Model.steady_core_temps p.model (Array.make n 0.) in
  let column j =
    let unit = Array.make n 0. in
    unit.(j) <- 1.;
    let with_unit = Thermal.Model.steady_core_temps p.model unit in
    Array.init n (fun i -> with_unit.(i) -. offset.(i))
  in
  let columns = Array.init n column in
  let base_temps = Array.copy offset in
  for j = 0 to n - 1 do
    for i = 0 to n - 1 do
      base_temps.(i) <- base_temps.(i) +. (columns.(j).(i) *. psi_of_level.(0))
    done
  done;
  { levels; l; n; psi_of_level; columns; base_temps }

let reference (p : Platform.t) = Thermal.Backend.of_model p.model

let solve_on b (p : Platform.t) =
  let { levels; l; n; psi_of_level; columns; base_temps } = steady_setup p in
  let temps = Array.copy base_temps in
  let best_score = ref neg_infinity in
  let best_digits = ref None in
  let on_tick j d_old d_new =
    let dpsi = psi_of_level.(d_new) -. psi_of_level.(d_old) in
    for i = 0 to n - 1 do
      temps.(i) <- temps.(i) +. (columns.(j).(i) *. dpsi)
    done
  in
  let visit digits =
    let hottest = ref neg_infinity in
    for i = 0 to n - 1 do
      if temps.(i) > !hottest then hottest := temps.(i)
    done;
    if !hottest <= p.t_max +. 1e-9 then begin
      let score = ref 0. in
      for i = 0 to n - 1 do
        score := !score +. levels.(digits.(i))
      done;
      if improves ~score:!score ~digits ~best_score:!best_score
           ~best_digits:!best_digits
      then begin
        best_score := !score;
        best_digits := Some (Array.copy digits)
      end
    end
  in
  let evaluated = enumerate ~n ~l ~on_tick ~visit in
  best_result b p !best_digits !best_score levels evaluated

let solve p = solve_on (reference p) p

let solve_naive (p : Platform.t) =
  let n = Platform.n_cores p in
  let levels = Power.Vf.levels p.levels in
  let l = Array.length levels in
  let best_score = ref neg_infinity in
  let best_digits = ref None in
  (* Algorithm 1 verbatim: a fresh T^inf = -A^{-1} B factorization per
     combination (line 7), with no incremental reuse. *)
  let a = Thermal.Model.a_matrix p.model in
  let visit digits =
    let voltages = Array.map (fun d -> levels.(d)) digits in
    let psi = Power.Power_model.psi_vector p.power voltages in
    let b = Thermal.Model.input_of_core_powers p.model psi in
    let theta = Linalg.Vec.scale (-1.) (Linalg.Lu.solve a b) in
    let peak = Thermal.Model.max_core_temp p.model theta in
    if peak <= p.t_max +. 1e-9 then begin
      let score = Array.fold_left ( +. ) 0. voltages in
      if improves ~score ~digits ~best_score:!best_score ~best_digits:!best_digits
      then begin
        best_score := score;
        best_digits := Some (Array.copy digits)
      end
    end
  in
  let evaluated = enumerate ~n ~l ~on_tick:(fun _ _ _ -> ()) ~visit in
  best_result (reference p) p !best_digits !best_score levels evaluated

(* Deterministic greedy warm start: from the all-lowest assignment,
   repeatedly raise one core a single level, choosing among the
   still-feasible raises the one whose resulting hottest temperature is
   smallest (ties to the lowest core index), until no raise fits under
   [t_max].  Pure function of the steady factorization, so every solver
   seeding from it stays deterministic.  Returns [None] when even the
   all-lowest assignment violates the constraint. *)
let greedy_fill { levels; l; n; psi_of_level; columns; base_temps } ~t_max =
  let temps = Array.copy base_temps in
  let hottest t =
    let h = ref neg_infinity in
    for i = 0 to n - 1 do
      if t.(i) > !h then h := t.(i)
    done;
    !h
  in
  if hottest temps > t_max +. 1e-9 then None
  else begin
    let digits = Array.make n 0 in
    let continue = ref true in
    while !continue do
      (* Best single-level raise: feasible, with the coolest resulting
         hot spot. *)
      let best_j = ref (-1) and best_hot = ref infinity in
      for j = 0 to n - 1 do
        if digits.(j) + 1 < l then begin
          let dpsi = psi_of_level.(digits.(j) + 1) -. psi_of_level.(digits.(j)) in
          let h = ref neg_infinity in
          for i = 0 to n - 1 do
            let t = temps.(i) +. (columns.(j).(i) *. dpsi) in
            if t > !h then h := t
          done;
          if !h <= t_max +. 1e-9 && !h < !best_hot then begin
            best_hot := !h;
            best_j := j
          end
        end
      done;
      if !best_j < 0 then continue := false
      else begin
        let j = !best_j in
        let dpsi = psi_of_level.(digits.(j) + 1) -. psi_of_level.(digits.(j)) in
        for i = 0 to n - 1 do
          temps.(i) <- temps.(i) +. (columns.(j).(i) *. dpsi)
        done;
        digits.(j) <- digits.(j) + 1
      end
    done;
    let score = ref 0. in
    for j = 0 to n - 1 do
      score := !score +. levels.(digits.(j))
    done;
    Some (digits, !score)
  end

(* Search-node budget: exact (unlimited) when the full space is small
   enough to enumerate outright; past that, a fixed node cap turns the
   branch-and-bound into a deterministic anytime search seeded by
   [greedy_fill] — the many-core regime where [levels^cores] is
   astronomically beyond any exact method.  Both thresholds are pure
   functions of (levels, cores), so a platform always gets the same
   budget. *)
let exact_space_limit = 4_194_304.
let anytime_node_cap = 16_777_216

let default_node_cap ~l ~n =
  if float_of_int l ** float_of_int n <= exact_space_limit then max_int
  else anytime_node_cap

(* Branch-and-bound over cores [start .. n-1].  [digits]/[temps] hold the
   caller's state: cores below [start] fixed at their digits, cores from
   [start] preloaded at level 0 (so [temps] is the subtree's temperature
   lower bound, by monotonicity).  [best_score] reads the incumbent score
   — a plain ref for the sequential solver, a shared [Atomic] for the
   parallel one — and [offer] proposes a completed assignment.  Pruning
   only cuts a subtree when even its all-top completion scores strictly
   below the incumbent (beyond the 1e-12 float guard): subtrees that can
   merely *tie* are explored, so the lexicographic tie-break of
   [improves] sees every tying assignment and stays deterministic.
   Stops descending once [node_cap] nodes have been visited (setting
   [capped]), unwinding with the state-restoration discipline intact.
   Returns the number of visited search nodes. *)
let bnb { levels; l; n; psi_of_level; columns; _ } ~t_max ~node_cap ~capped
    ~digits ~temps ~best_score ~offer ~start ~score0 =
  let v_top = levels.(l - 1) in
  let visited = ref 0 in
  let bump j d_old d_new =
    let dpsi = psi_of_level.(d_new) -. psi_of_level.(d_old) in
    for i = 0 to n - 1 do
      temps.(i) <- temps.(i) +. (columns.(j).(i) *. dpsi)
    done
  in
  let hottest () =
    let h = ref neg_infinity in
    for i = 0 to n - 1 do
      if temps.(i) > !h then h := temps.(i)
    done;
    !h
  in
  (* Assign core j; cores 0..j-1 hold their digits, cores j..n-1 sit at
     level 0.  [score] is the partial voltage sum of cores 0..j-1. *)
  let rec assign j score =
    if !visited >= node_cap then capped := true
    else begin
      incr visited;
      if hottest () > t_max +. 1e-9 then
        (* Even with the rest at minimum this subtree violates: prune. *)
        ()
      else if j = n then offer score digits
      else if score +. (float_of_int (n - j) *. v_top) < best_score () -. 1e-12
      then
        (* Bound: cannot beat or tie the incumbent even at full speed. *)
        ()
      else
        (* Try levels high-to-low so good incumbents appear early and the
           score bound bites. *)
        for d = l - 1 downto 0 do
          bump j digits.(j) d;
          digits.(j) <- d;
          assign (j + 1) (score +. levels.(d))
        done
    end;
    (* Restore core j to level 0 for the caller (a no-op on a
       budget-stopped frame, whose digit is still 0). *)
    if j < n then begin
      bump j digits.(j) 0;
      digits.(j) <- 0
    end
  in
  assign start score0;
  !visited

let solve_pruned_on b ?node_cap (p : Platform.t) =
  let st = steady_setup p in
  let node_cap =
    match node_cap with Some c -> c | None -> default_node_cap ~l:st.l ~n:st.n
  in
  let digits = Array.make st.n 0 in
  let temps = Array.copy st.base_temps in
  let best_score = ref neg_infinity in
  let best_digits = ref None in
  (* Seed the incumbent with the greedy warm start so the score bound
     bites from the first node — essential when the budget is finite,
     harmless (same result, fewer visits) when it is not. *)
  (match greedy_fill st ~t_max:p.t_max with
  | Some (digits, score) ->
      best_score := score;
      best_digits := Some digits
  | None -> ());
  let offer score digits =
    if improves ~score ~digits ~best_score:!best_score ~best_digits:!best_digits
    then begin
      best_score := score;
      best_digits := Some (Array.copy digits)
    end
  in
  let capped = ref false in
  let visited =
    bnb st ~t_max:p.t_max ~node_cap ~capped ~digits ~temps
      ~best_score:(fun () -> !best_score)
      ~offer ~start:0 ~score0:0.
  in
  best_result ~exhaustive:(not !capped) b p !best_digits !best_score st.levels
    visited

let solve_pruned ?node_cap p = solve_pruned_on (reference p) ?node_cap p

let solve_par_on b ?pool ?(par = true) (p : Platform.t) =
  let st = steady_setup p in
  let pool_size =
    match pool with
    | Some q -> Util.Pool.size q
    | None -> Util.Pool.size (Util.Pool.get ())
  in
  let space = float_of_int st.l ** float_of_int st.n in
  (* The fan-out only pays above a minimum search-space size; tiny
     problems (and 1-domain pools) take the sequential path outright.
     Budget-truncated searches also stay sequential: a node cap split
     across racing subtrees would make the *result* depend on incumbent
     propagation timing, and determinism outranks parallelism in the
     anytime regime. *)
  if
    (not par) || pool_size <= 1 || st.n < 2 || space < 1024.
    || default_node_cap ~l:st.l ~n:st.n < max_int
  then solve_pruned_on b p
  else begin
    (* Shared incumbent: lock-free [Atomic.get] for the bound inside
       every subtree, CAS-loop publication on improvement.  The bound is
       admissible because an incumbent score only ever grows and pruning
       requires being strictly below it (minus the float guard), so no
       optimal-or-tying assignment is ever cut. *)
    let incumbent =
      Atomic.make
        (Option.map (fun (d, s) -> (s, d)) (greedy_fill st ~t_max:p.t_max))
    in
    let best_score () =
      match Atomic.get incumbent with None -> neg_infinity | Some (s, _) -> s
    in
    let rec offer score digits =
      let cur = Atomic.get incumbent in
      let better =
        match cur with
        | None -> true
        | Some (s, d) -> score > s || (score = s && lex_less digits d)
      in
      if
        better
        && not (Atomic.compare_and_set incumbent cur (Some (score, Array.copy digits)))
      then offer score digits
    in
    (* One task per top-level digit of core 0, each searching its subtree
       with task-local digits/temps.  Highest digit first, so strong
       incumbents publish early and the score bound prunes the
       low-frequency subtrees across all workers. *)
    let subtree d0 =
      let digits = Array.make st.n 0 in
      let temps = Array.copy st.base_temps in
      let dpsi = st.psi_of_level.(d0) -. st.psi_of_level.(0) in
      for i = 0 to st.n - 1 do
        temps.(i) <- temps.(i) +. (st.columns.(0).(i) *. dpsi)
      done;
      digits.(0) <- d0;
      bnb st ~t_max:p.t_max ~node_cap:max_int ~capped:(ref false) ~digits
        ~temps ~best_score ~offer ~start:1 ~score0:st.levels.(d0)
    in
    let order = Array.init st.l (fun i -> st.l - 1 - i) in
    let visits = Util.Pool.map_array ?pool subtree order in
    (* +1 for the implicit root node the sequential solver counts.  The
       total depends on how fast incumbents propagated, so it is not
       deterministic across runs — only the result fields are. *)
    let evaluated = Array.fold_left ( + ) 1 visits in
    match Atomic.get incumbent with
    | Some (score, digits) -> best_result b p (Some digits) score st.levels evaluated
    | None -> best_result b p None neg_infinity st.levels evaluated
  end

let solve_par ?pool ?par p = solve_par_on (reference p) ?pool ?par p

type Solver.details += Details of result

let policy =
  {
    Solver.name = "exs";
    doc = "Exhaustive search over discrete assignments (Algorithm 1 baseline)";
    comparison = true;
    solve =
      (fun ev (prm : Solver.params) ->
        let o =
          Solver.timed_outcome ev (fun () ->
              let p = Eval.platform ev in
              let b = Eval.backend (Eval.dense ev) in
              let r =
                if prm.Solver.par then solve_par_on b ~pool:(Eval.pool ev) p
                else solve_on b p
              in
              {
                Solver.voltages = Array.copy r.voltages;
                schedule = None;
                throughput = r.throughput;
                peak = r.peak;
                wall_time = 0.;
                evaluations = 0;
                details = Details r;
              })
        in
        (* EXS's own enumeration count is the meaningful evaluation
           metric (its inner loop never touches the memo tables). *)
        match o.Solver.details with
        | Details r -> { o with Solver.evaluations = r.evaluated }
        | _ -> o);
  }
