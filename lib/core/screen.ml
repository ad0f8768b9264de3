(* Two-tier candidate screening.

   Policy m-sweeps and offset grids price every candidate in a batch
   and keep the argmin.  With the sparse backend each exact evaluation
   is a CG fixed-point solve; the reduced model prices the same
   candidate in O(n_cores^2 + k n_cores) with zero Krylov work.  This
   module scores the WHOLE batch on the ROM first, then re-evaluates
   only the candidates whose ROM score is within [margin] of the ROM
   minimum with the exact evaluator, returning +infinity for everything
   pruned.

   Safety argument (DESIGN.md section 12): let eps be a bound on
   |rom i - exact i| over the batch.  If margin >= 2 eps, the exact
   argmin [best] is always a survivor: with [m] the ROM minimizer,
   rom(best) <= exact(best) + eps <= exact(m) + eps <= rom(m) + 2 eps
   <= rom_min + margin.  Then the sequential argmin over the returned array
   (pruned slots +infinity, never smaller than a real peak) picks the
   same index the exhaustive sweep would have, because every survivor
   carries its exact value and every pruned candidate's exact value
   exceeds the best survivor's.  Unconditionally — even when eps
   exceeds the margin budget — the schedule a screened search returns
   was priced by an exact solve, never by a ROM score. *)

(* Process-wide screening counters: how many candidates were ROM-scored
   and how many survived to an exact solve.  Monotonic atomics — the
   scale CLI reports the ratio as the screening win. *)
let scored_count = Atomic.make 0
let survivor_count = Atomic.make 0

type stats = { scored : int; survivors : int }

let stats () =
  { scored = Atomic.get scored_count; survivors = Atomic.get survivor_count }

let reset_stats () =
  Atomic.set scored_count 0;
  Atomic.set survivor_count 0

(* [f] over [0 .. n-1] in index order: across [pool] (default: the
   shared pool) when [par], inline otherwise. *)
let init pool ~par n f =
  if par then Util.Pool.init ?pool ~chunk:(Util.Pool.chunk_hint ?pool n) n f
  else Array.init n f

let select ?pool ?(par = false) ?(always = []) ~margin ~n ~rom ~exact () =
  if n < 0 then invalid_arg "Screen.select: negative candidate count";
  if not (margin >= 0.) then invalid_arg "Screen.select: negative margin";
  if n = 0 then [||]
  else begin
    List.iter
      (fun i ->
        if i < 0 || i >= n then
          invalid_arg "Screen.select: always-index out of range")
      always;
    let scores = init pool ~par n rom in
    Atomic.fetch_and_add scored_count n |> ignore;
    (* NaN scores neither poison the minimum ([Float.min] propagates
       NaN, which would fail every keep test and prune the whole batch)
       nor get pruned themselves: a NaN survives to the exact tier, so a
       broken ROM score surfaces as an exact evaluation rather than a
       silently all-infinity sweep. *)
    let rom_min =
      Array.fold_left
        (fun acc s -> if Float.is_nan s then acc else Float.min acc s)
        infinity scores
    in
    let keep =
      Array.map (fun s -> Float.is_nan s || s <= rom_min +. margin) scores
    in
    List.iter (fun i -> keep.(i) <- true) always;
    let survivors = Array.fold_left (fun a k -> if k then a + 1 else a) 0 keep in
    Atomic.fetch_and_add survivor_count survivors |> ignore;
    (* Exact tier over the survivors only.  The pool still iterates all
       n indices (pruned ones return immediately), so index order — and
       with it determinism of any downstream sequential reduction — is
       preserved regardless of which indices survived. *)
    let price i = if keep.(i) then exact i else infinity in
    init pool ~par n price
  end

(* Fan a batch out only when it carries real work: a 3-core dense
   candidate evaluation is under a microsecond, and waking the pool for
   thousands of them costs more than running them inline.  Callers pass
   a floating-point-volume proxy: m * cores * nodes for an m-sweep,
   cores * nodes for a TPT step. *)
let fan_out ~par ~work = par && work >= 32768

let batch ev ~par n f = init (Some (Eval.pool ev)) ~par n f

let argmin ev ~par ~always ~n ~rom ~exact =
  let peaks =
    match Eval.screening ev with
    | Some margin ->
        select ~pool:(Eval.pool ev) ~par ~always ~margin ~n ~rom ~exact ()
    | None -> batch ev ~par n exact
  in
  (* Sequential and in index order whatever the fan-out, so the choice is
     identical at any pool size.  An index displaces the best only by
     beating it by more than 1e-12, so ties keep the lowest index, and
     pruned slots (+infinity) and NaN never win. *)
  let best = ref 0 and best_peak = ref infinity in
  Array.iteri
    (fun i peak ->
      if peak < !best_peak -. 1e-12 then begin
        best := i;
        best_peak := peak
      end)
    peaks;
  (!best, !best_peak)
