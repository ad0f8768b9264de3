(** Two-tier ROM-screened candidate selection.

    Score a whole candidate batch on a cheap approximate evaluator (the
    same [Sched.Peak] evaluator on the Lanczos-reduced backend,
    {!Thermal.Backend.of_reduced}), then re-evaluate only the
    candidates within [margin] of the approximate minimum on the exact
    backend.  Pruned candidates report [infinity], so the caller's
    sequential argmin (and its tie-breaking) is unchanged — every value
    it can select was computed by an exact solve.

    Soundness: if the ROM error over the batch is bounded by [eps] and
    [margin >= 2 eps], the exact argmin always survives, so screening
    returns exactly the exhaustive sweep's answer; unconditionally the
    selected schedule's peak is an exact evaluation (see DESIGN.md
    §12). *)

(** Process-wide screening counters (monotonic). *)
type stats = {
  scored : int;  (** Candidates ROM-scored. *)
  survivors : int;  (** Candidates re-verified exactly. *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

(** [select ?pool ?par ?always ~margin ~n ~rom ~exact ()] prices
    candidates [0 .. n-1]: every index through [rom], survivors (ROM
    score within [margin] of the batch ROM minimum, plus every index in
    [always]) through [exact], pruned slots [infinity].  [par] fans both
    tiers across [pool] (default: the shared pool) with claim chunk
    {!Util.Pool.chunk_hint}; results are in index order either way.
    [always] forces indices whose exact value the caller reads
    unconditionally (e.g. an incumbent at slot 0) to survive.  NaN ROM
    scores are excluded from the batch minimum and survive to the exact
    tier, so a broken score cannot silently prune the whole batch.
    Raises [Invalid_argument] on a negative [margin] or an out-of-range
    [always] index. *)
val select :
  ?pool:Util.Pool.t ->
  ?par:bool ->
  ?always:int list ->
  margin:float ->
  n:int ->
  rom:(int -> float) ->
  exact:(int -> float) ->
  unit ->
  float array

(** {1 The screened argmin sweep}

    The one candidate sweep every search runs: AO's and Demand's
    m-sweep ({!Ao.m_sweep}) and PCO's per-core offset grid.  The TPT
    loops' exact scans price through {!batch} under the same
    {!fan_out} gate. *)

(** [batch ev ~par n f] is [[| f 0; ...; f (n - 1) |]], evaluated
    across [ev]'s pool when [par] (claim chunk {!Util.Pool.chunk_hint})
    and inline otherwise — in index order either way, so a sequential
    reduction over it is identical at any pool size. *)
val batch : Eval.t -> par:bool -> int -> (int -> 'a) -> 'a array

(** [fan_out ~par ~work] is whether a batch fans out across the pool:
    [par] and a floating-point volume [work] (m * cores * nodes for an
    m-sweep, cores * nodes for a TPT step) of at least 32768.  Below
    that, waking the pool costs more than evaluating inline. *)
val fan_out : par:bool -> work:int -> bool

(** [argmin ev ~par ~always ~n ~rom ~exact] prices candidates
    [0 .. n-1] and returns the index of the coolest with its peak.  On
    a screening context ({!Eval.screening} is [Some margin]) it prices
    through {!select} (with [always] kept); otherwise every candidate
    goes through [exact] and [rom] is unused.  [par] fans the pricing
    across the context's pool; the caller applies its own {!fan_out}
    gate.  The reduction is sequential in index order — a candidate
    displaces the best so far only by beating it by more than [1e-12],
    so ties keep the lowest index and the result is identical at any
    pool size.  With no finite peak (or [n = 0]) it returns [(0, infinity)]. *)
val argmin :
  Eval.t ->
  par:bool ->
  always:int list ->
  n:int ->
  rom:(int -> float) ->
  exact:(int -> float) ->
  int * float
